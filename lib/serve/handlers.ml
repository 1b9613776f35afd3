(* The HTTP endpoints.

   Every POST endpoint decodes a JSON body (absent body = all defaults,
   but [protocol] is always required), clamps the exploration and
   iteration budgets so no request can park a worker domain on an
   unbounded analysis, registers a job and offers it to the admission
   queue: 202 with the job id on acceptance, 429 + [Retry-After] (and
   the registration undone) when the queue is full.

   Parameter names and defaults mirror the CLI flags of the
   corresponding [nfc] subcommand, and each compute closure calls the
   CLI's own entry point on a fresh engine, so a served result is
   byte-identical to the CLI's output at the same parameters.  Lint,
   boundness and cover results go through {!Cache.memo}, keyed by the
   clamped request parameters. *)

module J = Nfc_util.Json

type ctx = {
  table : Jobs.table;
  queue : Jobs.job Queue.t;
  cache : Cache.t;
  telemetry : Telemetry.t;
  n_workers : int;
  n_running : unit -> int;
}

let ( let* ) r k = match r with Ok v -> k v | Error _ as e -> e

let parse_body (req : Http.request) =
  if String.trim req.Http.body = "" then Ok (J.Obj [])
  else
    match J.of_string req.Http.body with
    | Ok j -> Ok j
    | Error msg -> Error ("invalid JSON body: " ^ msg)

(* Protocol resolution for job submissions.  Three name spaces:

   - registry names ("altbit", "gbn:4", ...) resolve as on the CLI;
   - "pdl:<digest>" handles resolve to protocols previously submitted
     via POST /v1/protocols;
   - "file:PATH" is refused: the CLI loader reads the server's
     filesystem, which a network client must not be able to do.

   The second component is the name the result memo keys on: the handle
   for a submitted spec, never its self-declared name (which could
   collide with a builtin's), and the canonical name for a builtin, so
   aliases share results. *)
let protocol_of ctx body =
  let* name = J.get_string "protocol" body in
  if String.length name >= 4 && String.sub name 0 4 = "pdl:" then
    match Cache.find_spec ctx.cache name with
    | Some proto -> Ok (proto, name)
    | None ->
        Error
          (Printf.sprintf
             "unknown protocol handle %S (submit the spec via POST /v1/protocols first)"
             name)
  else if String.length name >= 5 && String.sub name 0 5 = "file:" then
    Error "file: protocol sources are not served; POST the spec to /v1/protocols instead"
  else
    let* proto = Nfc_protocol.Registry.parse name in
    Ok (proto, Nfc_protocol.Spec.name proto)

(* Clamp instead of reject: a client asking for a bigger budget than the
   service grants still gets a well-defined (smaller) analysis, and the
   memo keys on the clamped value. *)
let get_clamped ~lo ~hi ?default k body =
  let* v = J.get_int ?default k body in
  Ok (max lo (min hi v))

let chomp s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s

let json_response ?headers status j =
  Http.response ?headers ~status (J.to_string j ^ "\n")

(* Register + offer to the bounded queue.  Acceptance is the only path
   that leaks a job id; rejection undoes the registration, so "every
   request resolves to a terminal job state or a 429" holds by
   construction. *)
let submit ctx ~kind ~protocol ~compute =
  let job = Jobs.submit ctx.table ~kind ~protocol ~compute in
  if Queue.try_push ctx.queue job then begin
    Telemetry.inc ctx.telemetry "nfc_jobs_submitted_total" [ ("kind", kind) ];
    json_response 202
      (J.Obj [ ("id", J.String job.Jobs.id); ("state", J.String "queued") ])
  end
  else begin
    Jobs.remove ctx.table job;
    Telemetry.inc ctx.telemetry "nfc_jobs_rejected_total" [ ("kind", kind) ];
    json_response 429
      ~headers:[ ("retry-after", "1") ]
      (J.Obj
         [
           ("error", J.String "admission queue full; retry later");
           ( "queue_capacity",
             J.Int (Queue.capacity ctx.queue) );
         ])
  end

let or_400 = function Ok resp -> resp | Error msg -> Router.json_error 400 msg

let check_cancelled cancelled = if cancelled () then raise Jobs.Cancelled_job

(* ------------------------------------------------------------ endpoints *)

let lint ctx : Router.handler =
 fun ~params:_ req ->
  or_400
    (let* body = parse_body req in
     let* proto, protocol = protocol_of ctx body in
     let* capacity = get_clamped ~lo:1 ~hi:8 ~default:2 "capacity" body in
     let* submits = get_clamped ~lo:0 ~hi:16 ~default:3 "submits" body in
     let* nodes = get_clamped ~lo:1 ~hi:2_000_000 ~default:100_000 "nodes" body in
     let* complete = J.get_bool ~default:false "complete" body in
     let* cover_nodes =
       get_clamped ~lo:1 ~hi:2_000_000 ~default:200_000 "cover_nodes" body
     in
     let* stab = J.get_bool ~default:false "stab" body in
     let key =
       Printf.sprintf "lint capacity=%d submits=%d nodes=%d complete=%b cover_nodes=%d stab=%b"
         capacity submits nodes complete cover_nodes stab
     in
     let cfg =
       {
         Nfc_lint.Checks.default_config with
         Nfc_lint.Checks.bounds =
           {
             Nfc_mcheck.Explore.default_bounds with
             capacity_tr = capacity;
             capacity_rt = capacity;
             submit_budget = submits;
             max_nodes = nodes;
           };
         complete;
         cover_max_nodes = cover_nodes;
       }
     in
     Ok
       (submit ctx ~kind:"lint" ~protocol:(Nfc_protocol.Spec.name proto)
          ~compute:(fun ~cancelled ->
            check_cancelled cancelled;
            (* The checkpoint rides into the exploration's B1/T1/Q1
               budget checks, so a cancel lands mid-BFS instead of
               waiting for the whole analysis.  Set here, not in [cfg]:
               each job must poll its own cancellation token. *)
            let cfg =
              {
                cfg with
                Nfc_lint.Checks.checkpoint = (fun () -> check_cancelled cancelled);
              }
            in
            Cache.memo ctx.cache ~protocol ~key (fun () ->
                let result = Nfc_lint.Engine.run cfg proto in
                (* The stabilization tier runs at its own bounds — see
                   [Nfc_lint.Stab_tier]. *)
                let result =
                  if stab then
                    Nfc_lint.Stab_tier.apply ~checkpoint:cfg.Nfc_lint.Checks.checkpoint proto result
                  else result
                in
                (* One line of [nfc lint --json], sans the newline. *)
                chomp (Nfc_lint.Report.jsonl [ result ])))))

let simulate ctx : Router.handler =
 fun ~params:_ req ->
  or_400
    (let* body = parse_body req in
     let* proto, _ = protocol_of ctx body in
     let* spec = J.get_string ~default:"reorder:0.8:0.05" "channel" body in
     let* factory = Nfc_channel.Policy.parse_factory spec in
     let* n = get_clamped ~lo:1 ~hi:10_000 ~default:10 "messages" body in
     let* pace = get_clamped ~lo:0 ~hi:1_000 ~default:3 "pace" body in
     let* seed = J.get_int ~default:1 "seed" body in
     let* max_rounds =
       get_clamped ~lo:1 ~hi:5_000_000 ~default:500_000 "max_rounds" body
     in
     Ok
       (submit ctx ~kind:"simulate" ~protocol:(Nfc_protocol.Spec.name proto)
          ~compute:(fun ~cancelled ->
            check_cancelled cancelled;
            let result =
              Nfc_sim.Harness.run proto
                {
                  Nfc_sim.Harness.default_config with
                  policy_tr = factory ();
                  policy_rt = factory ();
                  n_messages = n;
                  submit_every = pace;
                  seed;
                  record_trace = false;
                  max_rounds;
                  stall_rounds = Some 100_000;
                }
            in
            Nfc_sim.Metrics.to_json result.Nfc_sim.Harness.metrics)))

let fuzz ctx : Router.handler =
 fun ~params:_ req ->
  or_400
    (let* body = parse_body req in
     let* proto, _ = protocol_of ctx body in
     let* iterations =
       get_clamped ~lo:1 ~hi:1_000_000 ~default:50_000 "iterations" body
     in
     let* steps = get_clamped ~lo:1 ~hi:1_000 ~default:80 "steps" body in
     let* submits = get_clamped ~lo:1 ~hi:16 ~default:4 "submits" body in
     let* seed = J.get_int ~default:1 "seed" body in
     let* shrink = J.get_bool ~default:false "shrink" body in
     let* batches = get_clamped ~lo:1 ~hi:64 ~default:1 "batches" body in
     let cfg =
       {
         Nfc_fuzz.Campaign.default_cfg with
         Nfc_fuzz.Campaign.iterations;
         seed;
         shrink;
         batches;
         gen = { Nfc_fuzz.Gen.default_cfg with Nfc_fuzz.Gen.steps; submits };
       }
     in
     Ok
       (submit ctx ~kind:"fuzz" ~protocol:(Nfc_protocol.Spec.name proto)
          ~compute:(fun ~cancelled ->
            check_cancelled cancelled;
            Nfc_fuzz.Campaign.to_json (Nfc_fuzz.Campaign.run proto cfg))))

let boundness ctx : Router.handler =
 fun ~params:_ req ->
  or_400
    (let* body = parse_body req in
     let* proto, protocol = protocol_of ctx body in
     let* nodes = get_clamped ~lo:1 ~hi:2_000_000 ~default:30_000 "nodes" body in
     let* capacity = get_clamped ~lo:1 ~hi:8 ~default:2 "capacity" body in
     let* submits = get_clamped ~lo:0 ~hi:16 ~default:2 "submits" body in
     let explore =
       {
         Nfc_mcheck.Explore.default_bounds with
         capacity_tr = capacity;
         capacity_rt = capacity;
         submit_budget = submits;
         max_nodes = nodes;
       }
     in
     Ok
       (submit ctx ~kind:"boundness" ~protocol:(Nfc_protocol.Spec.name proto)
          ~compute:(fun ~cancelled ->
            check_cancelled cancelled;
            let key =
              Printf.sprintf "boundness capacity=%d submits=%d nodes=%d" capacity submits nodes
            in
            Cache.memo ctx.cache ~protocol ~key (fun () ->
                Nfc_mcheck.Boundness.measure proto
                  ~checkpoint:(fun () -> check_cancelled cancelled)
                  ~explore ~probe:Nfc_mcheck.Boundness.default_probe_bounds
                |> Nfc_mcheck.Boundness.to_json |> J.to_string))))

let cover ctx : Router.handler =
 fun ~params:_ req ->
  or_400
    (let* body = parse_body req in
     let* proto, protocol = protocol_of ctx body in
     let* submits = get_clamped ~lo:0 ~hi:16 ~default:3 "submits" body in
     let* nodes =
       get_clamped ~lo:1 ~hi:2_000_000 ~default:200_000 "nodes" body
     in
     Ok
       (submit ctx ~kind:"cover" ~protocol:(Nfc_protocol.Spec.name proto)
          ~compute:(fun ~cancelled ->
            check_cancelled cancelled;
            let key = Printf.sprintf "cover submits=%d nodes=%d" submits nodes in
            Cache.memo ctx.cache ~protocol ~key (fun () ->
                Nfc_absint.Cover.run proto
                  ~checkpoint:(fun () -> check_cancelled cancelled)
                  ~submit_budget:submits ~max_nodes:nodes
                |> Nfc_absint.Cover.stats_to_json |> J.to_string))))

(* ------------------------------------------------- submitted protocols *)

(* Big enough for any protocol in the paper's class, small enough that a
   hostile client cannot park megabytes in the spec store. *)
let max_spec_bytes = 64 * 1024

(* POST /v1/protocols — validate, compile and register a PDL definition.
   The body is either the raw .nfc text or a JSON envelope
   [{"spec": "..."}] (detected by a leading '{': PDL source always starts
   with a keyword or a comment).  The handle is derived from the source
   digest, so submission is idempotent: the same text always maps to the
   same handle, answered 201 on first registration and 200 after. *)
let protocol_submit ctx : Router.handler =
 fun ~params:_ req ->
  let body = req.Http.body in
  if String.length body > max_spec_bytes then begin
    Telemetry.inc ctx.telemetry "nfc_protocol_submissions_total"
      [ ("outcome", "too_large") ];
    Router.json_error 413
      (Printf.sprintf "spec too large (%d bytes; limit %d)" (String.length body)
         max_spec_bytes)
  end
  else
    let source =
      (* The JSON envelope may also carry ["refine": N] — the CEGAR
         round budget; raw-text submissions get the one-shot analysis. *)
      let t = String.trim body in
      if String.length t > 0 && t.[0] = '{' then
        match J.of_string body with
        | Ok j -> (
            match J.get_string "spec" j with
            | Error e -> Error e
            | Ok src -> (
                match get_clamped ~lo:0 ~hi:8 ~default:0 "refine" j with
                | Error e -> Error e
                | Ok refine -> Ok (src, refine)))
        | Error msg -> Error ("invalid JSON body: " ^ msg)
      else Ok (body, 0)
    in
    match source with
    | Error msg -> Router.json_error 400 msg
    | Ok (src, refine) -> (
        match Nfc_pdl.Pdl.compile_string src with
        | Error diags ->
            Telemetry.inc ctx.telemetry "nfc_protocol_submissions_total"
              [ ("outcome", "compile_error") ];
            json_response 400
              (J.Obj
                 [
                   ("error", J.String "spec does not compile");
                   ("diagnostics", Nfc_pdl.Pdl.diags_to_json diags);
                 ])
        | Ok c ->
            (* Compile-time static gate: the spec-level abstract
               interpreter runs in microseconds, so every submission is
               symbolically certified before registration.  A Fail
               finding (the symbolic packet alphabet escapes the declared
               families) refuses the spec outright — a client would
               otherwise store a protocol whose certificates can never be
               upgraded; Pass/Unknown findings ride along in the 201
               response as the "static" report.  With ["refine": N] the
               CEGAR loop runs first, so a concretely refuted candidate
               invariant (a located R1 fail) also refuses the spec, and
               both the 422 and the success response carry the per-round
               "refine" log. *)
            let rep, refined =
              Nfc_refine.Refine.analyze ~rounds:refine c.Nfc_pdl.Pdl.checked
            in
            let refine_json = Nfc_refine.Refine.json_field refined in
            let failed =
              List.filter
                (fun (f : Nfc_specint.Specint.finding) ->
                  f.Nfc_specint.Specint.verdict = Nfc_specint.Specint.Fail)
                rep.Nfc_specint.Specint.findings
            in
            if failed <> [] then begin
              Telemetry.inc ctx.telemetry "nfc_protocol_submissions_total"
                [ ("outcome", "static_refused") ];
              json_response 422
                (J.Obj
                   ([
                      ( "error",
                        J.String
                          "spec refused by the static certification gate" );
                     ( "findings",
                       J.List
                         (List.map
                            (fun (f : Nfc_specint.Specint.finding) ->
                              J.Obj
                                [
                                  ("rule", J.String f.Nfc_specint.Specint.rule);
                                  ( "message",
                                    J.String f.Nfc_specint.Specint.message );
                                ])
                             failed) );
                      ("static", Nfc_specint.Specint.to_json rep);
                    ]
                   @ refine_json))
            end
            else
              let handle = "pdl:" ^ c.Nfc_pdl.Pdl.digest in
              let status, outcome =
                match Cache.register_spec ctx.cache ~handle c.Nfc_pdl.Pdl.spec with
                | `New -> (201, "created")
                | `Cached -> (200, "cached")
              in
              Telemetry.inc ctx.telemetry "nfc_protocol_submissions_total"
                [ ("outcome", outcome) ];
              json_response status
                (J.Obj
                   ([
                      ("handle", J.String handle);
                      ("protocol", J.String (Nfc_protocol.Spec.name c.Nfc_pdl.Pdl.spec));
                      ("digest", J.String c.Nfc_pdl.Pdl.digest);
                      ("warnings", Nfc_pdl.Pdl.diags_to_json c.Nfc_pdl.Pdl.warnings);
                      ("static", Nfc_specint.Specint.to_json rep);
                    ]
                   @ refine_json)))

let protocol_list ctx : Router.handler =
 fun ~params:_ _req ->
  json_response 200
    (J.Obj
       [
         ( "builtin",
           J.List
             (List.map
                (fun (e : Nfc_protocol.Registry.entry) ->
                  J.String e.Nfc_protocol.Registry.key)
                Nfc_protocol.Registry.all) );
         ( "submitted",
           J.List (List.map (fun h -> J.String h) (Cache.spec_handles ctx.cache)) );
       ])

(* ----------------------------------------------------------- job status *)

let job_get ctx : Router.handler =
 fun ~params _req ->
  let id = List.assoc "id" params in
  match Jobs.find ctx.table id with
  | None -> Router.json_error 404 (Printf.sprintf "no such job: %s" id)
  | Some job -> json_response 200 (Jobs.json ctx.table job)

(* The stored result document, verbatim — the byte-identity endpoint the
   end-to-end test and the CI smoke compare against CLI output. *)
let job_result ctx : Router.handler =
 fun ~params _req ->
  let id = List.assoc "id" params in
  match Jobs.find ctx.table id with
  | None -> Router.json_error 404 (Printf.sprintf "no such job: %s" id)
  | Some job -> (
      match Jobs.peek ctx.table job with
      | _, Some doc, _ -> Http.response ~status:200 (doc ^ "\n")
      | Jobs.Failed, None, err ->
          Router.json_error 500 (Option.value err ~default:"job failed")
      | state, None, _ ->
          Router.json_error 409
            (Printf.sprintf "job %s is %s; no result yet" id
               (Jobs.state_name state)))

let job_cancel ctx : Router.handler =
 fun ~params _req ->
  let id = List.assoc "id" params in
  match Jobs.request_cancel ctx.table id with
  | Jobs.Not_found -> Router.json_error 404 (Printf.sprintf "no such job: %s" id)
  | Jobs.Cancelled_queued ->
      (* Pull it out of the admission queue too, so a worker never even
         pops it. *)
      Queue.filter ctx.queue (fun (j : Jobs.job) -> j.Jobs.id <> id);
      json_response 200
        (J.Obj [ ("id", J.String id); ("state", J.String "cancelled") ])
  | Jobs.Cancelling_running ->
      json_response 202
        (J.Obj [ ("id", J.String id); ("state", J.String "cancelling") ])
  | Jobs.Already_terminal ->
      let state =
        match Jobs.find ctx.table id with
        | Some job ->
            let s, _, _ = Jobs.peek ctx.table job in
            Jobs.state_name s
        | None -> "gone"
      in
      json_response 200 (J.Obj [ ("id", J.String id); ("state", J.String state) ])

(* ------------------------------------------------------ health, metrics *)

let healthz ctx : Router.handler =
 fun ~params:_ _req ->
  let q, r, d, f, c = Jobs.counts ctx.table in
  json_response 200
    (J.Obj
       [
         ("status", J.String "ok");
         ("workers", J.Int ctx.n_workers);
         ("running", J.Int (ctx.n_running ()));
         ("queue_depth", J.Int (Queue.depth ctx.queue));
         ("queue_capacity", J.Int (Queue.capacity ctx.queue));
         ( "jobs",
           J.Obj
             [
               ("queued", J.Int q);
               ("running", J.Int r);
               ("done", J.Int d);
               ("failed", J.Int f);
               ("cancelled", J.Int c);
             ] );
         ( "resident_protocols",
           J.List (List.map (fun p -> J.String p) (Cache.protocols ctx.cache)) );
       ])

let metrics ctx : Router.handler =
 fun ~params:_ _req ->
  let gauges =
    [
      ("nfc_queue_depth", float_of_int (Queue.depth ctx.queue));
      ("nfc_queue_capacity", float_of_int (Queue.capacity ctx.queue));
      ("nfc_jobs_running", float_of_int (ctx.n_running ()));
      ("nfc_workers", float_of_int ctx.n_workers);
      ("nfc_protocols_resident", float_of_int (Cache.spec_count ctx.cache));
    ]
  in
  Http.response ~content_type:"text/plain; version=0.0.4" ~status:200
    (Telemetry.render ctx.telemetry ~gauges)

let routes ctx =
  [
    Router.route "POST" "/v1/lint" (lint ctx);
    Router.route "POST" "/v1/simulate" (simulate ctx);
    Router.route "POST" "/v1/fuzz" (fuzz ctx);
    Router.route "POST" "/v1/boundness" (boundness ctx);
    Router.route "POST" "/v1/cover" (cover ctx);
    Router.route "POST" "/v1/protocols" (protocol_submit ctx);
    Router.route "GET" "/v1/protocols" (protocol_list ctx);
    Router.route "GET" "/v1/jobs/:id" (job_get ctx);
    Router.route "GET" "/v1/jobs/:id/result" (job_result ctx);
    Router.route "DELETE" "/v1/jobs/:id" (job_cancel ctx);
    Router.route "GET" "/healthz" (healthz ctx);
    Router.route "GET" "/metrics" (metrics ctx);
  ]
