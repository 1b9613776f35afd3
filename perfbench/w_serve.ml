(* serve-mixed: an in-process Nfc_serve.Server at its default config (2
   worker domains) on an ephemeral port, driven as a closed loop by one
   keep-alive client — callers such as CI scripts wait for their
   verdict before sending the next request.  One client keeps the
   runnable threads within two cores: with two, each client's session
   times took in the other's costly lints and the host's scheduling,
   and the hits' 90th percentile moved by up to a third between runs.

   The sessions are the two lint requests of the repository's recorded
   service caller, scripts/serve_smoke.sh, both at its 20000-node
   budget:

   - a registry lint of stop-and-wait, already cached: a hit;
   - a spec check: POST the spec's source to /v1/protocols, then lint
     the returned handle.  An unchanged spec gets its existing handle
     and its cached result (a hit); a changed one is a fresh handle and
     a cache miss (a write).

   A seeded deck makes half the sessions registry lints and half spec
   checks, and half the spec checks changed specs: a quarter of all
   sessions are writes.  One op is one session; its input class
   is the registry lint, an unchanged spec check, or the template of a
   changed spec.

   A pass is one server lifetime of a fixed number of sessions.  Every
   pass starts a fresh server from the same warm state, so the state the
   cache accumulates in a pass (a resident engine per changed spec,
   never evicted) is the same in every run, whatever the host's speed;
   the peak RSS, read at the end of the first pass, shows it. *)

module Server = Nfc_serve.Server
module Checks = Nfc_lint.Checks
module Explore = Nfc_mcheck.Explore

let round_seconds = 0.5

(* Variants per template: every value of the slots of four templates
   (5, 5, 9 and 36 variants) and 40 of flooding-counter's.  The two
   counter templates' writes take a few milliseconds; with few
   variants their classes had too few samples for a steady 90th
   percentile. *)
let per_template = 40

(* Polls back off from a fiftieth of the yardstick to a tenth (about
   0.5 ms to 2.5 ms on a 25 ms yardstick), as a client would that
   expects cached answers soon and long jobs late.  Polling paces the
   closed loop and so throughput, but no session's time includes it: a
   session is timed by its round trips plus the job's own
   submit-to-finish time.  Set-up and validation, which run before the
   window's first yardstick series, take the yardstick as 25 ms. *)
let poll_cap () = (if !Bench.yard_before > 0. then !Bench.yard_before else 0.025) /. 10.

(* The node budget of every lint in scripts/serve_smoke.sh. *)
let nodes = 20_000
let registry_protocol = "stop-and-wait"
let seed = ref 1
let dir = ref "perfbench/specs"

(* The lint config the service builds from {"nodes": n}. *)
let lint_cfg =
  {
    Checks.default_config with
    Checks.bounds =
      {
        Explore.capacity_tr = 2;
        capacity_rt = 2;
        submit_budget = 3;
        max_nodes = nodes;
        allow_drop = true;
        por = false;
      };
  }

let engine_verdict spec = String.trim (Nfc_lint.Report.jsonl [ Nfc_lint.Engine.run lint_cfg spec ])

type kind = Registry | Unchanged | Changed

(* The client draws from a shuffled deck of four: two registry
   lints and two spec checks, one of them on a changed spec.  That a
   CI run checks an unchanged spec as often as a changed one is an
   assumption — the recorded caller does not say; it keeps the write
   path (registration, compile, a cold engine) and the hit path both
   in every run, at a quarter and three quarters of the sessions. *)
let deck = [| Registry; Registry; Unchanged; Changed |]

(* Sessions in a pass of [writes] changed variants: as many decks as
   there are variants, so each pass changes each variant once. *)
let pass_sessions writes = Array.length deck * writes

type state = {
  server : Server.t;
  conn : Client.t;
  registry : Nfc_protocol.Spec.t;
  bases : Corpus.variant array;  (** the unchanged specs, registered and cached at set-up *)
  writes : Corpus.variant array;  (** seeded order *)
  shuffle : Random.State.t;  (** the seeded shuffle of the deck *)
  mutable hand : kind array;  (** the current deck *)
  mutable deck_pos : int;
  mutable left : int;  (** sessions left in this pass *)
  mutable nonce : int;
  mutable next_write : int;
  mutable next_base : int;
}

(* (reference key, body) of every session, across passes, to check
   after the window. *)
let served : (string * string) list ref = ref []

let st : state option ref = ref None
let get () = Option.get !st

let ok_status s = s >= 200 && s < 300

exception Bad of string

let expect_2xx what (status, body) =
  if not (ok_status status) then raise (Bad (Printf.sprintf "%s: HTTP %d %s" what status body));
  body

(* POST a spec's source; returns its handle. *)
let register c text =
  let body = expect_2xx "register" (Client.call c ~meth:"POST" ~target:"/v1/protocols" ~body:text ()) in
  match Client.field body "handle" with Some h -> h | None -> raise (Bad "register: no handle")

(* Submit a lint job, poll it to completion, fetch the result.  Returns
   the result body, the number of polls, and the session's time without
   the polling: the submit and result round trips plus the job's own
   submit-to-finish time as the service reports it ("total_ms"). *)
let lint ?tr ?op c protocol =
  let submit () =
    expect_2xx "lint"
      (Client.call c ~meth:"POST" ~target:"/v1/lint"
         ~body:(Printf.sprintf "{\"protocol\":%S,\"nodes\":%d}" protocol nodes)
         ())
  in
  let t0 = Clock.now () in
  let body =
    match (tr, op) with Some tr, Some op -> Trace.span tr ~op "serve.submit" submit | _ -> submit ()
  in
  let submit_s = Clock.since t0 in
  let id = match Client.field body "id" with Some id -> id | None -> raise (Bad "lint: no job id") in
  let polls = ref 0 in
  let cap = poll_cap () in
  let rec wait delay =
    Thread.delay delay;
    incr polls;
    let s = expect_2xx "poll" (Client.call c ~meth:"GET" ~target:("/v1/jobs/" ^ id) ()) in
    match Client.field s "state" with
    | Some "done" -> s
    | Some ("queued" | "running") -> wait (Float.min cap (2. *. delay))
    | _ -> raise (Bad ("job ended: " ^ s))
  in
  let job = wait (cap /. 5.) in
  let observed_s = Clock.since t0 in
  (* The job's time is the service's own report; it must fit between
     the submit request's start and the poll that saw the job done. *)
  let job_s =
    match Client.number job "total_ms" with
    | Some ms when ms >= 0. && ms /. 1000. <= observed_s -> ms /. 1000.
    | _ -> raise (Bad ("job time out of range: " ^ job))
  in
  let result, result_s =
    Clock.time (fun () -> expect_2xx "result" (Client.call c ~meth:"GET" ~target:("/v1/jobs/" ^ id ^ "/result") ()))
  in
  (String.trim result, !polls, submit_s +. job_s +. result_s)

let setup () =
  (match !st with
  | Some s ->
      Client.close s.conn;
      Server.stop s.server
  | None -> ());
  let server = Server.start { Server.default_cfg with Server.port = 0 } in
  let c0 = Client.connect (Server.port server) in
  let corpus = Corpus.generate ~dir:!dir ~seed:!seed ~per_template in
  let bases = Array.of_list (List.filter (fun (v : Corpus.variant) -> v.Corpus.base) corpus) in
  let registry =
    match Nfc_protocol.Registry.parse registry_protocol with Ok spec -> spec | Error e -> failwith e
  in
  (* Register and warm the cache: from here on every registry lint and
     every unchanged spec check is a hit. *)
  ignore (lint c0 registry_protocol);
  Array.iter (fun (v : Corpus.variant) -> ignore (lint c0 (register c0 v.Corpus.text))) bases;
  let writes = Array.of_list corpus in
  Corpus.shuffle (Random.State.make [| !seed; 11 |]) writes;
  st :=
    Some
      {
        server;
        conn = c0;
        registry;
        bases;
        writes;
        shuffle = Random.State.make [| !seed; 101 |];
        hand = [||];
        deck_pos = 0;
        left = pass_sessions (Array.length writes);
        nonce = 0;
        next_write = 0;
        next_base = 0;
      }

let next_kind s =
  if s.deck_pos = 0 then begin
    let d = Array.copy deck in
    Corpus.shuffle s.shuffle d;
    s.hand <- d
  end;
  let k = s.hand.(s.deck_pos) in
  s.deck_pos <- (s.deck_pos + 1) mod Array.length deck;
  k

(* The next nonce and changed or unchanged spec, in turn. *)
let draw s kind =
  s.nonce <- s.nonce + 1;
  match kind with
  | Changed ->
      s.next_write <- (s.next_write + 1) mod Array.length s.writes;
      (s.nonce, s.next_write)
  | Unchanged ->
      s.next_base <- (s.next_base + 1) mod Array.length s.bases;
      (s.nonce, s.next_base)
  | Registry -> (s.nonce, 0)

(* One session: (class, seconds, ok). *)
let session ?tr s kind =
  let c = s.conn in
  let op = Option.map Trace.next_op tr in
  let n, idx = draw s kind in
  let key, cls, text =
    match kind with
    | Registry -> ("r", "hit:registry:" ^ registry_protocol, None)
    | Unchanged ->
        let v = s.bases.(idx) in
        ("u" ^ string_of_int idx, "hit:spec", Some v.Corpus.text)
    | Changed ->
        let v = s.writes.(idx) in
        (* A nonce comment makes every changed spec a never-seen handle,
           so its lint is a cache miss whatever came before. *)
        ( "w" ^ string_of_int idx,
          "write:" ^ v.Corpus.cls,
          Some (Printf.sprintf "%s\n// session %d-%d\n" v.Corpus.text !seed n) )
  in
  let result, wall =
    Clock.time @@ fun () ->
    try
      let protocol, register_s =
        match text with
        | None -> (registry_protocol, 0.)
        | Some text -> Clock.time (fun () -> register c text)
      in
      let body, polls, lint_s = lint ?tr ?op c protocol in
      Some (body, polls, register_s +. lint_s)
    with e ->
      prerr_endline ("serve-mixed: " ^ match e with Bad msg -> msg | e -> Printexc.to_string e);
      None
  in
  (* After the session, alone: the front end the service ran on the
     posted text. *)
  (match (tr, op, text) with
  | Some tr, Some op, Some text ->
      Trace.count tr "pdl.bytes" (float_of_int (String.length text));
      ignore (Trace.span tr ~op "pdl.parse" (fun () -> Nfc_pdl.Pdl.parse_string text));
      ignore (Trace.span tr ~op "pdl.compile" (fun () -> Nfc_pdl.Pdl.compile_string text))
  | _ -> ());
  match result with
  | Some (body, polls, seconds) ->
      Option.iter (fun tr -> Trace.count tr "serve.polls" (float_of_int polls)) tr;
      served := (key, body) :: !served;
      (cls, seconds, true)
  | None -> (cls, wall, false)

let references s key =
  let idx () = int_of_string (String.sub key 1 (String.length key - 1)) in
  let compiled text =
    match Nfc_pdl.Pdl.compile_string text with
    | Ok c -> engine_verdict c.Nfc_pdl.Pdl.spec
    | Error _ -> "<does not compile>"
  in
  match key.[0] with
  | 'r' -> engine_verdict s.registry
  | 'u' -> compiled s.bases.(idx ()).Corpus.text
  | _ -> compiled s.writes.(idx ()).Corpus.text

(* Served lint results must be byte-equal to Engine.run on the same spec
   and parameters; returns the number of mismatching sessions. *)
let check_served s =
  let l = !served in
  served := [];
  let refs = Hashtbl.create 64 in
  List.fold_left
    (fun bad (key, body) ->
      let want =
        match Hashtbl.find_opt refs key with
        | Some w -> w
        | None ->
            let w = references s key in
            Hashtbl.replace refs key w;
            w
      in
      if body = want then bad
      else begin
        Printf.eprintf "serve-mixed: served result for %s differs from Engine.run\n" key;
        bad + 1
      end)
    0 l

let validate () =
  let s = get () in
  let failed = ref 0 in
  (* One registry lint, then one spec check per unchanged spec and per
     changed variant. *)
  let kinds =
    Array.concat
      [ [| Registry |]; Array.map (fun _ -> Unchanged) s.bases; Array.map (fun _ -> Changed) s.writes ]
  in
  Array.iter
    (fun kind ->
      let _, _, ok = session s kind in
      if not ok then incr failed)
    kinds;
  let n = Array.length kinds in
  Printf.eprintf "corpus: %d write variants, digest %s\n%!" (Array.length s.writes)
    (Corpus.digest (Array.to_list s.writes));
  (n, !failed)

(* Sums of a Prometheus series' samples across label sets; cache hits
   are kept apart under "<name>:hit". *)
let scrape s =
  let _, text = Client.call s.conn ~meth:"GET" ~target:"/metrics" () in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | Some i ->
            let name = String.sub line 0 i in
            let v = float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) in
            let base = match String.index_opt name '{' with Some j -> String.sub name 0 j | None -> name in
            let key = if Client.find name "result=\"hit\"" 0 <> None then base ^ ":hit" else base in
            Option.iter (fun v -> Hashtbl.replace tbl key (v +. Option.value ~default:0. (Hashtbl.find_opt tbl key))) v
        | None -> ())
    (String.split_on_char '\n' text);
  tbl

(* The service's series over the traced half: the deltas of the servers
   whose pass is over, plus the scrape the current server's pass
   started from ([None] while untraced). *)
let traced_deltas : (string, float) Hashtbl.t = Hashtbl.create 16
let pass_scrape = ref None

let add_deltas s =
  Option.iter
    (fun before ->
      Hashtbl.iter
        (fun k v ->
          let d = v -. Option.value ~default:0. (Hashtbl.find_opt before k) in
          Hashtbl.replace traced_deltas k (d +. Option.value ~default:0. (Hashtbl.find_opt traced_deltas k)))
        (scrape s))
    !pass_scrape

(* Before every pass: a fresh server, brought to the same warm state as
   at set-up. *)
let pass_start () =
  add_deltas (get ());
  setup ();
  if Option.is_some !pass_scrape then pass_scrape := Some (scrape (get ()))

let block tr =
  let s = get () in
  (match tr with
  | Some tr when tr.Trace.ops = 0 ->
      Hashtbl.reset traced_deltas;
      pass_scrape := Some (scrape s)
  | _ -> ());
  let deadline = Int64.add (Clock.now ()) (Int64.of_float (round_seconds *. 1e9)) in
  let all = ref [] in
  while Clock.now () < deadline && s.left > 0 do
    all := session ?tr s (next_kind s) :: !all;
    s.left <- s.left - 1
  done;
  let all = !all in
  {
    Bench.samples = List.map (fun (cls, seconds, _) -> { Bench.cls; seconds }) all;
    work = float_of_int (List.length all);
    failed = List.length (List.filter (fun (_, _, ok) -> not ok) all);
    pass_end = s.left = 0;
  }

let layers tr =
  add_deltas (get ());
  pass_scrape := None;
  let d k = Option.value ~default:0. (Hashtbl.find_opt traced_deltas k) in
  let mean_ms name = let n = d (name ^ "_count") in if n = 0. then 0. else 1000. *. d (name ^ "_sum") /. n in
  let parse = Trace.ms tr "pdl.parse" in
  [
    ("pdl.parse_ms", parse);
    ("pdl.compile_ms", Trace.ms tr "pdl.compile" -. parse);
    ("pdl.bytes", Trace.mean_count tr "pdl.bytes");
    ("serve.submit_ms", Trace.ms tr "serve.submit");
    ("serve.queue_wait_ms", mean_ms "nfc_job_queue_wait_seconds");
    ("serve.run_ms", mean_ms "nfc_job_run_seconds");
    ("serve.http_ms", mean_ms "nfc_http_request_seconds");
    ("serve.polls_per_session", Trace.mean_count tr "serve.polls");
    ( "cache.hit_ratio",
      let hits = d "nfc_cache_requests_total:hit" in
      let total = hits +. d "nfc_cache_requests_total" in
      if total = 0. then 0. else hits /. total );
  ]

let finish () =
  let s = get () in
  Client.close s.conn;
  Server.stop s.server;
  st := None;
  (0, 0)

(* Untimed, after the window and the peak RSS read: every served result
   against Engine.run (its session is already counted; a mismatch fails
   it), and every changed-spec variant against the reference engine. *)
let cross_check () =
  let s = get () in
  let bad = check_served s in
  let n, failed = W_pdl.cross_check_variants (Array.to_list s.writes) in
  (n, bad + failed)

let workload = { Bench.setup_reps = 5; setup; validate; pass_start; cross_check; block; layers; finish }
