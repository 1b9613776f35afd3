(* Tests for Nfc_serve: queue/jobs/router/http units, then end-to-end
   runs against an in-process server on an ephemeral port — including
   the byte-identity contract (served results = CLI output) and the
   backpressure contract (every request ends terminal or 429). *)

module S = Nfc_serve
module J = Nfc_util.Json

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkstr = Alcotest.(check string)

(* ---------------------------------------------------------------- queue *)

let test_queue_bounded_fifo () =
  let q = S.Queue.create ~capacity:2 in
  checkb "push 1" true (S.Queue.try_push q 1);
  checkb "push 2" true (S.Queue.try_push q 2);
  checkb "push to full queue refused" false (S.Queue.try_push q 3);
  checki "depth" 2 (S.Queue.depth q);
  checkb "fifo pop" true (S.Queue.pop q = Some 1);
  checkb "slot freed" true (S.Queue.try_push q 3);
  checkb "pop 2" true (S.Queue.pop q = Some 2);
  checkb "pop 3" true (S.Queue.pop q = Some 3)

let test_queue_filter_and_close () =
  let q = S.Queue.create ~capacity:8 in
  List.iter (fun i -> ignore (S.Queue.try_push q i)) [ 1; 2; 3; 4 ];
  S.Queue.filter q (fun i -> i mod 2 = 0);
  checki "filtered depth" 2 (S.Queue.depth q);
  checkb "pop 2" true (S.Queue.pop q = Some 2);
  S.Queue.close q;
  checkb "push after close refused" false (S.Queue.try_push q 9);
  checkb "drain after close" true (S.Queue.pop q = Some 4);
  checkb "pop after drain is None" true (S.Queue.pop q = None)

let test_queue_pop_blocks_until_push () =
  let q = S.Queue.create ~capacity:2 in
  let got = ref None in
  let th = Thread.create (fun () -> got := S.Queue.pop q) () in
  Thread.delay 0.05;
  checkb "still blocked" true (!got = None);
  ignore (S.Queue.try_push q 42);
  Thread.join th;
  checkb "woke with the element" true (!got = Some 42)

(* ----------------------------------------------------------------- jobs *)

let dummy_compute ~cancelled:_ = "{}"

let test_jobs_lifecycle () =
  let t = S.Jobs.create ~ttl:60.0 () in
  let j = S.Jobs.submit t ~kind:"lint" ~protocol:"p" ~compute:dummy_compute in
  checkb "found by id" true
    (match S.Jobs.find t j.S.Jobs.id with
    | Some j' -> j' == j
    | None -> false);
  checkb "starts queued" true (j.S.Jobs.state = S.Jobs.Queued);
  checkb "running accepted" true (S.Jobs.mark_running t j);
  checkb "done" true (S.Jobs.mark_done t j "{\"ok\":true}" = S.Jobs.Done);
  let st, result, _ = S.Jobs.peek t j in
  checkb "terminal" true (S.Jobs.terminal st);
  checkb "result stored" true (result = Some "{\"ok\":true}");
  let rendered = J.to_string (S.Jobs.json t j) in
  checkb "snapshot splices the result document" true
    (let sub = {|"result":{"ok":true}|} in
     let n = String.length rendered and m = String.length sub in
     let rec go i = i + m <= n && (String.sub rendered i m = sub || go (i + 1)) in
     go 0)

let test_jobs_cancel_queued () =
  let t = S.Jobs.create ~ttl:60.0 () in
  let j = S.Jobs.submit t ~kind:"x" ~protocol:"p" ~compute:dummy_compute in
  checkb "cancel while queued" true
    (S.Jobs.request_cancel t j.S.Jobs.id = S.Jobs.Cancelled_queued);
  checkb "worker refuses it" false (S.Jobs.mark_running t j);
  let st, _, _ = S.Jobs.peek t j in
  checkb "cancelled" true (st = S.Jobs.Cancelled);
  checkb "second cancel is terminal" true
    (S.Jobs.request_cancel t j.S.Jobs.id = S.Jobs.Already_terminal)

let test_jobs_ttl_eviction () =
  let clock = ref 0.0 in
  let t = S.Jobs.create ~now:(fun () -> !clock) ~ttl:10.0 () in
  let j = S.Jobs.submit t ~kind:"x" ~protocol:"p" ~compute:dummy_compute in
  ignore (S.Jobs.mark_running t j);
  ignore (S.Jobs.mark_done t j "{}");
  clock := 5.0;
  checki "young results stay" 0 (S.Jobs.sweep t);
  clock := 20.1;
  checki "expired results evicted" 1 (S.Jobs.sweep t);
  checkb "gone" true (S.Jobs.find t j.S.Jobs.id = None)

let test_jobs_remove_undoes_registration () =
  let t = S.Jobs.create ~ttl:60.0 () in
  let j = S.Jobs.submit t ~kind:"x" ~protocol:"p" ~compute:dummy_compute in
  S.Jobs.remove t j;
  checkb "removed" true (S.Jobs.find t j.S.Jobs.id = None)

(* ---------------------------------------------------------------- cache *)

(* A raising compute memoizes nothing; a request that arrives while the
   same key computes waits and then hits; keys are per protocol. *)
let test_cache_memo () =
  let hits = ref 0 and misses = ref 0 in
  let c = S.Cache.create ~on_lookup:(fun ~hit -> incr (if hit then hits else misses)) () in
  let memo protocol doc = S.Cache.memo c ~protocol ~key:"k" (fun () -> doc) in
  (match S.Cache.memo c ~protocol:"p" ~key:"k" (fun () -> raise Exit) with
  | _ -> Alcotest.fail "the compute raised"
  | exception Exit -> ());
  checkstr "recomputed after an abort" "a" (memo "p" "a");
  checkstr "hit" "a" (memo "p" "b");
  checkstr "another protocol" "c" (memo "q" "c");
  let inside = Atomic.make false in
  let first =
    Thread.create
      (fun () ->
        ignore
          (S.Cache.memo c ~protocol:"r" ~key:"k" (fun () ->
               Atomic.set inside true;
               Thread.delay 0.1;
               "first")))
      ()
  in
  while not (Atomic.get inside) do
    Thread.yield ()
  done;
  checkstr "a duplicate waits for the compute" "first" (memo "r" "second");
  Thread.join first;
  checki "misses" 4 !misses;
  checki "hits" 2 !hits;
  Alcotest.(check (list string)) "protocols" [ "p"; "q"; "r" ] (S.Cache.protocols c)

(* --------------------------------------------------------------- router *)

let mk_request ?(meth = "GET") ?(body = "") target =
  let path = match String.index_opt target '?' with
    | Some i -> String.sub target 0 i
    | None -> target
  in
  { S.Http.meth; target; path; headers = []; body }

let test_router_dispatch () =
  let routes =
    [
      S.Router.route "GET" "/v1/jobs/:id" (fun ~params _req ->
          S.Http.response ~status:200 (List.assoc "id" params));
      S.Router.route "POST" "/v1/lint" (fun ~params:_ _req ->
          S.Http.response ~status:202 "ok");
      S.Router.route "GET" "/boom" (fun ~params:_ _req -> failwith "handler bug");
    ]
  in
  let resp = S.Router.dispatch routes (mk_request "/v1/jobs/j17") in
  checki "param route" 200 resp.S.Http.status;
  checkstr "param bound" "j17" resp.S.Http.body;
  checki "404 unknown path" 404 (S.Router.dispatch routes (mk_request "/nope")).S.Http.status;
  let r405 = S.Router.dispatch routes (mk_request "/v1/lint") in
  checki "405 wrong method" 405 r405.S.Http.status;
  checkb "allow header present" true
    (S.Http.header "allow" r405.S.Http.headers = Some "POST");
  checki "500 on escaping handler" 500 (S.Router.dispatch routes (mk_request "/boom")).S.Http.status

(* ----------------------------------------------------------------- http *)

let test_http_framing_keep_alive () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      (* Two pipelined requests in one write: the conn buffer must carry
         the second across the first read. *)
      let raw =
        "POST /v1/lint HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello"
        ^ "GET /healthz?x=1 HTTP/1.1\r\nConnection: close\r\n\r\n"
      in
      let _ = Unix.write_substring a raw 0 (String.length raw) in
      let c = S.Http.conn b in
      (match S.Http.read_request c with
      | Ok r ->
          checkstr "meth" "POST" r.S.Http.meth;
          checkstr "path" "/v1/lint" r.S.Http.path;
          checkstr "body" "hello" r.S.Http.body;
          checkb "keep-alive default" true (S.Http.wants_keep_alive r)
      | Error _ -> Alcotest.fail "first request did not parse");
      match S.Http.read_request c with
      | Ok r ->
          checkstr "second path strips query" "/healthz" r.S.Http.path;
          checkstr "target keeps query" "/healthz?x=1" r.S.Http.target;
          checkb "connection: close honoured" false (S.Http.wants_keep_alive r)
      | Error _ -> Alcotest.fail "second request did not parse")

(* ----------------------------------------------------- end-to-end server *)

let with_server ?(jobs = 2) ?(queue_depth = 16) f =
  let t =
    S.Server.start
      { S.Server.host = "127.0.0.1"; port = 0; jobs; queue_depth; result_ttl = 60.0 }
  in
  Fun.protect ~finally:(fun () -> S.Server.stop t) (fun () -> f (S.Server.port t))

(* One request on a fresh connection. *)
let request ~port ~meth ~target ?body () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      match S.Http.call (S.Http.conn fd) ~meth ~target ?body () with
      | Ok r -> r
      | Error msg -> Alcotest.failf "%s %s: %s" meth target msg)

let state_of body =
  match J.of_string body with
  | Ok j -> (match J.member "state" j with Some (J.String s) -> s | _ -> "?")
  | Error _ -> "?"

let id_of body =
  match J.of_string body with
  | Ok j -> (match J.member "id" j with Some (J.String s) -> s | _ -> Alcotest.fail "no id")
  | Error e -> Alcotest.fail e

let poll_terminal ~port id =
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec go () =
    let status, _, body = request ~port ~meth:"GET" ~target:("/v1/jobs/" ^ id) () in
    checki "poll status" 200 status;
    let st = state_of body in
    if st = "done" || st = "failed" || st = "cancelled" then st
    else if Unix.gettimeofday () > deadline then Alcotest.failf "job %s never finished" id
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let submit_ok ~port endpoint body =
  let status, _, resp = request ~port ~meth:"POST" ~target:("/v1/" ^ endpoint) ~body () in
  checki (endpoint ^ " accepted") 202 status;
  id_of resp

(* Served lint verdict = the CLI's JSONL line, byte for byte. *)
let test_e2e_lint_byte_identity () =
  with_server (fun port ->
      let id = submit_ok ~port "lint" {|{"protocol":"stop-and-wait","nodes":20000}|} in
      checkstr "terminal state" "done" (poll_terminal ~port id);
      let status, _, served =
        request ~port ~meth:"GET" ~target:("/v1/jobs/" ^ id ^ "/result") ()
      in
      checki "result status" 200 status;
      let proto = Result.get_ok (Nfc_protocol.Registry.parse "stop-and-wait") in
      let cfg =
        {
          Nfc_lint.Checks.default_config with
          Nfc_lint.Checks.bounds =
            {
              Nfc_mcheck.Explore.default_bounds with
              capacity_tr = 2;
              capacity_rt = 2;
              submit_budget = 3;
              max_nodes = 20000;
            };
        }
      in
      let expected = Nfc_lint.Report.jsonl [ Nfc_lint.Engine.run cfg proto ] in
      checkstr "byte-identical to the CLI line" expected served)

(* Served simulate metrics = `nfc simulate --json` at the same knobs. *)
let test_e2e_simulate_byte_identity () =
  with_server (fun port ->
      let id =
        submit_ok ~port "simulate" {|{"protocol":"stenning","seed":5,"messages":8}|}
      in
      checkstr "terminal state" "done" (poll_terminal ~port id);
      let status, _, served =
        request ~port ~meth:"GET" ~target:("/v1/jobs/" ^ id ^ "/result") ()
      in
      checki "result status" 200 status;
      let proto = Result.get_ok (Nfc_protocol.Registry.parse "stenning") in
      let factory =
        Result.get_ok (Nfc_channel.Policy.parse_factory "reorder:0.8:0.05")
      in
      let result =
        Nfc_sim.Harness.run proto
          {
            Nfc_sim.Harness.default_config with
            policy_tr = factory ();
            policy_rt = factory ();
            n_messages = 8;
            submit_every = 3;
            seed = 5;
            record_trace = false;
            max_rounds = 500_000;
            stall_rounds = Some 100_000;
          }
      in
      checkstr "byte-identical to the CLI line"
        (Nfc_sim.Metrics.to_json result.Nfc_sim.Harness.metrics ^ "\n")
        served)

let test_e2e_bad_requests () =
  with_server (fun port ->
      let status, _, _ =
        request ~port ~meth:"POST" ~target:"/v1/lint" ~body:"{nope" ()
      in
      checki "invalid JSON is 400" 400 status;
      let status, _, _ =
        request ~port ~meth:"POST" ~target:"/v1/lint" ~body:{|{"protocol":"zzz"}|} ()
      in
      checki "unknown protocol is 400" 400 status;
      let status, _, _ = request ~port ~meth:"POST" ~target:"/v1/lint" ~body:"{}" () in
      checki "missing protocol is 400" 400 status;
      let status, _, _ = request ~port ~meth:"GET" ~target:"/v1/jobs/j999" () in
      checki "unknown job is 404" 404 status;
      let status, _, _ = request ~port ~meth:"GET" ~target:"/v1/lint" () in
      checki "wrong method is 405" 405 status;
      let status, _, _ = request ~port ~meth:"GET" ~target:"/nope" () in
      checki "unknown path is 404" 404 status)

let test_e2e_health_and_metrics () =
  with_server (fun port ->
      let status, _, body = request ~port ~meth:"GET" ~target:"/healthz" () in
      checki "healthz" 200 status;
      (match J.of_string body with
      | Ok j ->
          checkstr "status ok"
            "ok"
            (Result.get_ok (J.get_string "status" j));
          checki "workers" 2 (Result.get_ok (J.get_int "workers" j))
      | Error e -> Alcotest.fail e);
      let id = submit_ok ~port "simulate" {|{"protocol":"stenning","messages":2}|} in
      ignore (poll_terminal ~port id);
      let status, _, metrics = request ~port ~meth:"GET" ~target:"/metrics" () in
      checki "metrics" 200 status;
      let contains sub =
        let n = String.length metrics and m = String.length sub in
        let rec go i = i + m <= n && (String.sub metrics i m = sub || go (i + 1)) in
        go 0
      in
      List.iter
        (fun series -> checkb ("exposes " ^ series) true (contains series))
        [
          "nfc_queue_depth";
          "nfc_queue_capacity";
          "nfc_jobs_running";
          "nfc_uptime_seconds";
          "nfc_http_request_seconds_bucket";
          "nfc_jobs_submitted_total{kind=\"simulate\"}";
          "nfc_job_run_seconds";
          {|path="/v1/jobs/:id"|};
        ])

(* Tiny queue + slow jobs: the overflow answers 429 + Retry-After, every
   accepted job still reaches a terminal state. *)
let test_e2e_backpressure_429 () =
  with_server ~jobs:1 ~queue_depth:1 (fun port ->
      let accepted = ref [] and rejected = ref 0 in
      for i = 1 to 20 do
        let status, headers, body =
          request ~port ~meth:"POST" ~target:"/v1/fuzz"
            ~body:
              (Printf.sprintf
                 {|{"protocol":"altbit","iterations":20000,"seed":%d}|} i)
            ()
        in
        match status with
        | 202 -> accepted := id_of body :: !accepted
        | 429 ->
            incr rejected;
            checkb "429 carries retry-after" true
              (S.Http.header "retry-after" headers <> None)
        | s -> Alcotest.failf "unexpected submit status %d" s
      done;
      checkb "some requests were accepted" true (!accepted <> []);
      checkb "queue overflow produced 429s" true (!rejected > 0);
      checki "every request accounted for" 20 (List.length !accepted + !rejected);
      List.iter
        (fun id ->
          let st = poll_terminal ~port id in
          checkb ("job " ^ id ^ " terminal") true
            (st = "done" || st = "failed" || st = "cancelled"))
        !accepted)

(* The acceptance storm: 500 sessions in flight at once against 4 worker
   domains; zero dropped — every request terminal or 429 — and nothing
   fails. *)
let test_e2e_storm_500_concurrent () =
  with_server ~jobs:4 ~queue_depth:512 (fun port ->
      let stats =
        S.Loadgen.run
          {
            S.Loadgen.default_cfg with
            S.Loadgen.port;
            requests = 500;
            concurrency = 500;
            body = {|{"protocol":"stop-and-wait","nodes":3000}|};
          }
      in
      checkb "zero dropped (terminal or 429)" true (S.Loadgen.check stats);
      checki "no failed jobs" 0 stats.S.Loadgen.failed;
      checki "queue deep enough: nothing rejected" 0 stats.S.Loadgen.rejected;
      checki "all 500 completed" 500 stats.S.Loadgen.completed)

let test_e2e_cancel_queued_job () =
  with_server ~jobs:1 ~queue_depth:8 (fun port ->
      (* Pin the single worker with a slow fuzz job, then cancel a queued
         one behind it. *)
      let slow =
        submit_ok ~port "fuzz" {|{"protocol":"altbit","iterations":100000}|}
      in
      let victim =
        submit_ok ~port "fuzz" {|{"protocol":"altbit","iterations":100000,"seed":2}|}
      in
      let status, _, body =
        request ~port ~meth:"DELETE" ~target:("/v1/jobs/" ^ victim) ()
      in
      checkb "cancel acknowledged" true (status = 200 || status = 202);
      checkb "cancelled or cancelling" true
        (let s = state_of body in
         s = "cancelled" || s = "cancelling");
      checkstr "victim ends cancelled" "cancelled" (poll_terminal ~port victim);
      ignore (poll_terminal ~port slow))

(* --------------------------------------------- user-submitted protocols *)

(* Deliberately *named* like a builtin: the cache keys submitted specs by
   content digest, so this one-packet impostor must neither poison nor
   reuse the builtin "stop-and-wait" resident context. *)
let impostor_spec =
  {|protocol "stop-and-wait" {
  describe "single self-acking packet (not the builtin)"
  packets { ping }
  sender {
    counter pending = 0
    on submit { pending += 1 }
    poll when pending > 0 -> send ping { pending -= 1 }
  }
  receiver {
    counter due = 0 saturate budget + 2
    on ping { due += 1 }
    poll when due > 0 -> deliver { due -= 1 }
  }
}
|}

let str_contains hay sub =
  let n = String.length hay and m = String.length sub in
  let rec go i = i + m <= n && (String.sub hay i m = sub || go (i + 1)) in
  m = 0 || go 0

let get_str key body =
  match J.of_string body with
  | Ok j -> (
      match J.member key j with
      | Some (J.String s) -> s
      | _ -> Alcotest.failf "no %S in %s" key body)
  | Error e -> Alcotest.fail e

let lint_cfg_20k =
  {
    Nfc_lint.Checks.default_config with
    Nfc_lint.Checks.bounds =
      {
        Nfc_mcheck.Explore.default_bounds with
        capacity_tr = 2;
        capacity_rt = 2;
        submit_budget = 3;
        max_nodes = 20000;
      };
  }

let test_e2e_protocol_submission () =
  with_server (fun port ->
      (* Raw .nfc source -> 201 created, digest handle. *)
      let status, _, body =
        request ~port ~meth:"POST" ~target:"/v1/protocols" ~body:impostor_spec ()
      in
      checki "created" 201 status;
      let handle = get_str "handle" body in
      checkb "digest handle" true
        (String.length handle = 4 + 32 && String.sub handle 0 4 = "pdl:");
      checkstr "declared name" "stop-and-wait" (get_str "protocol" body);
      (* The compile-time static gate attaches its symbolic report. *)
      checkb "static report attached" true (str_contains body {|"static":|});
      checkb "static verdicts present" true
        (str_contains body {|"rule":"H1","verdict":"pass"|});
      (* Idempotent resubmission -> 200 cached, same handle. *)
      let status2, _, body2 =
        request ~port ~meth:"POST" ~target:"/v1/protocols" ~body:impostor_spec ()
      in
      checki "cached" 200 status2;
      checkstr "same handle" handle (get_str "handle" body2);
      (* The JSON envelope lands on the same source digest. *)
      let envelope = J.to_string (J.Obj [ ("spec", J.String impostor_spec) ]) in
      let status3, _, body3 =
        request ~port ~meth:"POST" ~target:"/v1/protocols" ~body:envelope ()
      in
      checki "envelope cached" 200 status3;
      checkstr "envelope handle" handle (get_str "handle" body3);
      (* GET lists builtins and the submitted handle. *)
      let lstatus, _, listing = request ~port ~meth:"GET" ~target:"/v1/protocols" () in
      checki "listing" 200 lstatus;
      checkb "lists the handle" true (str_contains listing handle);
      checkb "lists builtins" true (str_contains listing "stenning");
      (* Lint through the handle = Engine.run on the compiled spec, byte
         for byte — and distinct from the builtin's verdict even though
         the submitted spec names itself "stop-and-wait". *)
      let lint_body proto = Printf.sprintf {|{"protocol":%S,"nodes":20000}|} proto in
      let id = submit_ok ~port "lint" (lint_body handle) in
      checkstr "terminal state" "done" (poll_terminal ~port id);
      let _, _, served =
        request ~port ~meth:"GET" ~target:("/v1/jobs/" ^ id ^ "/result") ()
      in
      let compiled =
        match Nfc_pdl.Pdl.compile_string impostor_spec with
        | Ok c -> c.Nfc_pdl.Pdl.spec
        | Error _ -> Alcotest.fail "the impostor spec must compile"
      in
      let expected = Nfc_lint.Report.jsonl [ Nfc_lint.Engine.run lint_cfg_20k compiled ] in
      checkstr "byte-identical to the compiled spec's verdict" expected served;
      let id2 = submit_ok ~port "lint" (lint_body "stop-and-wait") in
      checkstr "terminal state" "done" (poll_terminal ~port id2);
      let _, _, builtin =
        request ~port ~meth:"GET" ~target:("/v1/jobs/" ^ id2 ^ "/result") ()
      in
      checkb "does not shadow the builtin" true (builtin <> served);
      (* Submission telemetry. *)
      let _, _, metrics = request ~port ~meth:"GET" ~target:"/metrics" () in
      checkb "created counter" true
        (str_contains metrics {|nfc_protocol_submissions_total{outcome="created"} 1|});
      checkb "cached counter" true
        (str_contains metrics {|nfc_protocol_submissions_total{outcome="cached"} 2|});
      checkb "resident gauge" true (str_contains metrics "nfc_protocols_resident 1"))

(* The counter [nfc_cache_requests_total{result=...}] as /metrics shows it. *)
let cache_requests ~port result =
  let _, _, metrics = request ~port ~meth:"GET" ~target:"/metrics" () in
  let prefix = Printf.sprintf {|nfc_cache_requests_total{result="%s"} |} result in
  let n = String.length prefix in
  List.fold_left
    (fun acc line ->
      if String.length line > n && String.sub line 0 n = prefix then
        int_of_string (String.sub line n (String.length line - n))
      else acc)
    0
    (String.split_on_char '\n' metrics)

let served ~port endpoint body =
  let id = submit_ok ~port endpoint body in
  checkstr (endpoint ^ " terminal state") "done" (poll_terminal ~port id);
  let status, _, doc = request ~port ~meth:"GET" ~target:("/v1/jobs/" ^ id ^ "/result") () in
  checki (endpoint ^ " result status") 200 status;
  doc

(* Served boundness and cover documents = the CLI entry points' JSON at
   the same parameters, for two parameter sets on one builtin and for a
   submitted handle; a repeated stab lint is a memo hit with the same
   bytes. *)
let test_e2e_boundness_cover_and_stab_memo () =
  with_server (fun port ->
      let _, _, body =
        request ~port ~meth:"POST" ~target:"/v1/protocols" ~body:impostor_spec ()
      in
      let handle = get_str "handle" body in
      let builtin = Result.get_ok (Nfc_protocol.Registry.parse "stop-and-wait") in
      let compiled =
        match Nfc_pdl.Pdl.compile_string impostor_spec with
        | Ok c -> c.Nfc_pdl.Pdl.spec
        | Error _ -> Alcotest.fail "the impostor spec must compile"
      in
      let doc j = J.to_string j ^ "\n" in
      List.iter
        (fun (name, proto, capacity, submits, nodes) ->
          let explore =
            {
              Nfc_mcheck.Explore.default_bounds with
              capacity_tr = capacity;
              capacity_rt = capacity;
              submit_budget = submits;
              max_nodes = nodes;
            }
          in
          checkstr
            (Printf.sprintf "%s boundness c%d s%d n%d" name capacity submits nodes)
            (doc
               (Nfc_mcheck.Boundness.to_json
                  (Nfc_mcheck.Boundness.measure proto ~explore
                     ~probe:Nfc_mcheck.Boundness.default_probe_bounds)))
            (served ~port "boundness"
               (Printf.sprintf {|{"protocol":%S,"capacity":%d,"submits":%d,"nodes":%d}|} name
                  capacity submits nodes)))
        [
          ("stop-and-wait", builtin, 2, 2, 3000);
          ("stop-and-wait", builtin, 1, 3, 5000);
          (handle, compiled, 2, 2, 3000);
        ];
      List.iter
        (fun (name, proto, submits, nodes) ->
          checkstr
            (Printf.sprintf "%s cover s%d n%d" name submits nodes)
            (doc
               (Nfc_absint.Cover.stats_to_json
                  (Nfc_absint.Cover.run proto ~submit_budget:submits ~max_nodes:nodes)))
            (served ~port "cover"
               (Printf.sprintf {|{"protocol":%S,"submits":%d,"nodes":%d}|} name submits nodes)))
        [
          ("stop-and-wait", builtin, 2, 50_000);
          ("stop-and-wait", builtin, 3, 50_000);
          (handle, compiled, 3, 50_000);
        ];
      (* A plain lint at the same bounds first: [stab] must be part of
         the key, or the stab lint would hit this result. *)
      ignore (served ~port "lint" {|{"protocol":"stop-and-wait","nodes":20000}|});
      let stab_lint = {|{"protocol":"stop-and-wait","nodes":20000,"stab":true}|} in
      let hits = cache_requests ~port "hit" in
      let first = served ~port "lint" stab_lint in
      checki "first stab lint misses" hits (cache_requests ~port "hit");
      let expected =
        Nfc_lint.Report.jsonl
          [ Nfc_lint.Stab_tier.apply builtin (Nfc_lint.Engine.run lint_cfg_20k builtin) ]
      in
      checkstr "stab lint byte-identical to the CLI line" expected first;
      checkb "the stab tier ran" true (str_contains first {|"rule":"SS1"|});
      let second = served ~port "lint" stab_lint in
      checki "second stab lint hits" (hits + 1) (cache_requests ~port "hit");
      checkstr "the hit serves the same bytes" first second;
      let _, _, health = request ~port ~meth:"GET" ~target:"/healthz" () in
      checkb "resident protocols" true
        (str_contains health
           (Printf.sprintf {|"resident_protocols":["%s","stop-and-wait"]|} handle)))

(* Cancelling a running cover lands mid-fixpoint: on a one-worker
   server the flood cover (which runs to its 200k-node cap) ends
   [cancelled], and since the aborted run memoized nothing, resubmitting
   it is a memo miss, not a hit. *)
let test_e2e_cancel_running_cover () =
  with_server ~jobs:1 (fun port ->
      let body = {|{"protocol":"flood"}|} in
      let rec wait_for what deadline cond =
        if not (cond ()) then begin
          if Unix.gettimeofday () > deadline then Alcotest.failf "timed out waiting for %s" what;
          Thread.delay 0.01;
          wait_for what deadline cond
        end
      in
      (* Submit, and wait until the job has consulted the memo, i.e. is
         inside the analysis. *)
      let start_cover () =
        let misses = cache_requests ~port "miss" and hits = cache_requests ~port "hit" in
        let id = submit_ok ~port "cover" body in
        wait_for "the memo lookup" (Unix.gettimeofday () +. 30.0) (fun () ->
            cache_requests ~port "miss" > misses || cache_requests ~port "hit" > hits);
        (id, misses, hits)
      in
      let cancel id =
        let status, _, _ = request ~port ~meth:"DELETE" ~target:("/v1/jobs/" ^ id) () in
        checkb "cancel acknowledged" true (status = 200 || status = 202);
        checkstr "ends cancelled" "cancelled" (poll_terminal ~port id)
      in
      let first, misses, hits = start_cover () in
      checki "first cover misses" (misses + 1) (cache_requests ~port "miss");
      cancel first;
      let again, misses, _ = start_cover () in
      checki "resubmission misses" (misses + 1) (cache_requests ~port "miss");
      checki "resubmission is no hit" hits (cache_requests ~port "hit");
      cancel again)

let test_e2e_protocol_submission_errors () =
  with_server (fun port ->
      (* Uncompilable spec -> 400 with located diagnostics: a parse error,
         and a range whose width overflows native ints. *)
      List.iter
        (fun src ->
          let status, _, body = request ~port ~meth:"POST" ~target:"/v1/protocols" ~body:src () in
          checki "compile error" 400 status;
          match J.of_string body with
          | Ok j -> (
              match J.member "diagnostics" j with
              | Some (J.List (d :: _)) ->
                  checkb "line present" true (J.member "line" d <> None);
                  checkb "col present" true (J.member "col" d <> None)
              | _ -> Alcotest.fail "expected a non-empty diagnostics array")
          | Error e -> Alcotest.fail e)
        [
          "protocol \"x\" {";
          {|protocol "x" {
  packets { ping }
  sender {
    var x : -4611686018427387903 .. 4611686018427387903 = 0
    poll -> send ping
  }
  receiver { on ping }
}
|};
        ];
      (* Oversized source -> 413, counted as too_large. *)
      let status, _, _ =
        request ~port ~meth:"POST" ~target:"/v1/protocols"
          ~body:(String.make (70 * 1024) 'x') ()
      in
      checki "too large" 413 status;
      (* Unknown handle in a job submission -> 400 with a pointer at the
         submission endpoint. *)
      let status, _, body =
        request ~port ~meth:"POST" ~target:"/v1/lint"
          ~body:{|{"protocol":"pdl:deadbeefdeadbeefdeadbeefdeadbeef"}|} ()
      in
      checki "unknown handle" 400 status;
      checkb "explains the handle" true
        (str_contains body "submit the spec via POST /v1/protocols");
      (* file: sources are a CLI affordance, not a service one. *)
      let status, _, body =
        request ~port ~meth:"POST" ~target:"/v1/boundness"
          ~body:{|{"protocol":"file:/etc/passwd"}|} ()
      in
      checki "file refused" 400 status;
      checkb "explains the refusal" true (str_contains body "not served");
      let _, _, metrics = request ~port ~meth:"GET" ~target:"/metrics" () in
      checkb "too_large counter" true
        (str_contains metrics {|nfc_protocol_submissions_total{outcome="too_large"} 1|}))

let test_e2e_did_you_mean_400 () =
  with_server (fun port ->
      (* A near-miss builtin name comes back as a 400 whose body carries
         the registry's Levenshtein suggestion. *)
      let status, _, body =
        request ~port ~meth:"POST" ~target:"/v1/lint"
          ~body:{|{"protocol":"stop-and-wiat"}|} ()
      in
      checki "near-miss name is 400" 400 status;
      checkb "body suggests a correction" true (str_contains body "did you mean");
      checkb "body names the builtin" true (str_contains body "stop-and-wait");
      (* So does a typo'd file: scheme — "file" sits in the suggestion
         pool even though the service refuses real file: sources. *)
      let status, _, body =
        request ~port ~meth:"POST" ~target:"/v1/lint"
          ~body:{|{"protocol":"fiel:spec.nfc"}|} ()
      in
      checki "scheme typo is 400" 400 status;
      checkb "body suggests file" true (str_contains body {|did you mean \"file\"|}))

let suite =
  [
    ("queue bounded fifo", `Quick, test_queue_bounded_fifo);
    ("queue filter and close", `Quick, test_queue_filter_and_close);
    ("queue pop blocks", `Quick, test_queue_pop_blocks_until_push);
    ("jobs lifecycle", `Quick, test_jobs_lifecycle);
    ("jobs cancel queued", `Quick, test_jobs_cancel_queued);
    ("jobs ttl eviction", `Quick, test_jobs_ttl_eviction);
    ("jobs remove", `Quick, test_jobs_remove_undoes_registration);
    ("router dispatch", `Quick, test_router_dispatch);
    ("http framing keep-alive", `Quick, test_http_framing_keep_alive);
    ("e2e lint byte identity", `Quick, test_e2e_lint_byte_identity);
    ("e2e simulate byte identity", `Quick, test_e2e_simulate_byte_identity);
    ("e2e bad requests", `Quick, test_e2e_bad_requests);
    ("e2e health and metrics", `Quick, test_e2e_health_and_metrics);
    ("e2e backpressure 429", `Quick, test_e2e_backpressure_429);
    ("e2e storm 500 concurrent", `Slow, test_e2e_storm_500_concurrent);
    ("e2e cancel queued job", `Quick, test_e2e_cancel_queued_job);
    ("e2e protocol submission", `Quick, test_e2e_protocol_submission);
    ("e2e protocol submission errors", `Quick, test_e2e_protocol_submission_errors);
    ("e2e did-you-mean 400", `Quick, test_e2e_did_you_mean_400);
    ("cache memo", `Quick, test_cache_memo);
    ("e2e boundness, cover and stab memo", `Quick, test_e2e_boundness_cover_and_stab_memo);
    ("e2e cancel running cover", `Quick, test_e2e_cancel_running_cover);
  ]
