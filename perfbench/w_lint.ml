(* lint-registry: Nfc_lint.Engine over every registry protocol at the
   `nfc lint` defaults, each verdict rendered with Report.jsonl.  One op
   is one protocol's verdict; a pass is the whole registry. *)

module Explore = Nfc_mcheck.Explore
module Boundness = Nfc_mcheck.Boundness
module Checks = Nfc_lint.Checks
module Engine = Nfc_lint.Engine

(* `nfc lint` defaults: capacity 2, submits 3, 100k nodes, jobs 1,
   engine domains 1, no POR. *)
let cfg =
  {
    Checks.default_config with
    Checks.bounds =
      {
        Explore.capacity_tr = 2;
        capacity_rt = 2;
        submit_budget = 3;
        max_nodes = 100_000;
        allow_drop = true;
        por = false;
      };
  }

(* The verdict facts the paper's questions turn on, per protocol: the
   rules that fired with their severities, the header census, the
   Theorem 2.1 state counts, the measured boundness and exhausted
   probes, and truncation. *)
let facts (r : Engine.result) =
  let c = r.Engine.certificate in
  Printf.sprintf "%s [%s] headers=%d kt=%d kr=%d b=%s exhausted=%d truncated=%b" r.Engine.protocol
    (String.concat " "
       (List.map
          (fun (d : Nfc_lint.Diagnostic.t) ->
            d.Nfc_lint.Diagnostic.rule ^ ":"
            ^ Nfc_lint.Diagnostic.severity_to_string d.Nfc_lint.Diagnostic.severity)
          r.Engine.diagnostics))
    (List.length c.Nfc_lint.Certificate.alphabet_tr + List.length c.Nfc_lint.Certificate.alphabet_rt)
    c.Nfc_lint.Certificate.k_t c.Nfc_lint.Certificate.k_r
    (match c.Nfc_lint.Certificate.measured_boundness with Some b -> string_of_int b | None -> "none")
    c.Nfc_lint.Certificate.probes_exhausted c.Nfc_lint.Certificate.truncated

let pinned =
  [
    "stop-and-wait [H1:info B1:info T1:info] headers=2 kt=25 kr=123 b=1 exhausted=0 truncated=true";
    "alternating-bit [H1:info B1:info Q1:warning] headers=4 kt=42 kr=1789 b=2 exhausted=0 truncated=true";
    "stab-arq(cap=1) [H1:info B1:info] headers=6 kt=15 kr=17 b=none exhausted=279 truncated=false";
    "stenning [H1:info B1:info] headers=6 kt=52 kr=2363 b=2 exhausted=0 truncated=true";
    "go-back-4 [H1:info B1:info] headers=6 kt=95 kr=544 b=2 exhausted=0 truncated=true";
    "selective-repeat-4 [H1:info B1:info] headers=6 kt=192 kr=2146 b=2 exhausted=0 truncated=true";
    "flood(b=1,r=2.00) [H1:info B1:info] headers=4 kt=21 kr=14 b=none exhausted=305 truncated=false";
    "afek3 [H1:info B1:info] headers=6 kt=2153 kr=379 b=1 exhausted=0 truncated=true";
  ]

let specs = ref [||]
let expected = ref [||]
let next = ref 0

let setup () =
  specs := Array.of_list (Nfc_protocol.Registry.defaults ());
  (* Bring every protocol's engine up once at a token budget. *)
  let tiny =
    {
      cfg with
      Checks.bounds = { cfg.Checks.bounds with Explore.max_nodes = 1_000 };
      max_probes = 4;
    }
  in
  Array.iter (fun p -> ignore (Engine.run tiny p)) !specs

let verdict p = Nfc_lint.Report.jsonl [ Engine.run cfg p ]

let validate () =
  let results = Array.map (Engine.run cfg) !specs in
  expected := Array.map (fun r -> Nfc_lint.Report.jsonl [ r ]) results;
  let failed = ref 0 in
  Array.iter
    (fun r ->
      let f = facts r in
      let name = r.Engine.protocol in
      match List.find_opt (fun p -> String.starts_with ~prefix:(name ^ " [") p) pinned with
      | Some p when p = f -> ()
      | Some p ->
          incr failed;
          Printf.eprintf "lint verdict mismatch:\n  got  %s\n  want %s\n" f p
      | None ->
          incr failed;
          Printf.eprintf "lint: no pinned verdict for %s (got %s)\n" name f)
    results;
  (Array.length results, !failed)

(* The layer probes of a traced op: the exploration and the boundness
   measurement lint runs internally, called the same way through their
   public functions, outside the op's own span. *)
let probe tr ~op p =
  let module P = (val p : Nfc_protocol.Spec.S) in
  let module B = Boundness.Make (P) in
  let reach = Trace.span tr ~op "explore" (fun () -> B.E.reachable_set cfg.Checks.bounds) in
  Trace.count tr "explore.nodes" (float_of_int reach.B.E.reach_stats.Explore.nodes);
  Trace.count tr "explore.truncated" (if reach.B.E.truncated then 1. else 0.);
  let rep =
    Trace.span tr ~op "boundness" (fun () ->
        B.measure ~max_probes:cfg.Checks.max_probes ~reach ~explore:cfg.Checks.bounds
          ~probe_bounds:cfg.Checks.probe ())
  in
  let probes = rep.Boundness.semi_valid_configs - rep.Boundness.probes_skipped in
  Trace.count tr "boundness.probes" (float_of_int probes);
  Trace.count tr "boundness.probes_exhausted" (float_of_int rep.Boundness.probes_exhausted)

let block tr =
  let i = !next in
  next := (i + 1) mod Array.length !specs;
  let p = !specs.(i) in
  let want = !expected.(i) in
  let pass_end = !next = 0 in
  let cls = Nfc_protocol.Spec.name p in
  match tr with
  | None -> Bench.one ~cls ~pass_end (fun () -> verdict p = want)
  | Some tr ->
      let op = Trace.next_op tr in
      probe tr ~op p;
      Gc.compact ();
      Bench.one ~cls ~pass_end (fun () ->
          let r = Trace.span tr ~op "lint.run" (fun () -> Engine.run cfg p) in
          Trace.span tr ~op "lint.report" (fun () -> Nfc_lint.Report.jsonl [ r ]) = want)

(* The traced run's attribution check: (checks, failed). *)
let attribution = ref (0, 0)

(* The share by which explore + boundness, called alone, may exceed the
   Engine.run they are attributed to: the two halves of a traced op run
   a moment apart, so the host's drift separates them a little. *)
let attribution_tolerance = 0.05

let layers tr =
  let explore = Trace.ms tr "explore" and boundness = Trace.ms tr "boundness" in
  let run = Trace.ms tr "lint.run" in
  let probes = Trace.counted tr "boundness.probes" in
  Printf.eprintf "lint layers per op: explore %.1f + boundness %.1f + checks %.1f = Engine.run %.1f ms\n"
    explore boundness (run -. explore -. boundness) run;
  (* The layers called alone must account for the op.  If they take
     longer than the op itself, they do more work than lint does
     inside it, and the table would misattribute the op's time: the
     traced run fails. *)
  let bad = explore +. boundness > run *. (1. +. attribution_tolerance) in
  if bad then prerr_endline "lint: explore + boundness called alone exceed Engine.run; layer attribution fails";
  attribution := (1, if bad then 1 else 0);
  [
    ("explore.reach_ms", explore);
    ("explore.nodes", Trace.mean_count tr "explore.nodes");
    ("explore.truncated", Trace.mean_count tr "explore.truncated");
    ("explore.gc_minor_mwords", Trace.minor_mwords tr "explore");
    ("explore.gc_major", Trace.majors tr "explore");
    ("boundness.measure_ms", boundness);
    ("boundness.probes", Trace.mean_count tr "boundness.probes");
    ("boundness.probes_exhausted", Trace.mean_count tr "boundness.probes_exhausted");
    ( "boundness.useful_ratio",
      if probes = 0. then 0. else 1. -. (Trace.counted tr "boundness.probes_exhausted" /. probes) );
    ("lint.checks_ms", run -. explore -. boundness);
    ("lint.report_ms", Trace.ms tr "lint.report");
  ]

let workload =
  {
    Bench.setup_reps = 5;
    setup;
    validate;
    pass_start = ignore;
    cross_check = (fun () -> (0, 0));
    block;
    layers;
    finish = (fun () -> !attribution);
  }
