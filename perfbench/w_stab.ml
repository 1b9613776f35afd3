(* stab-sweep: Nfc_stab.Converge.analyze on two inputs — the stabilizing
   ARQ at cap 2 (the pass path: one wide multi-seed corrupted-start
   sweep) and stop-and-wait at the `nfc stab` defaults (the fail path:
   the legitimate set truncates at 100k).  One op is one analysis. *)

module Explore = Nfc_mcheck.Explore
module Converge = Nfc_stab.Converge

let at_cap2 =
  let d = Converge.default_cfg in
  {
    d with
    Converge.bounds = { d.Converge.bounds with Explore.capacity_tr = 2; capacity_rt = 2 };
    (* The full corrupted product is 105840 starts; the CLI's default
       clamp of 60000 would leave SS1 undetermined. *)
    max_starts = 120_000;
  }

type input = { spec : Nfc_protocol.Spec.t; cfg : Converge.cfg; pin : Converge.report -> bool }

let pins_arq (r : Converge.report) =
  r.Converge.ss1 = Converge.Pass
  && Converge.convergence_bound r = Some 12
  && r.Converge.legit_configs = 744
  && r.Converge.starts_enumerated = 105_840
  && not r.Converge.starts_truncated

let pins_saw (r : Converge.report) =
  r.Converge.ss1 = Converge.Fail && r.Converge.legit_configs = 100_000 && not r.Converge.legit_closed

let inputs = ref [||]
let expected = ref [||]
let next = ref 0

let setup () =
  inputs :=
    [|
      { spec = Nfc_protocol.Stab_arq.make ~cap:2 (); cfg = at_cap2; pin = pins_arq };
      { spec = Nfc_protocol.Stop_and_wait.make (); cfg = Converge.default_cfg; pin = pins_saw };
    |];
  (* Bring both analyses up once at a small budget — large enough that
     the set-up time is CPU work, not the cold start of a few pages. *)
  Array.iter
    (fun i ->
      let small =
        {
          i.cfg with
          Converge.bounds = { i.cfg.Converge.bounds with Explore.max_nodes = 5_000 };
          max_starts = 5_000;
          recovery_nodes = 20_000;
        }
      in
      ignore (Converge.analyze i.spec small))
    !inputs

let render r = Nfc_util.Json.to_string (Converge.to_json r)

let validate () =
  let failed = ref 0 in
  expected :=
    Array.map
      (fun i ->
        let r = Converge.analyze i.spec i.cfg in
        if not (i.pin r) then begin
          incr failed;
          Printf.eprintf "stab verdict mismatch for %s: %s\n" r.Converge.protocol (render r)
        end;
        render r)
      !inputs;
  (Array.length !inputs, !failed)

(* Corrupted starts classified by one analysis. *)
let starts (r : Converge.report) =
  match r.Converge.ss1_convergence with Some c -> float_of_int c.Converge.seeds_analyzed | None -> 0.

let recovery_configs (r : Converge.report) =
  let explored = function Some c -> float_of_int c.Converge.explored | None -> 0. in
  explored r.Converge.ss1_convergence +. explored r.Converge.ss2_convergence

let block tr =
  let i = !next in
  next := (i + 1) mod Array.length !inputs;
  let input = !inputs.(i) and want = !expected.(i) in
  let pass_end = !next = 0 in
  let cls = Nfc_protocol.Spec.name input.spec in
  let work = ref 0. in
  let b =
    match tr with
    | None ->
        Bench.one ~cls ~pass_end (fun () ->
            let r = Converge.analyze input.spec input.cfg in
            work := starts r;
            render r = want)
    | Some tr ->
        let op = Trace.next_op tr in
        (* The legitimate-set sweep analyze starts with, called alone. *)
        let module P = (val input.spec : Nfc_protocol.Spec.S) in
        let module E = Explore.Make (P) in
        let reach =
          Trace.span tr ~op "explore" (fun () ->
              E.reachable_set { input.cfg.Converge.bounds with Explore.por = false })
        in
        Trace.count tr "explore.nodes" (float_of_int reach.E.reach_stats.Explore.nodes);
        Trace.count tr "explore.truncated" (if reach.E.truncated then 1. else 0.);
        Gc.compact ();
        Bench.one ~cls ~pass_end (fun () ->
            let r = Trace.span tr ~op "stab.analyze" (fun () -> Converge.analyze input.spec input.cfg) in
            work := starts r;
            Trace.count tr "stab.starts" (starts r);
            Trace.count tr "stab.recovery_configs" (recovery_configs r);
            render r = want)
  in
  { b with Bench.work = !work }

let layers tr =
  let legit = Trace.ms tr "explore" in
  [
    ("explore.reach_ms", legit);
    ("explore.nodes", Trace.mean_count tr "explore.nodes");
    ("explore.truncated", Trace.mean_count tr "explore.truncated");
    ("explore.gc_minor_mwords", Trace.minor_mwords tr "explore");
    ("explore.gc_major", Trace.majors tr "explore");
    ("stab.legit_ms", legit);
    ("stab.recovery_ms", Trace.ms tr "stab.analyze" -. legit);
    ("stab.starts", Trace.mean_count tr "stab.starts");
    ("stab.recovery_configs", Trace.mean_count tr "stab.recovery_configs");
    ("stab.gc_major", Trace.majors tr "stab.analyze");
  ]

let workload =
  { Bench.setup_reps = 7; setup; validate; pass_start = ignore; cross_check = (fun () -> (0, 0)); block; layers; finish = (fun () -> (0, 0)) }
