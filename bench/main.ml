(* Benchmark harness.

   Running `dune exec bench/main.exe` does two things:

   1. Regenerates the paper's evaluation — every experiment table of
      DESIGN.md section 4 (Figure 1, E-T21, E-T31a/b, E-T41, E-T51a/b/c) —
      in quick mode by default; set NFC_BENCH_FULL=1 for the full-size
      sweeps.

   2. Times the substrate and the experiment kernels with Bechamel (one
      Test.make per row below), including the DESIGN.md section 5 ablation
      of the multiset-backed channel against a naive list-backed one.

   With `-- --json` it prints only the Bechamel estimates and the engine
   ablation (hashed engine vs tree reference) as one JSON object.  The
   end-to-end timings (lint, stab, PDL, the service) come from
   perfbench/run.py, which repeats its runs and reports medians. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------ ablation *)

(* Naive list-backed channel (the representation DESIGN.md section 5.1
   rejects): send is O(1), delivering a uniformly random in-transit packet
   is O(n).  The ablation bench holds ~[size] packets in transit. *)
module List_channel = struct
  type t = { mutable packets : int list; mutable len : int }

  let create () = { packets = []; len = 0 }

  let send t p =
    t.packets <- p :: t.packets;
    t.len <- t.len + 1

  let deliver_random t rng =
    if t.len = 0 then None
    else begin
      let i = Nfc_util.Rng.int rng t.len in
      let rec take acc j = function
        | [] -> None
        | x :: rest ->
            if j = i then begin
              t.packets <- List.rev_append acc rest;
              t.len <- t.len - 1;
              Some x
            end
            else take (x :: acc) (j + 1) rest
      in
      take [] 0 t.packets
    end
end

let bench_transit_multiset size =
  Test.make
    ~name:(Printf.sprintf "channel/multiset(%d)" size)
    (Staged.stage (fun () ->
         let t = Nfc_channel.Transit.create () in
         let rng = Nfc_util.Rng.of_int 1 in
         for i = 0 to size - 1 do
           ignore (Nfc_channel.Transit.send t (i mod 8))
         done;
         for _ = 0 to size - 1 do
           ignore (Nfc_channel.Transit.deliver_random t rng)
         done))

let bench_transit_list size =
  Test.make
    ~name:(Printf.sprintf "channel/list-ablation(%d)" size)
    (Staged.stage (fun () ->
         let t = List_channel.create () in
         let rng = Nfc_util.Rng.of_int 1 in
         for i = 0 to size - 1 do
           List_channel.send t (i mod 8)
         done;
         for _ = 0 to size - 1 do
           ignore (List_channel.deliver_random t rng)
         done))

(* ----------------------------------------------------------- substrate *)

let bench_rng =
  Test.make ~name:"util/rng-1k-ints"
    (Staged.stage (fun () ->
         let rng = Nfc_util.Rng.of_int 7 in
         for _ = 1 to 1000 do
           ignore (Nfc_util.Rng.int rng 100)
         done))

let bench_multiset =
  Test.make ~name:"util/multiset-1k-ops"
    (Staged.stage (fun () ->
         let module M = Nfc_util.Multiset.Int in
         let m = ref M.empty in
         for i = 1 to 1000 do
           m := M.add (i mod 16) !m
         done;
         for i = 1 to 1000 do
           match M.remove_one (i mod 16) !m with Some m' -> m := m' | None -> ()
         done))

let bench_hoeffding =
  Test.make ~name:"stats/hoeffding-tails"
    (Staged.stage (fun () ->
         for n = 1 to 200 do
           ignore (Nfc_stats.Hoeffding.lower_tail ~n ~q:0.5 ~alpha:0.25)
         done))

let bench_binomial =
  Test.make ~name:"stats/binomial-cdf-n100"
    (Staged.stage (fun () -> ignore (Nfc_stats.Binomial.cdf ~n:100 ~p:0.3 50)))

(* ------------------------------------------------------ sim + protocols *)

let harness_run proto policy n seed =
  let result =
    Nfc_sim.Harness.run proto
      {
        Nfc_sim.Harness.default_config with
        policy_tr = policy ();
        policy_rt = policy ();
        n_messages = n;
        seed;
        max_rounds = 200_000;
        stall_rounds = Some 50_000;
      }
  in
  ignore result

let bench_harness_stenning =
  Test.make ~name:"sim/stenning-reorder-n10"
    (Staged.stage (fun () ->
         harness_run (Nfc_protocol.Stenning.make ())
           (fun () -> Nfc_channel.Policy.uniform_reorder ~deliver:0.8 ~drop:0.05)
           10 3))

let bench_harness_afek3 =
  Test.make ~name:"sim/afek3-prob-n8"
    (Staged.stage (fun () ->
         harness_run (Nfc_protocol.Afek3.make ())
           (fun () -> Nfc_channel.Policy.probabilistic ~q:0.3 ())
           8 3))

let bench_harness_gbn_delayed =
  Test.make ~name:"sim/go-back-8-delayed-n20"
    (Staged.stage (fun () ->
         harness_run
           (Nfc_protocol.Go_back_n.make ~window:8 ~timeout:30 ())
           (fun () -> Nfc_channel.Policy.fifo_delayed ~latency:10 ~loss:0.1 ())
           20 3))

let bench_vlink =
  Test.make ~name:"transport/vlink-stenning-n8"
    (Staged.stage (fun () ->
         let link ~seed =
           Nfc_transport.Vlink.create ~protocol:(Nfc_protocol.Stenning.make ())
             ~policy_tr:(Nfc_channel.Policy.uniform_reorder ~deliver:0.7 ~drop:0.1)
             ~policy_rt:(Nfc_channel.Policy.uniform_reorder ~deliver:0.7 ~drop:0.1)
             ~seed ()
         in
         ignore
           (Nfc_transport.Stack.run ~transport:(Nfc_protocol.Stenning.make ()) ~link
              { Nfc_transport.Stack.default_config with max_rounds = 100_000 })))

let bench_harness_flood =
  Test.make ~name:"sim/flood-fifo-n6"
    (Staged.stage (fun () ->
         harness_run (Nfc_protocol.Flood.make ())
           (fun () -> Nfc_channel.Policy.fifo_reliable)
           6 3))

(* ---------------------------------------------- experiment kernels (one
   Test.make per theorem, quick-sized) *)

let bench_t21_boundness =
  Test.make ~name:"t21/boundness-altbit"
    (Staged.stage (fun () ->
         ignore
           (Nfc_mcheck.Boundness.measure
              (Nfc_protocol.Alternating_bit.make ~timeout:2 ())
              ~explore:
                {
                  Nfc_mcheck.Explore.capacity_tr = 2;
                  capacity_rt = 2;
                  submit_budget = 2;
                  max_nodes = 5_000;
                  allow_drop = true;
                  por = false;
                }
              ~probe:Nfc_mcheck.Boundness.default_probe_bounds)))

let bench_t31_mcheck =
  Test.make ~name:"t31/mcheck-altbit-phantom"
    (Staged.stage (fun () ->
         ignore
           (Nfc_mcheck.Explore.find_phantom
              (Nfc_protocol.Alternating_bit.make ~timeout:2 ())
              {
                Nfc_mcheck.Explore.capacity_tr = 2;
                capacity_rt = 2;
                submit_budget = 3;
                max_nodes = 100_000;
                allow_drop = true;
                por = false;
              })))

let bench_t31_adversary =
  Test.make ~name:"t31/adversary-flood"
    (Staged.stage (fun () ->
         ignore
           (Nfc_core.Adversary_m.attack ~max_messages:4 ~probe_nodes:50_000
              (Nfc_protocol.Flood.make ~base:1 ~ratio:2.0 ()))))

let bench_t41_measure =
  Test.make ~name:"t41/measure-afek3-l64"
    (Staged.stage (fun () ->
         ignore (Nfc_core.Adversary_p.measure ~l:64 ~per_epoch:64 (Nfc_protocol.Afek3.make ()))))

let bench_t51_growth =
  Test.make ~name:"t51/dominant-growth-n60"
    (Staged.stage (fun () ->
         ignore
           (Nfc_core.Prob_experiment.dominant_growth (Nfc_util.Rng.of_int 5) ~q:0.3 ~n:60
              ~m0:20)))

let bench_t51_run =
  Test.make ~name:"t51/flood-prob-n6"
    (Staged.stage (fun () ->
         ignore
           (Nfc_core.Prob_experiment.packets_for (Nfc_protocol.Flood.make ()) ~q:0.3 ~n:6
              ~seed:9)))

(* ------------------------- engine ablation: hashed vs tree reference *)

(* DESIGN.md section 5's state-space ablation, measured: the hashed
   interned engine ({!Nfc_mcheck.Explore.Make}) against the retained
   balanced-tree engine ({!Nfc_mcheck.Reference}) on the identical
   exploration.  Each run pays the full engine lifecycle (fresh intern and
   memo tables — exactly what one lint/boundness invocation costs). *)
let engine_bounds =
  {
    Nfc_mcheck.Explore.capacity_tr = 2;
    capacity_rt = 2;
    submit_budget = 3;
    max_nodes = 15_000;
    allow_drop = true;
    por = false;
  }

let bench_engine_hashed proto =
  let module P = (val proto : Nfc_protocol.Spec.S) in
  Test.make
    ~name:(Printf.sprintf "engine/hashed/%s" P.name)
    (Staged.stage (fun () ->
         let module E = Nfc_mcheck.Explore.Make (P) in
         ignore (E.reachable_set engine_bounds)))

let bench_engine_tree proto =
  let module P = (val proto : Nfc_protocol.Spec.S) in
  Test.make
    ~name:(Printf.sprintf "engine/tree/%s" P.name)
    (Staged.stage (fun () ->
         ignore (Nfc_mcheck.Reference.reachable_set_stats proto engine_bounds)))

let engine_tests () =
  List.concat_map
    (fun p -> [ bench_engine_hashed p; bench_engine_tree p ])
    (Nfc_protocol.Registry.defaults ())

(* -------------------------------------------------------------- driver *)

let substrate_tests () =
  [
    bench_rng;
    bench_multiset;
    bench_hoeffding;
    bench_binomial;
    bench_transit_multiset 1000;
    bench_transit_list 1000;
    bench_harness_stenning;
    bench_harness_afek3;
    bench_harness_flood;
    bench_harness_gbn_delayed;
    bench_vlink;
    bench_t21_boundness;
    bench_t31_mcheck;
    bench_t31_adversary;
    bench_t41_measure;
    bench_t51_growth;
    bench_t51_run;
  ]

let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]

let analyze tests ~quota =
  let tests = Test.make_grouped ~name:"nonfifo" ~fmt:"%s %s" tests in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second quota) ~kde:(Some 10) () in
  Analyze.all ols Instance.monotonic_clock
    (Benchmark.all cfg Instance.[ monotonic_clock ] tests)

let benchmark () =
  Analyze.merge ols Instance.[ monotonic_clock ]
    [ analyze (substrate_tests () @ engine_tests ()) ~quota:0.5 ]

(* ------------------------------------------------------- JSON trajectory *)

module Json = Nfc_util.Json

let strip_group name =
  match String.index_opt name ' ' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

(* One entry per benchmark: the OLS nanoseconds-per-run estimate. *)
let estimates_of tbl =
  Hashtbl.fold
    (fun name ols acc ->
      let ns =
        match Analyze.OLS.estimates ols with Some (e :: _) -> Some e | _ -> None
      in
      (strip_group name, ns, Analyze.OLS.r_square ols) :: acc)
    tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let json_mode ~full =
  (* Engine ablation always runs (it is the trajectory's reason to exist);
     the substrate suite rides along in full mode only, keeping the CI
     smoke run under a minute. *)
  let quota = if full then 0.5 else 0.25 in
  let tests = if full then substrate_tests () @ engine_tests () else engine_tests () in
  let ests = estimates_of (analyze tests ~quota) in
  let lookup name =
    List.find_map (fun (n, ns, _) -> if n = name then ns else None) ests
  in
  let engine =
    List.filter_map
      (fun proto ->
        let module P = (val proto : Nfc_protocol.Spec.S) in
        match
          (lookup (Printf.sprintf "engine/hashed/%s" P.name),
           lookup (Printf.sprintf "engine/tree/%s" P.name))
        with
        | Some h, Some t ->
            Some
              (Json.Obj
                 [
                   ("protocol", Json.String P.name);
                   ("max_nodes", Json.Int engine_bounds.Nfc_mcheck.Explore.max_nodes);
                   ("hashed_ns_per_run", Json.Float h);
                   ("tree_ns_per_run", Json.Float t);
                   ("speedup", Json.Float (t /. h));
                 ])
        | _ -> None)
      (Nfc_protocol.Registry.defaults ())
  in
  let estimates =
    List.map
      (fun (name, ns, r2) ->
        Json.Obj
          [
            ("name", Json.String name);
            ("ns_per_run", Json.opt (fun x -> Json.Float x) ns);
            ("r_square", Json.opt (fun x -> Json.Float x) r2);
          ])
      ests
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("mode", Json.String (if full then "full" else "quick"));
            ("unit", Json.String "ns/run (bechamel OLS, monotonic clock)");
            ("estimates", Json.List estimates);
            ("engine_ablation", Json.List engine);
          ]))

let () =
  Bechamel_notty.Unit.add Instance.monotonic_clock (Measure.unit Instance.monotonic_clock)

let () =
  let full = Sys.getenv_opt "NFC_BENCH_FULL" = Some "1" in
  if Array.exists (( = ) "--json") Sys.argv then begin
    json_mode ~full;
    exit 0
  end;
  Printf.printf "=== Reproducing the paper's evaluation (%s mode) ===\n\n%!"
    (if full then "full" else "quick; set NFC_BENCH_FULL=1 for full");
  ignore (Nfc_core.Experiments.run_all ~quick:(not full) ());
  print_newline ();
  print_endline "=== Timing the substrate and experiment kernels (Bechamel) ===";
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let results = benchmark () in
  Bechamel_notty.Multiple.image_of_ols_results ~rect:window ~predictor:Measure.run results
  |> Notty_unix.eol |> Notty_unix.output_image
