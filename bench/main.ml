(* Benchmark harness.

   Running `dune exec bench/main.exe` does two things:

   1. Regenerates the paper's evaluation — every experiment table of
      DESIGN.md section 4 (Figure 1, E-T21, E-T31a/b, E-T41, E-T51a/b/c) —
      in quick mode by default; set NFC_BENCH_FULL=1 for the full-size
      sweeps.

   2. Times the substrate and the experiment kernels with Bechamel (one
      Test.make per row below), including the DESIGN.md section 5 ablation
      of the multiset-backed channel against a naive list-backed one. *)

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

let analyze tests ~quota =
  let tests = Test.make_grouped ~name:"nonfifo" ~fmt:"%s %s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second quota) ~kde:(Some 10) () in
  let raw_results = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  (List.hd (List.map (fun instance -> Analyze.all ols instance raw_results) instances), raw_results)

let benchmark () =
  let per_instance, raw_results = analyze (substrate_tests () @ engine_tests ()) ~quota:0.5 in
  let instances = Instance.[ monotonic_clock ] in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  ignore raw_results;
  Analyze.merge ols instances [ per_instance ]

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
  let per_instance, _ = analyze tests ~quota in
  let ests = estimates_of per_instance in
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
  (* End-to-end verifier wall-clock at the old and new default node
     budgets — the headline of the perf work: the raised default must fit
     in the old budget's time. *)
  let lint_wall nodes =
    let cfg =
      {
        Nfc_lint.Checks.default_config with
        Nfc_lint.Checks.bounds =
          {
            Nfc_lint.Checks.default_config.Nfc_lint.Checks.bounds with
            Nfc_mcheck.Explore.max_nodes = nodes;
          };
      }
    in
    let t0 = Unix.gettimeofday () in
    ignore (Nfc_lint.Engine.run_registry cfg);
    Unix.gettimeofday () -. t0
  in
  let lint =
    List.map
      (fun nodes ->
        Json.Obj
          [ ("max_nodes", Json.Int nodes); ("seconds", Json.Float (lint_wall nodes)) ])
      [ 15_000; 100_000 ]
  in
  (* Cover vs explore: wall-clock and cover-set size per protocol — the
     budget-free coverability tier priced against the bounded sweep it
     rides on.  Each pair shares one engine instance, exactly as
     [lint --complete] runs them. *)
  let cover_cap = if full then 200_000 else 150_000 in
  let cover_vs_explore =
    List.map
      (fun proto ->
        let module P = (val proto : Nfc_protocol.Spec.S) in
        let module E = Nfc_mcheck.Explore.Make (P) in
        let module C = Nfc_absint.Cover.Make (P) (E) in
        let t0 = Unix.gettimeofday () in
        ignore (E.reachable_set engine_bounds);
        let t1 = Unix.gettimeofday () in
        let st =
          C.run ~max_nodes:cover_cap
            ~submit_budget:engine_bounds.Nfc_mcheck.Explore.submit_budget ()
        in
        let t2 = Unix.gettimeofday () in
        Json.Obj
          [
            ("protocol", Json.String P.name);
            ("explore_seconds", Json.Float (t1 -. t0));
            ("cover_seconds", Json.Float (t2 -. t1));
            ("cover_size", Json.Int st.Nfc_absint.Cover.cover_size);
            ("cover_omega_configs", Json.Int st.Nfc_absint.Cover.omega_configs);
            ("cover_converged", Json.Bool st.Nfc_absint.Cover.converged);
          ])
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
  (* Service throughput: an in-process [nfc serve] (4 worker domains)
     under a loadgen storm — every request must end terminal or 429, and
     the p50/p95/p99 submit-to-terminal latencies are the headline of the
     resident-cache work. *)
  let service =
    let requests = if full then 500 else 300 in
    let server =
      Nfc_serve.Server.start
        {
          Nfc_serve.Server.host = "127.0.0.1";
          port = 0;
          jobs = 4;
          queue_depth = 512;
          result_ttl = 60.0;
        }
    in
    let stats =
      Fun.protect
        ~finally:(fun () -> Nfc_serve.Server.stop server)
        (fun () ->
          Nfc_serve.Loadgen.run
            {
              Nfc_serve.Loadgen.default_cfg with
              Nfc_serve.Loadgen.port = Nfc_serve.Server.port server;
              requests;
              concurrency = requests;
              body = {|{"protocol":"stop-and-wait","nodes":3000}|};
            })
    in
    Json.Obj
      [
        ("workers", Json.Int 4);
        ("queue_depth", Json.Int 512);
        ("zero_dropped", Json.Bool (Nfc_serve.Loadgen.check stats));
        ("stats", Nfc_serve.Loadgen.json stats);
      ]
  in
  (* PDL interpreter overhead: the compiled example specs (closure
     interpreters over a value array) vs the hand-written modules they
     re-express, priced by the engine exploration that dominates every
     analysis.  The test suite asserts verdict identity; this prices the
     indirection. *)
  let pdl_interp =
    let spec_file name =
      let candidates = [ "examples/specs/" ^ name; "../examples/specs/" ^ name ] in
      match List.find_opt Sys.file_exists candidates with
      | Some p -> p
      | None -> failwith ("cannot locate examples/specs/" ^ name)
    in
    let explore proto =
      let module P = (val proto : Nfc_protocol.Spec.S) in
      let module E = Nfc_mcheck.Explore.Make (P) in
      let t0 = Unix.gettimeofday () in
      ignore (E.reachable_set engine_bounds);
      Unix.gettimeofday () -. t0
    in
    List.map
      (fun (file, hand) ->
        let compiled =
          match Nfc_pdl.Pdl.load_file (spec_file file) with
          | Ok c -> c.Nfc_pdl.Pdl.spec
          | Error msg -> failwith msg
        in
        (* One warm-up run each (allocator, interners), then measure. *)
        ignore (explore hand);
        ignore (explore compiled);
        let hand_s = explore hand in
        let pdl_s = explore compiled in
        Json.Obj
          [
            ("protocol", Json.String (Nfc_protocol.Spec.name hand));
            ("max_nodes", Json.Int engine_bounds.Nfc_mcheck.Explore.max_nodes);
            ("hand_written_seconds", Json.Float hand_s);
            ("interpreted_seconds", Json.Float pdl_s);
            ("overhead_ratio", Json.Float (pdl_s /. hand_s));
          ])
      [
        ("stop_and_wait.nfc", Nfc_protocol.Stop_and_wait.make ());
        ("alternating_bit.nfc", Nfc_protocol.Alternating_bit.make ());
      ]
  in
  (* Static tier cost: the spec-level abstract fixpoint vs the bounded
     exploration and the cover convergence it lets a caller skip.  The
     interesting ratio is orders of magnitude — the fixpoint runs in
     microseconds because it never leaves the AST — along with how much
     of the rule catalogue each example promotes to Static strength. *)
  let specint =
    let spec_file name =
      let candidates = [ "examples/specs/" ^ name; "../examples/specs/" ^ name ] in
      match List.find_opt Sys.file_exists candidates with
      | Some p -> p
      | None -> failwith ("cannot locate examples/specs/" ^ name)
    in
    List.map
      (fun file ->
        let c =
          match Nfc_pdl.Pdl.load_file (spec_file file) with
          | Ok c -> c
          | Error msg -> failwith msg
        in
        (* Warm-up, then average the microsecond-scale fixpoint over many
           runs (a single clock read would be mostly noise). *)
        ignore (Nfc_specint.Specint.analyze c.Nfc_pdl.Pdl.checked);
        let runs = 200 in
        let t0 = Unix.gettimeofday () in
        let rep = ref (Nfc_specint.Specint.analyze c.Nfc_pdl.Pdl.checked) in
        for _ = 2 to runs do
          rep := Nfc_specint.Specint.analyze c.Nfc_pdl.Pdl.checked
        done;
        let static_s = (Unix.gettimeofday () -. t0) /. float_of_int runs in
        let t0 = Unix.gettimeofday () in
        let lint_result =
          Nfc_lint.Engine.run Nfc_lint.Checks.default_config c.Nfc_pdl.Pdl.spec
        in
        let bounded_s = Unix.gettimeofday () -. t0 in
        let t0 = Unix.gettimeofday () in
        let complete_result =
          Nfc_lint.Engine.run
            { Nfc_lint.Checks.default_config with Nfc_lint.Checks.complete = true }
            c.Nfc_pdl.Pdl.spec
        in
        let cover_s = Unix.gettimeofday () -. t0 in
        ignore complete_result;
        let upgraded = Nfc_specint.Specint.apply_to_lint !rep lint_result in
        let strengths =
          upgraded.Nfc_lint.Engine.certificate.Nfc_lint.Certificate.rule_strengths
        in
        let promoted =
          List.filter (fun (_, s) -> s = Nfc_lint.Certificate.Static) strengths
        in
        Json.Obj
          [
            ("spec", Json.String file);
            ("protocol", Json.String (Nfc_protocol.Spec.name c.Nfc_pdl.Pdl.spec));
            ("static_seconds", Json.Float static_s);
            ("bounded_lint_seconds", Json.Float bounded_s);
            ("complete_lint_seconds", Json.Float cover_s);
            ( "speedup_vs_bounded",
              Json.Float (if static_s > 0. then bounded_s /. static_s else 0.) );
            ("iterations", Json.Int !rep.Nfc_specint.Specint.iterations);
            ("converged", Json.Bool !rep.Nfc_specint.Specint.converged);
            ( "rules_promoted",
              Json.List (List.map (fun (r, _) -> Json.String r) promoted) );
            ( "promoted_fraction",
              Json.Float
                (float_of_int (List.length promoted)
                /. float_of_int (List.length strengths)) );
          ])
      [ "stop_and_wait.nfc"; "alternating_bit.nfc"; "bounded_counter.nfc" ]
  in
  (* Refinement cost: the CEGAR loop priced on its two pinned witnesses.
     flooding_counter promotes (one round: candidate upheld by a bounded
     replay, re-run converges concretely); pumped_counter refutes (the
     replay finds a concrete trace past the candidate bound, R1).  The
     interesting comparison is refine wall-clock vs the bounded lint the
     promotion lets a caller skip — the replay IS a bounded search, so
     refinement costs the same order as one lint tier, not the fixpoint's
     microseconds. *)
  let refinement =
    let spec_file name =
      let candidates = [ "examples/specs/" ^ name; "../examples/specs/" ^ name ] in
      match List.find_opt Sys.file_exists candidates with
      | Some p -> p
      | None -> failwith ("cannot locate examples/specs/" ^ name)
    in
    let count_json n =
      if n = Nfc_absint.Opvec.omega then Json.String "omega" else Json.Int n
    in
    List.map
      (fun file ->
        let c =
          match Nfc_pdl.Pdl.load_file (spec_file file) with
          | Ok c -> c
          | Error msg -> failwith msg
        in
        ignore (Nfc_refine.Refine.run ~rounds:3 c.Nfc_pdl.Pdl.checked);
        let t0 = Unix.gettimeofday () in
        let res = Nfc_refine.Refine.run ~rounds:3 c.Nfc_pdl.Pdl.checked in
        let refine_s = Unix.gettimeofday () -. t0 in
        let t0 = Unix.gettimeofday () in
        ignore
          (Nfc_lint.Engine.run Nfc_lint.Checks.default_config c.Nfc_pdl.Pdl.spec);
        let bounded_s = Unix.gettimeofday () -. t0 in
        Json.Obj
          [
            ("spec", Json.String file);
            ( "base_product",
              count_json res.Nfc_refine.Refine.base.Nfc_specint.Specint.product );
            ( "refined_product",
              count_json res.Nfc_refine.Refine.report.Nfc_specint.Specint.product );
            ("rounds_used", Json.Int res.Nfc_refine.Refine.rounds_used);
            ("promoted", Json.Bool res.Nfc_refine.Refine.promoted);
            ( "refutations",
              Json.Int (List.length res.Nfc_refine.Refine.refuted) );
            ("refine_seconds", Json.Float refine_s);
            ("bounded_lint_seconds", Json.Float bounded_s);
          ])
      [ "flooding_counter.nfc"; "pumped_counter.nfc" ]
  in
  (* POR reduction, measured at capacity 4 where the sub-capacity drop
     closure is thickest.  Honest accounting: over a MULTISET channel most
     drop interleavings already collapse into one configuration, so the
     visited-set reduction is small (it counts configurations reachable
     only through a sub-capacity drop); what lazy-drop buys is pruned drop
     EDGES — less successor generation per state, hence wall-clock at the
     same node budget and a deeper frontier within it.  [comparable] marks
     pairs where neither run truncated — there the station-state
     projections and phantom existence must not move (the engine suite
     asserts this; the bench records the margin). *)
  let por_reduction =
    let pbounds =
      {
        engine_bounds with
        Nfc_mcheck.Explore.capacity_tr = 4;
        capacity_rt = 4;
        max_nodes = (if full then 60_000 else 20_000);
      }
    in
    List.map
      (fun proto ->
        let module P = (val proto : Nfc_protocol.Spec.S) in
        let run por =
          let module E = Nfc_mcheck.Explore.Make (P) in
          let t0 = Unix.gettimeofday () in
          let r = E.reachable_set { pbounds with Nfc_mcheck.Explore.por } in
          ( Unix.gettimeofday () -. t0,
            r.E.reach_stats,
            r.E.truncated,
            r.E.first_phantom = None )
        in
        let full_s, full_st, full_tr, full_nophantom = run false in
        let por_s, por_st, por_tr, por_nophantom = run true in
        let comparable = not (full_tr || por_tr) in
        Json.Obj
          [
            ("protocol", Json.String P.name);
            ("capacity", Json.Int pbounds.Nfc_mcheck.Explore.capacity_tr);
            ("max_nodes", Json.Int pbounds.Nfc_mcheck.Explore.max_nodes);
            ("full_states", Json.Int full_st.Nfc_mcheck.Explore.nodes);
            ("por_states", Json.Int por_st.Nfc_mcheck.Explore.nodes);
            ("full_seconds", Json.Float full_s);
            ("por_seconds", Json.Float por_s);
            ("speedup", Json.Float (full_s /. por_s));
            ("full_max_depth", Json.Int full_st.Nfc_mcheck.Explore.max_depth);
            ("por_max_depth", Json.Int por_st.Nfc_mcheck.Explore.max_depth);
            ( "state_reduction",
              Json.Float
                (1.
                -. float_of_int por_st.Nfc_mcheck.Explore.nodes
                   /. float_of_int (max 1 full_st.Nfc_mcheck.Explore.nodes)) );
            ("comparable", Json.Bool comparable);
            ( "verdicts_unchanged",
              if comparable then
                Json.Bool
                  (full_nophantom = por_nophantom
                  && full_st.Nfc_mcheck.Explore.sender_states
                     = por_st.Nfc_mcheck.Explore.sender_states
                  && full_st.Nfc_mcheck.Explore.receiver_states
                     = por_st.Nfc_mcheck.Explore.receiver_states)
              else Json.Null );
          ])
      (Nfc_protocol.Registry.defaults ())
  in
  (* Stabilization tier wall-clock: the full SS1/SS2 pipeline — legitimate
     sweep, corrupted-product enumeration, recovery sweep, distance
     labelling — per protocol at the tier's own bounds.  The product
     sizes contextualize the time: the cost scales with corrupted starts,
     not with |L|. *)
  let stabilization =
    List.map
      (fun spec ->
        let t0 = Unix.gettimeofday () in
        let r = Nfc_stab.Converge.analyze spec Nfc_stab.Converge.default_cfg in
        let seconds = Unix.gettimeofday () -. t0 in
        let module C = Nfc_stab.Converge in
        Json.Obj
          [
            ("protocol", Json.String r.C.protocol);
            ("legit_configs", Json.Int r.C.legit_configs);
            ("legit_closed", Json.Bool r.C.legit_closed);
            ("corrupted_starts", Json.Int r.C.starts_enumerated);
            ("ss1", Json.String (C.verdict_to_string r.C.ss1));
            ( "ss1_bound",
              match C.convergence_bound r with Some b -> Json.Int b | None -> Json.Null );
            ("ss2", Json.String (C.verdict_to_string r.C.ss2));
            ("seconds", Json.Float seconds);
          ])
      [
        Nfc_protocol.Stab_arq.make ();
        Nfc_protocol.Alternating_bit.make ();
        Nfc_protocol.Stop_and_wait.make ();
      ]
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("bench", Json.String "BENCH_10");
            ("mode", Json.String (if full then "full" else "quick"));
            ("unit", Json.String "ns/run (bechamel OLS, monotonic clock)");
            ("estimates", Json.List estimates);
            ("engine_ablation", Json.List engine);
            ("por_reduction", Json.List por_reduction);
            ("lint_registry_wall_clock", Json.List lint);
            ("cover_vs_explore", Json.List cover_vs_explore);
            ("pdl_interp", Json.List pdl_interp);
            ("specint", Json.List specint);
            ("refinement", Json.List refinement);
            ("stabilization", Json.List stabilization);
            ("service_loadgen", service);
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
