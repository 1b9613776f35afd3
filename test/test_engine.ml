(* Differential tests for the hashed state-space engine against the
   retained tree-based reference ({!Nfc_mcheck.Reference}), the
   determinism guarantees of the [--jobs] paths (same lint output and
   same fuzz findings at every job count), the [from_configs] seed
   contract, the wedge search's statistics and a pin of the
   stabilization analysis built on the same kernel. *)
open Nfc_mcheck

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let registry () = Nfc_protocol.Registry.defaults ()

let name_of proto =
  let module P = (val proto : Nfc_protocol.Spec.S) in
  P.name

(* Modest budget: full spaces for the finite protocols, real truncation
   for the flooding one — both regimes must agree. *)
let bounds =
  {
    Explore.default_bounds with
    capacity_tr = 2;
    capacity_rt = 2;
    submit_budget = 3;
    max_nodes = 8_000;
  }

let probe = { Boundness.max_nodes = 1_000; max_cost = 100 }

(* Flood at capacity 4, where drops are densest: its 11,104
   configurations fit a 20k budget, so the whole space is compared. *)
let flood_cap4 =
  { bounds with Explore.capacity_tr = 4; capacity_rt = 4; max_nodes = 20_000 }

(* Every registry protocol at [bounds], plus flood at [flood_cap4]. *)
let differential_inputs () =
  List.map (fun p -> (p, bounds)) (registry ()) @ [ (Nfc_protocol.Flood.make (), flood_cap4) ]

(* ------------------------------------------------ reach differential *)

let bounds_label (b : Explore.bounds) =
  Printf.sprintf "c%d:%d/s%d/n%d/d%b" b.capacity_tr b.capacity_rt b.submit_budget b.max_nodes
    b.allow_drop

let test_reach_stats_agree () =
  List.iter
    (fun (proto, bounds) ->
      let module P = (val proto : Nfc_protocol.Spec.S) in
      let module E = Explore.Make (P) in
      let r = E.reachable_set bounds in
      let ref_stats, ref_truncated = Reference.reachable_set_stats proto bounds in
      let n = P.name ^ " @ " ^ bounds_label bounds in
      if bounds == flood_cap4 then checkb (n ^ " explored whole") false r.E.truncated;
      checki (n ^ " nodes") ref_stats.Explore.nodes r.E.reach_stats.Explore.nodes;
      checki (n ^ " k_t") ref_stats.Explore.sender_states
        r.E.reach_stats.Explore.sender_states;
      checki (n ^ " k_r") ref_stats.Explore.receiver_states
        r.E.reach_stats.Explore.receiver_states;
      checki (n ^ " max_depth") ref_stats.Explore.max_depth
        r.E.reach_stats.Explore.max_depth;
      checkb (n ^ " truncated") ref_truncated r.E.truncated;
      checki (n ^ " |configs| = nodes") r.E.reach_stats.Explore.nodes
        (List.length (E.configs r)))
    (differential_inputs ())

(* ---------------------------------------------- verdict differential *)

let verdict = function
  | Explore.Violation t -> `Violation (List.length t)
  | Explore.No_violation _ -> `No_violation
  | Explore.Node_budget _ -> `Node_budget

let test_phantom_verdicts_agree () =
  List.iter
    (fun (proto, bounds) ->
      let got = verdict (Explore.find_phantom proto bounds) in
      let want = verdict (Reference.find_phantom proto bounds) in
      checkb
        (name_of proto ^ " @ " ^ bounds_label bounds ^ " verdict (incl. trace length)")
        true (got = want))
    (differential_inputs ())

(* The reach sweep's phantom scan must reproduce [search]'s trichotomy:
   the linter's T1 rule is derived from it instead of a second pass. *)
let test_reach_phantom_scan_matches_search () =
  List.iter
    (fun proto ->
      let module P = (val proto : Nfc_protocol.Spec.S) in
      let module E = Explore.Make (P) in
      let r = E.reachable_set bounds in
      let n = P.name in
      match E.search ~stop_at_phantom:true bounds with
      | Explore.Violation trace ->
          checkb (n ^ " scan in budget") true r.E.phantom_in_budget;
          checki (n ^ " scan trace length") (List.length trace)
            (match r.E.first_phantom with Some l -> l | None -> -1)
      | Explore.No_violation _ ->
          checkb (n ^ " scan found nothing in budget") true
            (r.E.first_phantom = None || not r.E.phantom_in_budget);
          checkb (n ^ " search exhausted the space") true
            (r.E.reach_stats.Explore.nodes < bounds.Explore.max_nodes)
      | Explore.Node_budget _ ->
          checkb (n ^ " budget-invisible phantom") true
            (r.E.first_phantom = None || not r.E.phantom_in_budget))
    (registry ())

(* -------------------------------------------- boundness differential *)

(* The reference probes every sampled configuration; the engine probes
   one per station pair and maps the results back.  Comparing on a
   sample and over the whole semi-valid set pins that keying is exact and
   that [probes_exhausted] still counts configurations.  On the protocols
   whose probes exhaust (flood, stab-arq), a different sample moves
   [probes_exhausted], so samples of 1, 2 and all but one configuration
   pin the selection's edges: the first configurations in the canonical
   order, exactly as many as asked. *)
let test_boundness_reports_agree () =
  let exhausted = ref 0 in
  let agree proto max_probes =
    let got = Boundness.measure ~max_probes proto ~explore:bounds ~probe in
    let want = Reference.measure_boundness ~max_probes proto ~explore:bounds ~probe in
    checkb (Printf.sprintf "%s boundness report, %d probes" (name_of proto) max_probes) true
      (got = want)
  in
  List.iter
    (fun proto ->
      agree proto 100;
      let all = Boundness.measure proto ~explore:bounds ~probe in
      let want_all = Reference.measure_boundness proto ~explore:bounds ~probe in
      checkb (name_of proto ^ " boundness report, every configuration") true (all = want_all);
      if List.exists (fun prefix -> String.starts_with ~prefix (name_of proto)) [ "flood"; "stab-arq" ]
      then List.iter (agree proto) [ 1; 2; want_all.Boundness.semi_valid_configs - 1 ];
      exhausted := !exhausted + want_all.Boundness.probes_exhausted)
    (registry ());
  checkb "some probe exhausts its budget" true (!exhausted > 0)

(* The phantom reaches of the registry and the example specs never
   close: retransmission lets the receiver deliver without end, so
   [delivered] is unbounded.  This receiver delivers its first data
   packet twice and ignores the rest, so its reach carries a phantom
   (two deliveries after one submission) and still closes. *)
let double_delivery =
  lazy
    (match
       Nfc_pdl.Pdl.compile_string
         {|protocol "double-delivery" {
  describe "delivers the first data packet twice, nothing after"
  packets { data }
  sender {
    counter pending = 0
    on submit { pending += 1 }
    poll when pending > 0 -> send data { pending -= 1 }
  }
  receiver {
    counter due = 0
    var used : bool = false
    on data when !used { due += 2; used = true }
    poll when due > 0 -> deliver { due -= 1 }
  }
}|}
     with
    | Ok c -> c.Nfc_pdl.Pdl.spec
    | Error _ -> Alcotest.fail "double-delivery must compile")

(* A second set of bounds, at capacity 1. *)
let small =
  { bounds with Explore.capacity_tr = 1; capacity_rt = 1; submit_budget = 2; max_nodes = 20_000 }

let reach_inputs () =
  List.concat_map
    (fun b -> List.map (fun p -> (p, b)) (registry () @ [ Lazy.force double_delivery ]))
    [ bounds; small ]
  @ List.map (fun p -> (p, bounds)) (Lazy.force Test_lint.example_specs)

(* The linter's one-pass path: [measure ?reach] on an ungated reach.
   A reach that closes, phantom or not, and a phantom-free one, must
   yield the gated pass's report.  A truncated reach carrying a phantom
   yields the report of its gated closure: the held configurations
   [initial] reaches through gated moves, which the oracle here rebuilds
   on records ([iter_successors ~deliver_valid_only:true] and [find]). *)

let test_boundness_reach_reuse () =
  let closing_phantoms = ref 0 and truncated_phantoms = ref 0 in
  List.iter
    (fun (proto, bounds) ->
      let module P = (val proto : Nfc_protocol.Spec.S) in
      let module B = Boundness.Make (P) in
      let module E = B.E in
      let n = P.name ^ " @ " ^ bounds_label bounds in
      let reach = E.reachable_set bounds in
      let got = B.measure ~max_probes:100 ~reach ~explore:bounds ~probe_bounds:probe () in
      let phantom = reach.E.first_phantom <> None in
      if (not reach.E.truncated) || not phantom then begin
        if phantom then incr closing_phantoms;
        let want = B.measure ~max_probes:100 ~explore:bounds ~probe_bounds:probe () in
        checkb (n ^ " report = gated pass") true (got = want)
      end
      else begin
        incr truncated_phantoms;
        let g = reach.E.graph in
        let seen = Hashtbl.create 1024 and queue = Queue.create () in
        let add c =
          match E.find g c with
          | Some id when not (Hashtbl.mem seen id) ->
              Hashtbl.add seen id ();
              Queue.add c queue
          | _ -> ()
        in
        add E.initial;
        let closure = ref [] in
        while not (Queue.is_empty queue) do
          let c = Queue.pop queue in
          closure := c :: !closure;
          E.iter_successors ~deliver_valid_only:true bounds c (fun _ c' -> add c')
        done;
        let distinct f = List.length (List.sort_uniq Int.compare (List.map f !closure)) in
        let semi =
          List.length (List.filter (fun (c : E.config) -> c.submitted = c.delivered + 1) !closure)
        in
        checkb (n ^ " closure is part of the reach") true
          (List.length !closure < E.size g);
        checki (n ^ " configs") (List.length !closure) got.Boundness.configs_explored;
        checki (n ^ " k_t") (distinct (fun c -> c.E.sid)) got.Boundness.k_t;
        checki (n ^ " k_r") (distinct (fun c -> c.E.rid)) got.Boundness.k_r;
        checki (n ^ " semi-valid") semi got.Boundness.semi_valid_configs;
        checki (n ^ " skipped") (max 0 (semi - 100)) got.Boundness.probes_skipped
      end)
    (reach_inputs ());
  checkb "some phantom reach closes" true (!closing_phantoms > 0);
  checkb "some phantom reach is truncated" true (!truncated_phantoms > 0)

(* [gated_closure] from [initial]'s id (0) over an ungated reach that
   closes is exactly the set a gated reach holds, compared as decoded
   configurations.  [None] when the reach is truncated. *)
let closure_is_gated_reach proto bounds =
  let module P = (val proto : Nfc_protocol.Spec.S) in
  let module E = Explore.Make (P) in
  let reach = E.reachable_set bounds in
  if reach.E.truncated then None
  else begin
    let gated = E.reachable_set ~deliver_valid_only:true bounds in
    let decode g ids = List.sort compare (List.map (E.node g) ids) in
    let closure = Array.to_list (E.gated_closure reach.E.graph bounds [ 0 ]) in
    Some
      ((not gated.E.truncated)
      && decode reach.E.graph closure
         = decode gated.E.graph (List.init (E.size gated.E.graph) Fun.id))
  end

let test_gated_closure_differential () =
  let closed = ref 0 in
  List.iter
    (fun (proto, bounds) ->
      match closure_is_gated_reach proto bounds with
      | None -> ()
      | Some same ->
          incr closed;
          checkb (name_of proto ^ " @ " ^ bounds_label bounds ^ " closure = gated reach") true same)
    (reach_inputs ());
  checkb "some reach closes" true (!closed > 0)

(* ------------------------------------------- parallel lint determinism *)

let test_lint_jobs_deterministic () =
  let cfg =
    {
      Nfc_lint.Checks.default_config with
      Nfc_lint.Checks.bounds =
        { Nfc_lint.Checks.default_config.Nfc_lint.Checks.bounds with
          Explore.max_nodes = 4_000 };
    }
  in
  let seq = Nfc_lint.Engine.run_registry ~jobs:1 cfg in
  let par = Nfc_lint.Engine.run_registry ~jobs:4 cfg in
  checki "registry size" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Nfc_lint.Engine.result) (b : Nfc_lint.Engine.result) ->
      checkb (a.Nfc_lint.Engine.protocol ^ " lint result identical") true (a = b))
    seq par

(* --------------------------------------------- fuzz batch determinism *)

let strip_elapsed (r : Nfc_fuzz.Campaign.result) = { r with Nfc_fuzz.Campaign.elapsed = 0. }

let test_fuzz_batches_job_independent () =
  let cfg =
    {
      Nfc_fuzz.Campaign.default_cfg with
      Nfc_fuzz.Campaign.iterations = 6_000;
      seed = 7;
      batches = 3;
      shrink = true;
    }
  in
  let proto = Nfc_protocol.Alternating_bit.make () in
  let r1 = strip_elapsed (Nfc_fuzz.Campaign.run ~jobs:1 proto cfg) in
  let r3 = strip_elapsed (Nfc_fuzz.Campaign.run ~jobs:3 proto cfg) in
  checkb "batched result independent of jobs" true (r1 = r3);
  (* The altbit phantom is in reach of this budget; the finding must be
     reproducible from its (seed, batch) coordinates alone. *)
  match r1.Nfc_fuzz.Campaign.finding with
  | None -> Alcotest.fail "expected a violation under batched fuzzing"
  | Some f ->
      checkb "batch index recorded" true (f.Nfc_fuzz.Campaign.batch >= 0);
      let again = strip_elapsed (Nfc_fuzz.Campaign.run ~jobs:2 proto cfg) in
      checkb "rerun reproduces the same finding" true
        (match again.Nfc_fuzz.Campaign.finding with
        | Some g ->
            g.Nfc_fuzz.Campaign.batch = f.Nfc_fuzz.Campaign.batch
            && g.Nfc_fuzz.Campaign.found_at = f.Nfc_fuzz.Campaign.found_at
            && g.Nfc_fuzz.Campaign.schedule = f.Nfc_fuzz.Campaign.schedule
        | None -> false)

(* ------------------------------------------ from_configs seed contract *)

(* [from_configs] is the corrupted-start entry point of the stab tier:
   seeded with [initial] it is [reachable_set]; otherwise seeds are
   visited at depth 0 in caller order, deduplicated, and a seed list
   longer than [max_nodes] truncates. *)
let test_from_configs_seed_contract () =
  let b = { bounds with Explore.max_nodes = 4_000 } in
  List.iter
    (fun proto ->
      let module P = (val proto : Nfc_protocol.Spec.S) in
      let module E = Explore.Make (P) in
      let ints (c : E.config) = (c.sid, c.rid, c.tr, c.rt, c.submitted, c.delivered) in
      let same_configs xs ys = List.map ints xs = List.map ints ys in
      let n = P.name in
      let r = E.reachable_set b in
      let f = E.from_configs ~seeds:[ E.initial ] b in
      checkb (n ^ " initial seed: configs in order") true (same_configs (E.configs r) (E.configs f));
      checkb (n ^ " initial seed: stats") true (r.E.reach_stats = f.E.reach_stats);
      checkb (n ^ " initial seed: truncated") true (r.E.truncated = f.E.truncated);
      checkb (n ^ " initial seed: first_phantom") true (r.E.first_phantom = f.E.first_phantom);
      checkb (n ^ " initial seed: phantom_in_budget") true
        (r.E.phantom_in_budget = f.E.phantom_in_budget);
      (* The deepest configurations of the sweep, reversed and listed
         twice: the result must hold each once, in the reversed order. *)
      let k = 12 in
      let deepest = List.filteri (fun i _ -> i >= List.length (E.configs r) - k) (E.configs r) in
      let expected = List.rev deepest in
      let seeds = expected @ expected in
      let only_seeds = E.from_configs ~seeds { b with Explore.max_nodes = k } in
      checkb (n ^ " seeds deduplicated in caller order") true
        (same_configs expected (E.configs only_seeds));
      checki (n ^ " seeds at depth 0") 0 only_seeds.E.reach_stats.Explore.max_depth;
      let full = E.from_configs ~seeds b in
      checkb (n ^ " seeds lead the sweep") true
        (same_configs expected (List.filteri (fun i _ -> i < k) (E.configs full)));
      let short = E.from_configs ~seeds { b with Explore.max_nodes = k - 1 } in
      checkb (n ^ " seeds beyond max_nodes truncate") true short.E.truncated;
      checki (n ^ " truncated seed sweep size") (k - 1) short.E.reach_stats.Explore.nodes)
    (registry ())

(* ------------------------------------------------- wedge statistics *)

(* [find_wedge] runs the same kernel under the same dequeue-stop budget
   rule as [reachable], so its statistics are the reach's,
   field for field, even when the budget truncates the search. *)
let test_wedge_stats_match_reach () =
  let b = { bounds with Explore.max_nodes = 2_000 } in
  List.iter
    (fun proto ->
      let reach = Explore.reachable proto b in
      let wedge =
        match Explore.find_wedge proto b with Explore.Wedged (_, s) | Explore.No_wedge s -> s
      in
      checkb (name_of proto ^ " wedge stats = reach stats") true (wedge = reach))
    (registry ())

(* ------------------------------------------------- stab analysis pin *)

(* The stabilizing ARQ at its design capacity (cap 1): the numbers the
   stabilization CI gate greps for, pinned at the library level. *)
let test_converge_stab_arq_pin () =
  let module C = Nfc_stab.Converge in
  let r = C.analyze (Nfc_protocol.Stab_arq.make ()) C.default_cfg in
  checkb "SS1 pass" true (r.C.ss1 = C.Pass);
  Alcotest.(check (option int)) "SS1 bound" (Some 8) (C.convergence_bound r);
  checki "legitimate configurations" 78 r.C.legit_configs;
  checkb "legitimate set closed" true r.C.legit_closed;
  checki "corrupted starts" 3087 r.C.starts_enumerated;
  checkb "starts not truncated" false r.C.starts_truncated;
  checkb "SS2 pass" true (r.C.ss2 = C.Pass);
  Alcotest.(check (list string))
    "SS1 witness"
    [
      "receive_msg(0)";
      "receive_pkt^{t->r}(0)";
      "send_pkt^{t->r}(2)";
      "receive_pkt^{t->r}(2)";
      "send_pkt^{t->r}(2)";
      "receive_pkt^{t->r}(2)";
      "receive_msg(1)";
      "receive_pkt^{r->t}(0)";
    ]
    (match r.C.ss1_convergence with Some cv -> cv.C.witness | None -> [])

let suite =
  [
    ("reach stats agree with tree reference", `Quick, test_reach_stats_agree);
    ("phantom verdicts agree with tree reference", `Quick, test_phantom_verdicts_agree);
    ("reach phantom scan matches search", `Quick, test_reach_phantom_scan_matches_search);
    ("boundness reports agree with tree reference", `Quick, test_boundness_reports_agree);
    ( "boundness reuses a phantom-free reach or a phantom one's gated closure",
      `Quick,
      test_boundness_reach_reuse );
    ("lint registry identical at jobs=1 and jobs=4", `Quick, test_lint_jobs_deterministic);
    ("fuzz batches independent of job count", `Quick, test_fuzz_batches_job_independent);
    ("from_configs seed contract", `Quick, test_from_configs_seed_contract);
    ("stab-arq cap 1 converges (SS1/SS2 pin)", `Quick, test_converge_stab_arq_pin);
    ("wedge stats match reach stats", `Quick, test_wedge_stats_match_reach);
    ("gated closure = gated reach on closing reaches", `Quick, test_gated_closure_differential);
  ]
