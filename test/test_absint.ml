(* Tests for Nfc_absint: Opvec order/join/acceleration laws (QCheck over
   small count arrays), cover-vs-explore differential agreement, and the
   complete-certification tier over the registry. *)
open Nfc_absint
module Explore = Nfc_mcheck.Explore
module Spec = Nfc_protocol.Spec

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------- Opvec laws *)

(* Counts drawn from {0,1,2,3,ω} over up to 5 coordinates — small enough
   to exercise trimming, ω absorption, and every le/join case. *)
let opvec_gen =
  QCheck.Gen.(
    map
      (fun l ->
        Opvec.of_array
          (Array.of_list (List.map (fun c -> if c >= 4 then Opvec.omega else c) l)))
      (list_size (int_bound 5) (int_bound 4)))

let opvec_arb =
  QCheck.make ~print:(fun v -> Format.asprintf "%a" (Opvec.pp ?packet:None) v) opvec_gen

let prop_le_refl =
  QCheck.Test.make ~name:"le is reflexive" ~count:200 opvec_arb (fun v -> Opvec.le v v)

let prop_le_antisym =
  QCheck.Test.make ~name:"le is antisymmetric" ~count:500
    (QCheck.pair opvec_arb opvec_arb)
    (fun (a, b) -> (not (Opvec.le a b && Opvec.le b a)) || Opvec.equal a b)

let prop_le_trans =
  QCheck.Test.make ~name:"le is transitive" ~count:500
    (QCheck.triple opvec_arb opvec_arb opvec_arb)
    (fun (a, b, c) -> (not (Opvec.le a b && Opvec.le b c)) || Opvec.le a c)

let prop_join_lub =
  QCheck.Test.make ~name:"join is the least upper bound" ~count:500
    (QCheck.triple opvec_arb opvec_arb opvec_arb)
    (fun (a, b, c) ->
      let j = Opvec.join a b in
      Opvec.le a j && Opvec.le b j
      && ((not (Opvec.le a c && Opvec.le b c)) || Opvec.le j c))

let prop_accelerate =
  QCheck.Test.make ~name:"accelerate dominates and pumps strict growth to ω" ~count:500
    (QCheck.pair opvec_arb opvec_arb)
    (fun (a, b) ->
      (* Use the join to manufacture a guaranteed prev <= t pair. *)
      let prev = a and t = Opvec.join a b in
      let acc = Opvec.accelerate ~prev t in
      Opvec.le t acc
      && List.for_all
           (fun id ->
             if Opvec.count t id > Opvec.count prev id && not (Opvec.is_omega t id) then
               Opvec.is_omega acc id
             else Opvec.count acc id = Opvec.count t id)
           (Opvec.support acc))

let prop_add_remove =
  QCheck.Test.make ~name:"remove_one inverts add (ω absorbs)" ~count:500
    (QCheck.pair opvec_arb (QCheck.int_bound 5))
    (fun (v, id) ->
      let v' = Opvec.add v id in
      if Opvec.is_omega v id then Opvec.equal v' v && Opvec.remove_one v' id = Some v'
      else
        Opvec.count v' id = Opvec.count v id + 1
        && match Opvec.remove_one v' id with
           | Some v'' -> Opvec.equal v'' v
           | None -> false)

let test_of_pvec_consistent () =
  (* A concrete Pvec and its Opvec injection agree on every count. *)
  let pv = List.fold_left Nfc_mcheck.Pvec.add Nfc_mcheck.Pvec.empty [ 0; 0; 2; 3; 3; 3 ] in
  let ov = Opvec.of_pvec pv in
  List.iter
    (fun id ->
      checki (Printf.sprintf "count at %d" id) (Nfc_mcheck.Pvec.count pv id)
        (Opvec.count ov id))
    [ 0; 1; 2; 3; 4 ];
  checkb "no ω in an injected Pvec" true (Opvec.omega_count ov = 0)

let test_omega_order () =
  let fin = Opvec.of_array [| 3; 1 |] in
  let om = Opvec.set_omega fin 0 in
  checkb "finite below ω" true (Opvec.le fin om);
  checkb "ω not below finite" false (Opvec.le om fin);
  checkb "ω survives remove_one" true (Opvec.remove_one om 0 = Some om)

(* ------------------------------------- cover/explore differential *)

let bounds =
  {
    Explore.default_bounds with
    capacity_tr = 2;
    capacity_rt = 2;
    submit_budget = 3;
    max_nodes = 15_000;
  }

let cover_of proto =
  let module P = (val proto : Spec.S) in
  let module E = Explore.Make (P) in
  let module C = Cover.Make (P) (E) in
  let reach = E.reachable_set bounds in
  (P.name, reach.E.first_phantom <> None, C.run ~submit_budget:bounds.Explore.submit_budget ())

let test_differential_phantom_agreement () =
  (* Where both analyses are exact — the cover converged — the budget-free
     phantom answer must agree with the bounded search's.  (The bounded
     side may be truncated; a found phantom is still a found phantom, and
     on this registry no phantom lies beyond the truncation: the cover
     corroborates exactly that.) *)
  let ran = ref 0 in
  List.iter
    (fun proto ->
      let name, bounded_phantom, (st : Cover.stats) = cover_of proto in
      if st.Cover.converged then begin
        incr ran;
        if String.starts_with ~prefix:"stab-arq" name then
          (* The stabilizing ARQ's phantom is capacity-gated (Theorem 3.1):
             unreachable at its design capacity, reachable once the channel
             holds more.  The capacity-unbounded cover must report it — a
             sound over-approximation, not a disagreement. *)
          checkb (name ^ ": cover sees the capacity-gated phantom") true
            st.Cover.phantom_coverable
        else
          checkb
            (name ^ ": cover and explore agree on the phantom")
            bounded_phantom st.Cover.phantom_coverable
      end)
    (Nfc_protocol.Registry.defaults ());
  checkb "differential exercised most of the registry" true (!ran >= 5)

let test_cover_shares_interned_state () =
  (* The cover reuses the bounded engine's interners/memos: running it
     after a bounded sweep must not disturb the engine's answers. *)
  let module P = (val Nfc_protocol.Alternating_bit.make ~timeout:2 () : Spec.S) in
  let module E = Explore.Make (P) in
  let module C = Cover.Make (P) (E) in
  let before = (E.reachable_set bounds).E.reach_stats.Explore.nodes in
  let st = C.run ~submit_budget:3 () in
  let after = (E.reachable_set bounds).E.reach_stats.Explore.nodes in
  checkb "cover converges on the alternating bit" true st.Cover.converged;
  checki "bounded reach unchanged by the cover run" before after

(* ------------------------------------- complete certification tier *)

let complete_results =
  lazy
    (Nfc_lint.Engine.run_registry
       { Nfc_lint.Checks.default_config with Nfc_lint.Checks.complete = true })

let bounded_results = lazy (Nfc_lint.Engine.run_registry Nfc_lint.Checks.default_config)

let is_complete (r : Nfc_lint.Engine.result) =
  r.Nfc_lint.Engine.certificate.Nfc_lint.Certificate.strength = Nfc_lint.Certificate.Complete

let test_registry_mostly_complete () =
  let results = Lazy.force complete_results in
  let n = List.length (List.filter is_complete results) in
  checkb (Printf.sprintf "at least 5 of %d protocols certify complete (got %d)"
            (List.length results) n)
    true (n >= 5);
  (* Every complete certificate upgraded all three upgradable rules. *)
  List.iter
    (fun (r : Nfc_lint.Engine.result) ->
      if is_complete r then
        List.iter
          (fun (rule, s) ->
            checkb
              (r.Nfc_lint.Engine.protocol ^ ": " ^ rule ^ " is complete")
              true
              (s = Nfc_lint.Certificate.Complete))
          r.Nfc_lint.Engine.certificate.Nfc_lint.Certificate.rule_strengths)
    results

let test_flooding_protocols_downgrade () =
  (* The hook-less, genuinely counter-unbounded protocols must diverge —
     and say so out loud (the C1 downgrade diagnostic). *)
  let results = Lazy.force complete_results in
  List.iter
    (fun (r : Nfc_lint.Engine.result) ->
      if not (is_complete r) then begin
        checkb (r.Nfc_lint.Engine.protocol ^ ": divergence is diagnosed") true
          (List.exists
             (fun (d : Nfc_lint.Diagnostic.t) -> d.Nfc_lint.Diagnostic.rule = "C1")
             r.Nfc_lint.Engine.diagnostics);
        match r.Nfc_lint.Engine.certificate.Nfc_lint.Certificate.cover with
        | Some cv ->
            if String.starts_with ~prefix:"stab-arq" r.Nfc_lint.Engine.protocol then
              (* The capacity-gated case: the cover converges but cannot
                 corroborate the capacity-relative T1 verdict, so the
                 strength stays bounded with the contradiction diagnosed. *)
              checkb "capacity-gated cover converges without corroborating" true
                cv.Nfc_lint.Certificate.cover_converged
            else
              checkb "cover summary records divergence" false
                cv.Nfc_lint.Certificate.cover_converged
        | None -> Alcotest.fail "complete run must attach a cover summary"
      end)
    results;
  checki "exactly three protocols stay bounded" 3
    (List.length (List.filter (fun r -> not (is_complete r)) results))

let test_verdicts_identical_to_bounded_run () =
  (* --complete only adds C1 lines and strength labels; every H1/E1/B1/
     T1/Q1/S1 verdict is the bounded run's, verbatim. *)
  let strip (r : Nfc_lint.Engine.result) =
    List.filter
      (fun (d : Nfc_lint.Diagnostic.t) -> d.Nfc_lint.Diagnostic.rule <> "C1")
      r.Nfc_lint.Engine.diagnostics
  in
  List.iter2
    (fun c b ->
      checkb
        (c.Nfc_lint.Engine.protocol ^ ": verdicts unchanged by the cover tier")
        true
        (strip c = strip b))
    (Lazy.force complete_results) (Lazy.force bounded_results)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_le_refl;
      prop_le_antisym;
      prop_le_trans;
      prop_join_lub;
      prop_accelerate;
      prop_add_remove;
    ]

(* The cancellation hook: a counting checkpoint leaves the flood cover's
   stats alone and is called once per 2,048 expansions; a raising one
   escapes from the diverging fixpoint at its first call. *)
let test_cover_checkpoint () =
  let flood = Nfc_protocol.Flood.make () in
  let plain = Cover.run ~max_nodes:20_000 ~submit_budget:3 flood in
  let calls = ref 0 in
  let counted =
    Cover.run ~checkpoint:(fun () -> incr calls) ~max_nodes:20_000 ~submit_budget:3 flood
  in
  checkb "counting checkpoint leaves the stats alone" true (counted = plain);
  checki "one call per 2048 expansions" (plain.Cover.iterations / 2048) !calls;
  checkb "the cover expands past one checkpoint period" true (!calls > 0);
  let calls = ref 0 in
  match
    Cover.run
      ~checkpoint:(fun () ->
        incr calls;
        raise Exit)
      ~submit_budget:3 flood
  with
  | _ -> Alcotest.fail "the cover ignored a raising checkpoint"
  | exception Exit -> checki "aborted at the first checkpoint" 1 !calls

let suite =
  [
    ("of_pvec counts agree", `Quick, test_of_pvec_consistent);
    ("ω ordering and absorption", `Quick, test_omega_order);
    ("cover/explore phantom differential", `Slow, test_differential_phantom_agreement);
    ("cover reuses the engine state soundly", `Quick, test_cover_shares_interned_state);
    ("registry certifies mostly complete", `Slow, test_registry_mostly_complete);
    ("flooding protocols downgrade loudly", `Slow, test_flooding_protocols_downgrade);
    ("verdicts identical to the bounded run", `Slow, test_verdicts_identical_to_bounded_run);
    ("cover checkpoint counts and aborts", `Quick, test_cover_checkpoint);
  ]
  @ qsuite
