(* Tests for Nfc_mcheck: phantom search, reachability stats, boundness. *)
open Nfc_mcheck

let checkb = Alcotest.(check bool)

let small_bounds =
  {
    Explore.default_bounds with
    capacity_tr = 2;
    capacity_rt = 2;
    submit_budget = 3;
    max_nodes = 300_000;
  }

let test_stop_and_wait_violation_found () =
  match Explore.find_phantom (Nfc_protocol.Stop_and_wait.make ~timeout:2 ()) small_bounds with
  | Explore.Violation trace ->
      (* The counterexample is an execution the declarative checker also
         indicts, with a legal physical layer. *)
      checkb "phantom confirmed" true (Nfc_automata.Props.invalid_phantom trace <> None);
      checkb "PL1 tr holds" true (Nfc_automata.Props.pl1 Nfc_automata.Action.T_to_r trace = None);
      checkb "PL1 rt holds" true (Nfc_automata.Props.pl1 Nfc_automata.Action.R_to_t trace = None)
  | _ -> Alcotest.fail "stop-and-wait must be violated"

let test_alternating_bit_violation_found () =
  match Explore.find_phantom (Nfc_protocol.Alternating_bit.make ~timeout:2 ()) small_bounds with
  | Explore.Violation trace ->
      checkb "phantom confirmed" true (Nfc_automata.Props.invalid_phantom trace <> None);
      (* The classic counterexample needs at least two delivered messages
         before the stale duplicate strikes. *)
      checkb "at least 2 submissions" true (Nfc_automata.Execution.sm trace >= 2)
  | _ -> Alcotest.fail "alternating bit must be violated on a non-FIFO channel"

let test_alternating_bit_without_drop_still_violated () =
  (* Reordering alone (no loss) already breaks the alternating bit. *)
  match
    Explore.find_phantom
      (Nfc_protocol.Alternating_bit.make ~timeout:2 ())
      { small_bounds with allow_drop = false }
  with
  | Explore.Violation _ -> ()
  | _ -> Alcotest.fail "reordering alone should break alternating bit"

let test_counterexample_is_minimal_for_sw () =
  match Explore.find_phantom (Nfc_protocol.Stop_and_wait.make ~timeout:1 ()) small_bounds with
  | Explore.Violation trace ->
      (* BFS returns a shortest counterexample: submit, two sends, two
         receives, two deliveries = 7 actions. *)
      checkb "short counterexample" true (List.length trace <= 8)
  | _ -> Alcotest.fail "expected violation"

let test_stenning_survives_budget () =
  match
    Explore.find_phantom (Nfc_protocol.Stenning.make ~timeout:2 ())
      { small_bounds with max_nodes = 30_000 }
  with
  | Explore.Violation _ -> Alcotest.fail "stenning must not be violated"
  | Explore.Node_budget s | Explore.No_violation s -> checkb "explored" true (s.Explore.nodes > 0)

let test_afek3_survives_budget () =
  match
    Explore.find_phantom
      (Nfc_protocol.Afek3.make ~retransmit:1 ~ping_every:2 ())
      { small_bounds with max_nodes = 30_000 }
  with
  | Explore.Violation _ -> Alcotest.fail "afek3 must not be violated"
  | Explore.Node_budget _ | Explore.No_violation _ -> ()

let test_reachable_stats_sane () =
  let s =
    Explore.reachable (Nfc_protocol.Stop_and_wait.make ~timeout:2 ())
      { small_bounds with submit_budget = 2; max_nodes = 50_000 }
  in
  checkb "nodes positive" true (s.Explore.nodes > 10);
  checkb "senders at least 2" true (s.Explore.sender_states >= 2);
  checkb "receivers at least 2" true (s.Explore.receiver_states >= 2);
  checkb "depth positive" true (s.Explore.max_depth > 0)

let test_node_budget_enforced () =
  (* Unbounded counters make the full space infinite (retransmissions keep
     growing the receiver's owed-ack counter); the node budget must cut the
     search off at exactly its limit. *)
  let s =
    Explore.reachable (Nfc_protocol.Stop_and_wait.make ~timeout:1 ())
      { small_bounds with submit_budget = 2; max_nodes = 5_000 }
  in
  checkb "hit the budget" true (s.Explore.nodes >= 5_000);
  checkb "did not overrun it much" true (s.Explore.nodes <= 5_200)

let test_wedge_altbit_with_loss () =
  (* Loss + bit confusion permanently wedges the alternating bit; the
     backward fixpoint finds a witness execution. *)
  match
    Explore.find_wedge
      (Nfc_protocol.Alternating_bit.make ~timeout:1 ())
      { small_bounds with max_nodes = 250_000 }
  with
  | Explore.Wedged (trace, stats) ->
      (* Pinned: the shortest witness and the explored graph size. *)
      Alcotest.(check int) "witness length" 19 (List.length trace);
      Alcotest.(check int) "configurations" 250_000 stats.Explore.nodes;
      (* The witness ends with a message pending... *)
      checkb "pending message" true
        (Nfc_automata.Execution.sm trace > Nfc_automata.Execution.rm trace);
      (* ...and is a genuine execution of the protocol over a legal channel. *)
      checkb "PL1 tr" true (Nfc_automata.Props.pl1 Nfc_automata.Action.T_to_r trace = None);
      checkb "PL1 rt" true (Nfc_automata.Props.pl1 Nfc_automata.Action.R_to_t trace = None);
      (match
         Nfc_sim.Conformance.check (Nfc_protocol.Alternating_bit.make ~timeout:1 ()) trace
       with
      | Nfc_sim.Conformance.Conformant -> ()
      | v ->
          Alcotest.failf "witness not conformant: %s"
            (Format.asprintf "%a" Nfc_sim.Conformance.pp_verdict v))
  | Explore.No_wedge _ -> Alcotest.fail "alternating bit with loss must wedge"

let test_wedge_sequence_protocols_never () =
  List.iter
    (fun proto ->
      match
        Explore.find_wedge proto
          { small_bounds with submit_budget = 2; max_nodes = 60_000 }
      with
      | Explore.No_wedge _ -> ()
      | Explore.Wedged _ ->
          Alcotest.failf "%s must never wedge" (Nfc_protocol.Spec.name proto))
    [
      Nfc_protocol.Stenning.make ~timeout:1 ();
      Nfc_protocol.Stop_and_wait.make ~timeout:1 ();
    ];
  (* Stenning at the [nfc mcheck] defaults and 50000 nodes: both searches
     overshoot the budget by the rest of the last expansion. *)
  let b = { small_bounds with max_nodes = 50_000 } in
  let stenning = Nfc_protocol.Stenning.make () in
  let pinned what (s : Explore.stats) =
    Alcotest.(check (list int))
      (what ^ " nodes, k_t, k_r, depth")
      [ 50_001; 52; 1185; 52 ]
      [ s.Explore.nodes; s.sender_states; s.receiver_states; s.max_depth ]
  in
  (match Explore.find_phantom stenning b with
  | Explore.Node_budget s -> pinned "find_phantom" s
  | _ -> Alcotest.fail "stenning must exhaust the node budget");
  match Explore.find_wedge stenning b with
  | Explore.No_wedge s -> Alcotest.(check int) "find_wedge nodes" 50_001 s.Explore.nodes
  | Explore.Wedged _ -> Alcotest.fail "stenning must never wedge"

let test_boundness_within_theorem_bound () =
  (* Theorem 2.1: measured boundness <= k_t * k_r. *)
  List.iter
    (fun proto ->
      let r =
        Boundness.measure proto
          ~explore:
            {
              Explore.default_bounds with
              capacity_tr = 2;
              capacity_rt = 2;
              submit_budget = 2;
              max_nodes = 20_000;
            }
          ~probe:Boundness.default_probe_bounds
      in
      match r.Boundness.boundness with
      | Some b ->
          checkb (r.Boundness.protocol ^ " within product") true (b <= r.state_product);
          checkb (r.Boundness.protocol ^ " at least 1") true (b >= 1)
      | None -> Alcotest.fail (r.Boundness.protocol ^ ": probe exhausted"))
    [
      Nfc_protocol.Stop_and_wait.make ~timeout:2 ();
      Nfc_protocol.Alternating_bit.make ~timeout:2 ();
      Nfc_protocol.Stenning.make ~timeout:2 ();
    ]

let test_boundness_semi_valid_exist () =
  let r =
    Boundness.measure (Nfc_protocol.Alternating_bit.make ~timeout:2 ())
      ~explore:
        {
          Explore.default_bounds with
          capacity_tr = 2;
          capacity_rt = 2;
          submit_budget = 2;
          max_nodes = 20_000;
        }
      ~probe:Boundness.default_probe_bounds
  in
  checkb "found semi-valid configs" true (r.Boundness.semi_valid_configs > 0);
  checkb "k_t at least 2" true (r.Boundness.k_t >= 2)

let test_mcheck_counterexample_replays_in_props () =
  (* Cross-validation: every action of the model checker's counterexample
     passes the online checkers until the final phantom. *)
  match Explore.find_phantom (Nfc_protocol.Alternating_bit.make ~timeout:2 ()) small_bounds with
  | Explore.Violation trace ->
      let dl = Nfc_sim.Dl_check.create () in
      let violations =
        List.filter_map (fun a -> Nfc_sim.Dl_check.on_action dl a) trace
      in
      (* The online checker flags exactly the final phantom. *)
      checkb "online checker flags it too" true (violations <> [])
  | _ -> Alcotest.fail "expected violation"

let test_channel_interning_agrees_with_pvec () =
  (* Random add/remove walks through the engine's channel interner track
     the count vectors they stand for: every id decodes to the vector the
     same moves build directly, equal vectors get equal ids, cardinals
     agree, and removing an absent packet answers -1.  Walks revisit
     channels, so the memoised answers are checked as well as the first
     ones. *)
  let module P = (val Nfc_protocol.Stop_and_wait.make ()) in
  let module E = Explore.Make (P) in
  let rng = Random.State.make [| 17 |] in
  let ids = Array.init 5 (fun v -> Pvec.Index.id E.pkts (10 - v)) in
  let ok = ref true in
  let expect b = if not b then ok := false in
  for _walk = 1 to 300 do
    let ch = ref (E.chan_of_pvec Pvec.empty) and v = ref Pvec.empty in
    for _step = 1 to 24 do
      let p = ids.(Random.State.int rng (Array.length ids)) in
      (if Random.State.int rng 3 > 0 then begin
         ch := E.chan_add !ch p;
         v := Pvec.add !v p
       end
       else
         let ch' = E.chan_remove !ch p in
         match Pvec.remove_one !v p with
         | None -> expect (ch' = -1)
         | Some v' ->
             expect (ch' >= 0);
             ch := ch';
             v := v');
      expect (Pvec.equal (E.chan !ch) !v);
      expect (E.chan_of_pvec !v = !ch);
      expect (E.chan_card !ch = Pvec.cardinal !v)
    done
  done;
  checkb "chan_add/chan_remove agree with Pvec.add/Pvec.remove_one" true !ok

let test_visited_table_through_doublings () =
  (* The kernel's visited set keeps each configuration as its six ints
     and starts at 64 slots, doubling at load 1/2, so a 120k-node reach
     of stenning passes a dozen rehashes.  Records exist only at the API
     edge ([node], [configs], witnesses): the successor loop hands the
     kernel ints, so the sweep allocates well under the nine words one
     record per move would cost. *)
  let proto = Nfc_protocol.Stenning.make () in
  let module P = (val proto) in
  let module E = Explore.Make (P) in
  let bounds = { Explore.default_bounds with max_nodes = 120_000 } in
  let moves = ref 0 in
  let count_move _ _ _ _ _ _ _ _ _ =
    incr moves;
    false
  in
  let before = Gc.minor_words () in
  let g =
    E.explore ~on_edge:count_move ~cap:bounds.Explore.max_nodes ~stop:max_int
      ~seeds:[ E.initial ] bounds
  in
  let words = Gc.minor_words () -. before in
  let n = E.size g in
  checkb "at least 100k configurations" true (n >= 100_000);
  checkb "no record per move" true (words /. float_of_int !moves < 4.);
  let found = ref true in
  for i = 0 to n - 1 do
    if E.find g (E.node g i) <> Some i then found := false
  done;
  checkb "find g (node g i) = Some i for every id" true !found;
  (* The hash mixes all six ints, so an equality test that skipped one
     would only show on a collision.  Tuples that differ in one int
     alone collide with each other on every shared probe path. *)
  let t = Explore.Table.create () in
  let fresh = ref true in
  for k = 0 to 5 do
    for v = 0 to 999 do
      let x j = if j = k then v else 1_000_000 in
      let expected = Explore.Table.length t in
      if Explore.Table.add t (x 0) (x 1) (x 2) (x 3) (x 4) (x 5) <> expected then fresh := false
    done
  done;
  for k = 0 to 5 do
    for v = 0 to 999 do
      let x j = if j = k then v else 1_000_000 in
      if Explore.Table.find t (x 0) (x 1) (x 2) (x 3) (x 4) (x 5) <> (k * 1000) + v then
        fresh := false
    done
  done;
  checkb "tuples one int apart get their own ids" true !fresh;
  (* A slot word packs a hash tag above the id, so ints of any sign and
     size must hash, tag and compare right.  Tuple [i] holds [value (i /
     6)] in int [i mod 6] and [min_int] elsewhere: all distinct, with
     values near zero, [max_int] and [min_int].  2^18 + 6 tuples take
     the table past 2^19 slots; every tuple so far is looked up again
     after each doubling. *)
  let value n =
    match n mod 4 with 0 -> n | 1 -> -n | 2 -> max_int - n | _ -> min_int + 1 + n
  in
  let x i j = if j = i mod 6 then value (i / 6) else min_int in
  let tuple op i = op (x i 0) (x i 1) (x i 2) (x i 3) (x i 4) (x i 5) in
  let n = (1 lsl 18) + 6 in
  let t = Explore.Table.create () and ids = ref true and found = ref true in
  let all_found upto =
    for i = 0 to upto - 1 do
      if tuple (Explore.Table.find t) i <> i then found := false
    done
  in
  for i = 0 to n - 1 do
    if tuple (Explore.Table.add t) i <> i then ids := false;
    (* The table doubles as the count passes half of a power of two. *)
    let c = i + 1 in
    if c > 32 && (c - 1) land (c - 2) = 0 then all_found c
  done;
  all_found n;
  checkb "2^18 wide-ranging tuples get ids in order" true (!ids && Explore.Table.length t = n);
  checkb "each is found under its id after every doubling" true !found;
  Explore.Table.clear t;
  let again = List.init 100 (fun i -> tuple (Explore.Table.add t) (n - 1 - i)) in
  checkb "clear then re-adding numbers ids from 0" true
    (again = List.init 100 Fun.id
    && Explore.Table.length t = 100
    && tuple (Explore.Table.find t) 0 = -1);
  (* Seeds are visited first, in caller order, deduplicated. *)
  let seeds = List.map (E.node g) [ 5; 0; 5; 9; 0 ] in
  let h = E.explore ~cap:max_int ~stop:0 ~seeds bounds in
  checkb "seeds deduplicated" true
    (E.size h = 3 && List.for_all2 (fun i j -> E.node h i = E.node g j) [ 0; 1; 2 ] [ 5; 0; 9 ]);
  (* At a small bound the BFS order is the tree engine's, configuration
     by configuration. *)
  let small = { bounds with Explore.max_nodes = 3_000 } in
  let view (c : E.config) =
    ( Format.asprintf "%a" P.pp_sender (E.sender_of c.E.sid),
      Format.asprintf "%a" P.pp_receiver (E.receiver_of c.E.rid),
      E.packets_tr c,
      E.packets_rt c,
      c.E.submitted,
      c.E.delivered )
  in
  checkb "BFS order matches Reference" true
    (List.map view (E.configs (E.reachable_set small)) = Reference.reachable_order proto small)

let suite =
  [
    ("s&w violation found", `Quick, test_stop_and_wait_violation_found);
    ("altbit violation found", `Quick, test_alternating_bit_violation_found);
    ("altbit broken by pure reorder", `Quick, test_alternating_bit_without_drop_still_violated);
    ("s&w counterexample minimal", `Quick, test_counterexample_is_minimal_for_sw);
    ("stenning survives", `Quick, test_stenning_survives_budget);
    ("afek3 survives", `Quick, test_afek3_survives_budget);
    ("reachable stats", `Quick, test_reachable_stats_sane);
    ("node budget enforced", `Quick, test_node_budget_enforced);
    ("wedge: altbit with loss", `Quick, test_wedge_altbit_with_loss);
    ("wedge: seq protocols never", `Quick, test_wedge_sequence_protocols_never);
    ("boundness within k_t*k_r", `Quick, test_boundness_within_theorem_bound);
    ("boundness semi-valid configs", `Quick, test_boundness_semi_valid_exist);
    ("counterexample cross-validated", `Quick, test_mcheck_counterexample_replays_in_props);
    ("channel ids agree with Pvec", `Quick, test_channel_interning_agrees_with_pvec);
    ("visited table through doublings", `Quick, test_visited_table_through_doublings);
  ]
