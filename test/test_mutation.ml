(* Failure injection: the checkers must reject corrupted executions.

   Valid executions are recorded from real runs, then mutated in ways that
   model specific physical/logical faults; every mutation class must be
   flagged by the corresponding checker (declarative and online), and
   valid traces must never be flagged (no false positives). *)
open Nfc_automata

let checkb = Alcotest.(check bool)

(* A recorded valid execution to mutate. *)
let base_trace seed =
  let result =
    Nfc_sim.Harness.run (Nfc_protocol.Stenning.make ())
      {
        Nfc_sim.Harness.default_config with
        policy_tr = Nfc_channel.Policy.uniform_reorder ~deliver:0.7 ~drop:0.1;
        policy_rt = Nfc_channel.Policy.uniform_reorder ~deliver:0.7 ~drop:0.1;
        n_messages = 8;
        seed;
        record_trace = true;
      }
  in
  match result.Nfc_sim.Harness.trace with
  | Some t -> t
  | None -> Alcotest.fail "no trace recorded"

let insert_at i x l =
  let rec go j acc = function
    | rest when j = i -> List.rev_append acc (x :: rest)
    | [] -> List.rev (x :: acc)
    | a :: rest -> go (j + 1) (a :: acc) rest
  in
  go 0 [] l

let online_dl_flags trace =
  let c = Nfc_sim.Dl_check.create () in
  List.exists (fun a -> Nfc_sim.Dl_check.on_action c a <> None) trace

let online_pl_flags trace =
  let c = Nfc_channel.Pl_check.create () in
  List.exists (fun a -> Nfc_channel.Pl_check.on_action c a <> None) trace

let test_no_false_positives () =
  for seed = 1 to 5 do
    let t = base_trace seed in
    checkb "dl1 clean" true (Props.dl1 t = None);
    checkb "dl2 clean" true (Props.dl2 t = None);
    checkb "pl1 tr clean" true (Props.pl1 Action.T_to_r t = None);
    checkb "pl1 rt clean" true (Props.pl1 Action.R_to_t t = None);
    checkb "online dl clean" false (online_dl_flags t);
    checkb "online pl clean" false (online_pl_flags t)
  done

(* Fault: the channel duplicates a packet (hardware echo). *)
let test_inject_duplicate_packet_receive () =
  let t = base_trace 1 in
  (* Find a Receive_pkt and replay it immediately after itself. *)
  let rec dup acc = function
    | [] -> None
    | (Action.Receive_pkt _ as a) :: rest -> Some (List.rev_append acc (a :: a :: rest))
    | a :: rest -> dup (a :: acc) rest
  in
  match dup [] t with
  | None -> Alcotest.fail "no receive in trace"
  | Some mutated ->
      let dir_flagged =
        Props.pl1 Action.T_to_r mutated <> None || Props.pl1 Action.R_to_t mutated <> None
      in
      checkb "declarative PL1 flags duplication" true dir_flagged;
      checkb "online PL1 flags duplication" true (online_pl_flags mutated)

(* Fault: a packet materialises out of thin air (corruption). *)
let test_inject_phantom_packet () =
  let t = base_trace 2 in
  let mutated = insert_at 0 (Action.Receive_pkt (Action.T_to_r, 999)) t in
  checkb "declarative PL1 flags phantom packet" true (Props.pl1 Action.T_to_r mutated <> None);
  checkb "online PL1 flags phantom packet" true (online_pl_flags mutated)

(* Fault: the receiver hallucinates a delivery. *)
let test_inject_phantom_delivery () =
  let t = base_trace 3 in
  let mutated = t @ [ Action.Receive_msg 99 ] in
  checkb "DL1 flags hallucinated delivery" true (Props.dl1 mutated <> None);
  checkb "online flags it" true (online_dl_flags mutated)

(* Fault: duplicated delivery of a real message. *)
let test_inject_duplicate_delivery () =
  let t = base_trace 4 in
  let mutated = t @ [ Action.Receive_msg 0 ] in
  checkb "DL1 flags duplicate" true (Props.dl1 mutated <> None);
  checkb "online flags it" true (online_dl_flags mutated)

(* Fault: deliveries swapped (FIFO broken). *)
let test_swap_deliveries () =
  let t = base_trace 5 in
  let rec swap acc = function
    | [] -> None
    | Action.Receive_msg a :: rest -> (
        let rec swap2 acc2 = function
          | [] -> None
          | Action.Receive_msg b :: rest2 ->
              Some
                (List.rev_append acc
                   (Action.Receive_msg b
                   :: List.rev_append acc2 (Action.Receive_msg a :: rest2)))
          | x :: rest2 -> swap2 (x :: acc2) rest2
        in
        match swap2 [] rest with
        | Some mutated -> Some mutated
        | None -> None)
    | x :: rest -> swap (x :: acc) rest
  in
  match swap [] t with
  | None -> Alcotest.fail "needs two deliveries"
  | Some mutated ->
      checkb "DL2 flags out-of-order" true (Props.dl2 mutated <> None);
      checkb "online flags it" true (online_dl_flags mutated)

(* Fault: a drop recorded for a packet that is not in transit. *)
let test_inject_bogus_drop () =
  let t = base_trace 6 in
  let mutated = insert_at 0 (Action.Drop_pkt (Action.R_to_t, 123)) t in
  checkb "PL1 flags bogus drop" true (Props.pl1 Action.R_to_t mutated <> None)

(* Property: random single-action corruption of Receive_msg ids is always
   caught by DL1/DL2 (ids are a permutation-free chain). *)
let prop_random_delivery_corruption =
  QCheck.Test.make ~name:"random delivery-id corruption is caught" ~count:100
    QCheck.(pair (int_bound 10_000) (int_bound 1_000))
    (fun (seed, salt) ->
      let t = base_trace (1 + (seed mod 50)) in
      let deliveries = List.length (List.filter (function Action.Receive_msg _ -> true | _ -> false) t) in
      QCheck.assume (deliveries > 0);
      let target = salt mod deliveries in
      let idx = ref (-1) in
      let mutated =
        List.map
          (fun a ->
            match a with
            | Action.Receive_msg m ->
                incr idx;
                if !idx = target then Action.Receive_msg (m + 1 + (salt mod 3)) else a
            | a -> a)
          t
      in
      Props.dl1 mutated <> None || Props.dl2 mutated <> None)

(* Round-trip: serialisation preserves traces exactly, and judge reports
   the phantom on mutated ones. *)
let test_trace_io_roundtrip () =
  for seed = 1 to 5 do
    let t = base_trace seed in
    match Nfc_sim.Trace_io.parse (Nfc_sim.Trace_io.render t) with
    | Ok t' -> checkb "roundtrip" true (t = t')
    | Error msg -> Alcotest.fail msg
  done

let test_trace_io_rejects_garbage () =
  (match Nfc_sim.Trace_io.parse "send_msg 0\nfly_me_to_the_moon 3\n" with
  | Error msg -> checkb "names the line" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Nfc_sim.Trace_io.parse "send_pkt xx 3\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad direction accepted"

let test_trace_io_comments_and_blanks () =
  match Nfc_sim.Trace_io.parse "# a counterexample\n\nsend_msg 0\n\nreceive_msg 0\n" with
  | Ok [ Action.Send_msg 0; Action.Receive_msg 0 ] -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error msg -> Alcotest.fail msg

let test_trace_io_judge_mentions_phantom () =
  let report =
    Nfc_sim.Trace_io.judge [ Action.Send_msg 0; Action.Receive_msg 0; Action.Receive_msg 1 ]
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  checkb "mentions phantom" true (contains report "phantom delivery: YES")

let prop_trace_io_roundtrip_random =
  let action_gen =
    QCheck.Gen.(
      oneof
        [
          map (fun i -> Action.Send_msg i) (int_bound 100);
          map (fun i -> Action.Receive_msg i) (int_bound 100);
          map2
            (fun d p -> Action.Send_pkt ((if d then Action.T_to_r else Action.R_to_t), p))
            bool (int_bound 100);
          map2
            (fun d p -> Action.Receive_pkt ((if d then Action.T_to_r else Action.R_to_t), p))
            bool (int_bound 100);
          map2
            (fun d p -> Action.Drop_pkt ((if d then Action.T_to_r else Action.R_to_t), p))
            bool (int_bound 100);
        ])
  in
  QCheck.Test.make ~name:"trace_io roundtrips arbitrary action lists" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 50) action_gen))
    (fun t -> Nfc_sim.Trace_io.parse (Nfc_sim.Trace_io.render t) = Ok t)

(* ---------------------------------------------------------- Conformance *)

let test_conformance_accepts_real_traces () =
  (* Every harness-recorded trace is a genuine execution of its protocol. *)
  List.iter
    (fun (entry : Nfc_protocol.Registry.entry) ->
      let proto = entry.Nfc_protocol.Registry.default () in
      let res =
        Nfc_sim.Harness.run proto
          {
            Nfc_sim.Harness.default_config with
            policy_tr = Nfc_channel.Policy.uniform_reorder ~deliver:0.7 ~drop:0.05;
            policy_rt = Nfc_channel.Policy.uniform_reorder ~deliver:0.7 ~drop:0.05;
            n_messages = 5;
            seed = 4;
            record_trace = true;
            max_rounds = 60_000;
            stall_rounds = Some 20_000;
          }
      in
      match res.Nfc_sim.Harness.trace with
      | None -> Alcotest.fail "no trace"
      | Some t -> (
          let fresh = entry.Nfc_protocol.Registry.default () in
          match Nfc_sim.Conformance.check fresh t with
          | Nfc_sim.Conformance.Conformant -> ()
          | v ->
              Alcotest.failf "%s: %s"
                (Nfc_protocol.Spec.name proto)
                (Format.asprintf "%a" Nfc_sim.Conformance.pp_verdict v)))
    Nfc_protocol.Registry.all

let test_conformance_accepts_mcheck_counterexample () =
  match
    Nfc_mcheck.Explore.find_phantom
      (Nfc_protocol.Alternating_bit.make ~timeout:2 ())
      {
        Nfc_mcheck.Explore.default_bounds with
        capacity_tr = 2;
        capacity_rt = 2;
        submit_budget = 3;
        max_nodes = 200_000;
        allow_drop = false;
      }
  with
  | Nfc_mcheck.Explore.Violation trace -> (
      match Nfc_sim.Conformance.check (Nfc_protocol.Alternating_bit.make ~timeout:2 ()) trace with
      | Nfc_sim.Conformance.Conformant -> ()
      | v -> Alcotest.failf "counterexample not conformant: %s"
               (Format.asprintf "%a" Nfc_sim.Conformance.pp_verdict v))
  | _ -> Alcotest.fail "expected a counterexample"

let test_conformance_accepts_adversary_execution () =
  match Nfc_core.Adversary_m.attack ~max_messages:6 (Nfc_protocol.Flood.make ~base:1 ~ratio:2.0 ()) with
  | Nfc_core.Adversary_m.Violation v -> (
      match
        Nfc_sim.Conformance.check (Nfc_protocol.Flood.make ~base:1 ~ratio:2.0 ()) v.execution
      with
      | Nfc_sim.Conformance.Conformant -> ()
      | verdict -> Alcotest.failf "adversary execution not conformant: %s"
                     (Format.asprintf "%a" Nfc_sim.Conformance.pp_verdict verdict))
  | _ -> Alcotest.fail "expected a violation"

let test_conformance_rejects_wrong_packet () =
  let open Nfc_automata in
  (* A sender that was never asked to send packet 9. *)
  let t = [ Action.Send_msg 0; Action.Send_pkt (Action.T_to_r, 9) ] in
  match Nfc_sim.Conformance.check (Nfc_protocol.Stenning.make ()) t with
  | Nfc_sim.Conformance.Deviation d ->
      Alcotest.(check int) "at the send" 1 d.index
  | Nfc_sim.Conformance.Conformant -> Alcotest.fail "wrong packet accepted"

let test_conformance_rejects_unearned_delivery () =
  let open Nfc_automata in
  (* No data ever reached the receiver: it cannot deliver. *)
  let t = [ Action.Send_msg 0; Action.Receive_msg 0 ] in
  match Nfc_sim.Conformance.check (Nfc_protocol.Stenning.make ()) t with
  | Nfc_sim.Conformance.Deviation _ -> ()
  | Nfc_sim.Conformance.Conformant -> Alcotest.fail "unearned delivery accepted"

let test_conformance_rejects_foreign_trace () =
  let open Nfc_automata in
  (* An alternating-bit exchange is not a stenning execution: stenning's
     first data packet is 0 but its ack is 1, not 2. *)
  let t =
    [
      Action.Send_msg 0;
      Action.Send_pkt (Action.T_to_r, 0);
      Action.Receive_pkt (Action.T_to_r, 0);
      Action.Receive_msg 0;
      Action.Send_pkt (Action.R_to_t, 2);
    ]
  in
  match Nfc_sim.Conformance.check (Nfc_protocol.Stenning.make ()) t with
  | Nfc_sim.Conformance.Deviation d -> Alcotest.(check int) "at the ack" 4 d.index
  | Nfc_sim.Conformance.Conformant -> Alcotest.fail "foreign trace accepted"

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_random_delivery_corruption; prop_trace_io_roundtrip_random ]

let suite =
  [
    ("no false positives", `Quick, test_no_false_positives);
    ("inject duplicate packet", `Quick, test_inject_duplicate_packet_receive);
    ("inject phantom packet", `Quick, test_inject_phantom_packet);
    ("inject phantom delivery", `Quick, test_inject_phantom_delivery);
    ("inject duplicate delivery", `Quick, test_inject_duplicate_delivery);
    ("swap deliveries", `Quick, test_swap_deliveries);
    ("inject bogus drop", `Quick, test_inject_bogus_drop);
    ("trace_io roundtrip", `Quick, test_trace_io_roundtrip);
    ("trace_io rejects garbage", `Quick, test_trace_io_rejects_garbage);
    ("trace_io comments/blanks", `Quick, test_trace_io_comments_and_blanks);
    ("trace_io judge phantom", `Quick, test_trace_io_judge_mentions_phantom);
    ("conformance accepts real traces", `Quick, test_conformance_accepts_real_traces);
    ("conformance accepts mcheck cex", `Quick, test_conformance_accepts_mcheck_counterexample);
    ("conformance accepts adversary exec", `Quick, test_conformance_accepts_adversary_execution);
    ("conformance rejects wrong packet", `Quick, test_conformance_rejects_wrong_packet);
    ("conformance rejects unearned delivery", `Quick, test_conformance_rejects_unearned_delivery);
    ("conformance rejects foreign trace", `Quick, test_conformance_rejects_foreign_trace);
  ]
  @ qsuite
