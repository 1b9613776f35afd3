(* Tests for Nfc_protocol: per-protocol unit behaviour and cross-protocol
   safety/liveness properties driven through the simulation harness. *)
open Nfc_protocol

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------ unit: spec misc *)

let test_bits_for_int () =
  checki "0" 1 (Spec.bits_for_int 0);
  checki "1" 1 (Spec.bits_for_int 1);
  checki "2" 2 (Spec.bits_for_int 2);
  checki "255" 8 (Spec.bits_for_int 255);
  checki "256" 9 (Spec.bits_for_int 256);
  Alcotest.check_raises "negative" (Invalid_argument "Spec.bits_for_int: negative")
    (fun () -> ignore (Spec.bits_for_int (-1)))

let test_registry_names () =
  checkb "s&w" true (Spec.name (Stop_and_wait.make ()) = "stop-and-wait");
  checkb "altbit bound" true (Spec.header_bound (Alternating_bit.make ()) = Some 4);
  checkb "stenning unbounded" true (Spec.header_bound (Stenning.make ()) = None);
  checkb "flood bound" true (Spec.header_bound (Flood.make ()) = Some 4);
  checkb "afek3 bound" true (Spec.header_bound (Afek3.make ()) = Some 6)

let test_make_validation () =
  Alcotest.check_raises "bad timeout"
    (Invalid_argument "Stenning.make: timeout must be >= 1") (fun () ->
      ignore (Stenning.make ~timeout:0 ()));
  Alcotest.check_raises "bad ratio" (Invalid_argument "Flood.make: ratio must be >= 1.0")
    (fun () -> ignore (Flood.make ~ratio:0.5 ()));
  Alcotest.check_raises "bad base" (Invalid_argument "Flood.make: base must be >= 1")
    (fun () -> ignore (Flood.make ~base:0 ()));
  Alcotest.check_raises "bad retransmit"
    (Invalid_argument "Afek3.make: retransmit must be >= 1") (fun () ->
      ignore (Afek3.make ~retransmit:0 ()))

(* --------------------------------------- unit: hand-driven step machines *)

(* Drive a protocol module by hand through a perfect one-message exchange;
   returns the data packet used, or None if it stalls. *)
let hand_drive (module P : Spec.S) =
  let s = P.on_submit P.sender_init in
  match P.sender_poll s with
  | Some pkt, _ -> (
      let r = P.on_data P.receiver_init pkt in
      match P.receiver_poll r with Some Spec.Rdeliver, _ -> Some pkt | _ -> None)
  | None, _ -> None

let test_stop_and_wait_hand () =
  match hand_drive (Stop_and_wait.make ()) with
  | Some pkt -> checki "data packet is 0" 0 pkt
  | None -> Alcotest.fail "one-step delivery failed"

let test_alternating_bit_bits () =
  let (module P) = (Alternating_bit.make () : Spec.t) in
  (* First message uses bit 0, second bit 1 after the matching ack. *)
  let s = P.on_submit (P.on_submit P.sender_init) in
  match P.sender_poll s with
  | Some p0, s ->
      checki "first data bit 0" 0 p0;
      let s = P.on_ack s 2 in
      (* ack for bit 0 *)
      (match P.sender_poll s with
      | Some p1, _ -> checki "second data bit 1" 1 p1
      | None, _ -> Alcotest.fail "sender idle after ack")
  | None, _ -> Alcotest.fail "sender idle"

let test_alternating_bit_wrong_ack_ignored () =
  let (module P) = (Alternating_bit.make () : Spec.t) in
  let s = P.on_submit P.sender_init in
  match P.sender_poll s with
  | Some _, s -> (
      let s = P.on_ack s 3 in
      (* ack for bit 1: wrong, must keep retransmitting bit 0 *)
      let rec drain s n =
        if n = 0 then Alcotest.fail "no retransmission"
        else
          match P.sender_poll s with
          | Some p, _ -> checki "still bit 0" 0 p
          | None, s -> drain s (n - 1)
      in
      drain s 10)
  | None, _ -> Alcotest.fail "sender idle"

let test_alternating_bit_duplicate_data_not_redelivered () =
  let (module P) = (Alternating_bit.make () : Spec.t) in
  let r = P.on_data P.receiver_init 0 in
  let r = match P.receiver_poll r with Some Spec.Rdeliver, r -> r | _ -> Alcotest.fail "no delivery" in
  (* A duplicate of bit 0 must be re-acked, not re-delivered. *)
  let r = P.on_data r 0 in
  match P.receiver_poll r with
  | Some (Spec.Rsend a), _ -> checki "re-ack bit 0" 2 a
  | _ -> Alcotest.fail "expected re-ack, got delivery or silence"

let test_stenning_sequence_numbers () =
  let (module P) = (Stenning.make () : Spec.t) in
  let s = P.on_submit (P.on_submit P.sender_init) in
  (match P.sender_poll s with
  | Some p, _ -> checki "message 0 uses packet 0" 0 p
  | None, _ -> Alcotest.fail "idle");
  let s = match P.sender_poll s with Some _, s -> P.on_ack s 1 | _ -> assert false in
  match P.sender_poll s with
  | Some p, _ -> checki "message 1 uses packet 2" 2 p
  | None, _ -> Alcotest.fail "idle after ack"

let test_stenning_out_of_order_ignored () =
  let (module P) = (Stenning.make () : Spec.t) in
  (* Packet for message 3 arrives first: no delivery, no ack. *)
  let r = P.on_data P.receiver_init 6 in
  (match P.receiver_poll r with
  | None, _ -> ()
  | Some _, _ -> Alcotest.fail "future packet must be ignored");
  (* Stale packet (already delivered) re-acked but not re-delivered. *)
  let r = P.on_data P.receiver_init 0 in
  let r = match P.receiver_poll r with Some Spec.Rdeliver, r -> r | _ -> Alcotest.fail "deliver" in
  let r = P.on_data r 0 in
  match P.receiver_poll r with
  | Some (Spec.Rsend 1), _ -> ()
  | _ -> Alcotest.fail "expected re-ack of message 0"

let test_flood_thresholds_grow () =
  (* With base 2, ratio 2: message 0 needs 2 copies, message 1 needs 4. *)
  let (module P) = (Flood.make ~base:2 ~ratio:2.0 () : Spec.t) in
  let r = P.on_data P.receiver_init 0 in
  (match P.receiver_poll r with
  | None, _ -> ()
  | Some _, _ -> Alcotest.fail "one copy must not deliver with threshold 2");
  let r = P.on_data r 0 in
  (match P.receiver_poll r with
  | Some Spec.Rdeliver, _ -> ()
  | _ -> Alcotest.fail "two copies must deliver");
  (* Stale copies of the wrong bit are ignored. *)
  let r2 = P.on_data P.receiver_init 1 in
  match P.receiver_poll r2 with
  | None, _ -> ()
  | Some _, _ -> Alcotest.fail "wrong bit must not count"

let test_flood_sender_needs_threshold_acks () =
  let (module P) = (Flood.make ~base:2 ~ratio:2.0 () : Spec.t) in
  let s = P.on_submit P.sender_init in
  let s = match P.sender_poll s with Some 0, s -> s | _ -> Alcotest.fail "expected D0" in
  let s = P.on_ack s 2 in
  (* One ack: epoch still open, sender keeps flooding D0. *)
  let s =
    match P.sender_poll s with Some 0, s -> s | _ -> Alcotest.fail "epoch must stay open"
  in
  let s = P.on_ack s 2 in
  (* Second ack: epoch closed; sender idle without new submission. *)
  match P.sender_poll s with
  | None, _ -> ()
  | Some _, _ -> Alcotest.fail "epoch must close after threshold acks"

let test_afek3_colours_cycle () =
  let (module P) = (Afek3.make ~retransmit:1 () : Spec.t) in
  let s = P.on_submit (P.on_submit (P.on_submit P.sender_init)) in
  let s = match P.sender_poll s with Some 0, s -> s | _ -> Alcotest.fail "colour 0" in
  (* Receiver delivers on first colour-0 packet and echoes it. *)
  let r = P.on_data P.receiver_init 0 in
  let r = match P.receiver_poll r with Some Spec.Rdeliver, r -> r | _ -> Alcotest.fail "deliver" in
  (match P.receiver_poll r with
  | Some (Spec.Rsend 3), _ -> ()
  | _ -> Alcotest.fail "echo of colour 0 expected");
  (* Sender sees the echo, completes, then sends colour 1. *)
  let s = P.on_ack s 3 in
  let s = match P.sender_poll s with None, s -> s | _ -> Alcotest.fail "completion turn" in
  match P.sender_poll s with
  | Some 1, _ -> ()
  | _ -> Alcotest.fail "colour 1 expected"

let test_afek3_stale_colour_not_delivered () =
  let (module P) = (Afek3.make () : Spec.t) in
  (* Receiver expecting colour 0; colour 2 arrives: echoed, not delivered. *)
  let r = P.on_data P.receiver_init 2 in
  match P.receiver_poll r with
  | Some (Spec.Rsend 5), r -> (
      match P.receiver_poll r with
      | None, _ -> ()
      | Some _, _ -> Alcotest.fail "no delivery for wrong colour")
  | _ -> Alcotest.fail "echo expected first"

let test_afek3_flush_blocks_colour_reuse () =
  (* If a colour-0 copy is never echoed, the sender must not start epoch 2
     (which is when the receiver would begin trusting colour 2... epoch
     blocked is the one reusing the unechoed colour's slot: epoch 2 needs
     colour (2+1) mod 3 = 0 drained). *)
  let (module P) = (Afek3.make ~retransmit:1 ~ping_every:1 () : Spec.t) in
  let s = List.fold_left (fun s _ -> P.on_submit s) P.sender_init [ 1; 2; 3 ] in
  (* Epoch 0: two copies of colour 0 sent, only one echoed. *)
  let s = match P.sender_poll s with Some 0, s -> s | _ -> Alcotest.fail "D0" in
  let s = match P.sender_poll s with Some 0, s -> s | _ -> Alcotest.fail "D0 again" in
  let s = P.on_ack s 3 in
  (* completes epoch 0 *)
  let s = match P.sender_poll s with None, s -> s | _ -> Alcotest.fail "complete" in
  (* Epoch 1 (colour 1) proceeds: flush target is colour 2, clean. *)
  let s = match P.sender_poll s with Some 1, s -> s | _ -> Alcotest.fail "D1" in
  let s = P.on_ack s 4 in
  let s = match P.sender_poll s with None, s -> s | _ -> Alcotest.fail "complete 1" in
  (* Epoch 2 (colour 2) must BLOCK: colour 0 has 2 sent, 1 echoed. *)
  (match P.sender_poll s with
  | Some p, _ -> checkb "only pings of previous colour allowed" true (p = 1)
  | None, _ -> ());
  (* Echo the second colour-0 copy: now epoch 2 opens. *)
  let s = P.on_ack s 3 in
  let rec find_d2 s n =
    if n = 0 then Alcotest.fail "epoch 2 never opened"
    else
      match P.sender_poll s with
      | Some 2, _ -> ()
      | _, s -> find_d2 s (n - 1)
  in
  find_d2 s 5

(* --------------------------------------- integration: harness scenarios *)

let run ?(n = 12) ?(seed = 1) ?(submit_every = 3) ?(max_rounds = 300_000) proto tr rt =
  Nfc_sim.Harness.run proto
    {
      Nfc_sim.Harness.default_config with
      policy_tr = tr;
      policy_rt = rt;
      n_messages = n;
      submit_every;
      seed;
      max_rounds;
    }

let assert_complete name res =
  let m = res.Nfc_sim.Harness.metrics in
  checkb (name ^ ": no DL violation") true (m.Nfc_sim.Metrics.dl_violation = None);
  checkb (name ^ ": no PL violation") true (m.Nfc_sim.Metrics.pl_violation = None);
  checkb (name ^ ": completed") true m.Nfc_sim.Metrics.completed

let assert_safe name res =
  let m = res.Nfc_sim.Harness.metrics in
  checkb (name ^ ": no DL violation") true (m.Nfc_sim.Metrics.dl_violation = None);
  checkb (name ^ ": no PL violation") true (m.Nfc_sim.Metrics.pl_violation = None)

let test_all_protocols_on_reliable_fifo () =
  List.iter
    (fun proto ->
      assert_complete (Spec.name proto)
        (run proto Nfc_channel.Policy.fifo_reliable Nfc_channel.Policy.fifo_reliable))
    [
      Stop_and_wait.make ();
      Alternating_bit.make ();
      Stenning.make ();
      Flood.make ();
      Afek3.make ();
    ]

let test_alternating_bit_on_lossy_fifo () =
  for seed = 1 to 5 do
    assert_complete "altbit lossy"
      (run ~seed (Alternating_bit.make ())
         (Nfc_channel.Policy.fifo_lossy ~loss:0.3)
         (Nfc_channel.Policy.fifo_lossy ~loss:0.3))
  done

let test_stop_and_wait_breaks_on_loss () =
  (* The header-free protocol must eventually duplicate a delivery. *)
  let violated = ref false in
  for seed = 1 to 10 do
    let res =
      run ~seed (Stop_and_wait.make ())
        (Nfc_channel.Policy.fifo_lossy ~loss:0.3)
        (Nfc_channel.Policy.fifo_lossy ~loss:0.3)
    in
    if res.Nfc_sim.Harness.metrics.Nfc_sim.Metrics.dl_violation <> None then violated := true
  done;
  checkb "DL1 violated on some seed" true !violated

let test_alternating_bit_breaks_on_reorder () =
  let violated = ref false in
  for seed = 1 to 10 do
    let res =
      run ~seed ~n:30 ~submit_every:2 (Alternating_bit.make ())
        (Nfc_channel.Policy.uniform_reorder ~deliver:0.3 ~drop:0.0)
        (Nfc_channel.Policy.uniform_reorder ~deliver:0.3 ~drop:0.0)
    in
    if res.Nfc_sim.Harness.metrics.Nfc_sim.Metrics.dl_violation <> None then violated := true
  done;
  checkb "DL1 violated under reordering" true !violated

let test_stenning_safe_and_live_everywhere () =
  let channels =
    [
      Nfc_channel.Policy.fifo_lossy ~loss:0.3;
      Nfc_channel.Policy.uniform_reorder ~deliver:0.6 ~drop:0.1;
      Nfc_channel.Policy.probabilistic ~q:0.4 ();
    ]
  in
  List.iter
    (fun ch ->
      for seed = 1 to 3 do
        assert_complete "stenning" (run ~seed (Stenning.make ()) ch ch)
      done)
    channels

let test_afek3_safe_and_live_on_delay_channels () =
  let channels =
    [
      Nfc_channel.Policy.uniform_reorder ~deliver:0.6 ~drop:0.0;
      Nfc_channel.Policy.probabilistic ~q:0.4 ();
    ]
  in
  List.iter
    (fun ch ->
      for seed = 1 to 3 do
        assert_complete "afek3" (run ~seed (Afek3.make ()) ch ch)
      done)
    channels

let test_afek3_safe_under_loss () =
  (* Under loss Afek3 may block (flush never completes) but must stay
     safe. *)
  for seed = 1 to 5 do
    let res =
      run ~seed ~max_rounds:20_000 (Afek3.make ())
        (Nfc_channel.Policy.uniform_reorder ~deliver:0.5 ~drop:0.2)
        (Nfc_channel.Policy.uniform_reorder ~deliver:0.5 ~drop:0.2)
    in
    assert_safe "afek3 lossy" res
  done

let test_flood_safe_and_live_on_probabilistic () =
  for seed = 1 to 3 do
    assert_complete "flood"
      (run ~seed ~n:8 (Flood.make ())
         (Nfc_channel.Policy.probabilistic ~q:0.3 ())
         (Nfc_channel.Policy.probabilistic ~q:0.3 ()))
  done

let test_flood_packets_exponential () =
  (* Delivering n messages costs at least sum of thresholds = 2^n - 1
     forward packets, even on a perfect channel. *)
  let res = run ~n:8 ~submit_every:0 (Flood.make ~base:1 ~ratio:2.0 ())
      Nfc_channel.Policy.fifo_reliable Nfc_channel.Policy.fifo_reliable
  in
  let m = res.Nfc_sim.Harness.metrics in
  checkb "completed" true m.Nfc_sim.Metrics.completed;
  checkb "at least 2^8-1 data packets" true (m.Nfc_sim.Metrics.pkts_tr_sent >= 255)

let test_stenning_headers_grow_flood_headers_bounded () =
  let res_s = run ~n:20 (Stenning.make ()) Nfc_channel.Policy.fifo_reliable
      Nfc_channel.Policy.fifo_reliable
  in
  let res_f = run ~n:8 (Flood.make ()) Nfc_channel.Policy.fifo_reliable
      Nfc_channel.Policy.fifo_reliable
  in
  let hs = Nfc_sim.Metrics.total_headers res_s.Nfc_sim.Harness.metrics in
  let hf = Nfc_sim.Metrics.total_headers res_f.Nfc_sim.Harness.metrics in
  checkb "stenning headers ~ 2n" true (hs >= 20);
  checkb "flood headers <= 4" true (hf <= 4)

let test_go_back_n_basics () =
  let (module P) = (Go_back_n.make ~window:3 () : Spec.t) in
  (* Three submissions fill the window in order 0, 2, 4 (data packets). *)
  let s = List.fold_left (fun s _ -> P.on_submit s) P.sender_init [ (); (); (); () ] in
  let s = match P.sender_poll s with Some 0, s -> s | _ -> Alcotest.fail "data 0" in
  let s = match P.sender_poll s with Some 2, s -> s | _ -> Alcotest.fail "data 1" in
  let s = match P.sender_poll s with Some 4, s -> s | _ -> Alcotest.fail "data 2" in
  (* Window full: fourth message must wait. *)
  (match P.sender_poll s with
  | None, _ -> ()
  | Some _, _ -> Alcotest.fail "window must be closed");
  (* Cumulative ack for message 1 opens two slots. *)
  let s = P.on_ack s 3 in
  match P.sender_poll s with
  | Some 6, _ -> ()
  | _ -> Alcotest.fail "window should slide to message 3"

let test_go_back_n_receiver_gap () =
  let (module P) = (Go_back_n.make () : Spec.t) in
  (* Message 1 before message 0: ignored (gap). *)
  let r = P.on_data P.receiver_init 2 in
  (match P.receiver_poll r with
  | None, _ -> ()
  | Some _, _ -> Alcotest.fail "gap must not deliver or ack");
  (* Stale data gets a cumulative re-ack. *)
  let r = P.on_data P.receiver_init 0 in
  let r = match P.receiver_poll r with Some Spec.Rdeliver, r -> r | _ -> Alcotest.fail "deliver" in
  let r = match P.receiver_poll r with Some (Spec.Rsend 1), r -> r | _ -> Alcotest.fail "ack 0" in
  let r = P.on_data r 0 in
  match P.receiver_poll r with
  | Some (Spec.Rsend 1), _ -> ()
  | _ -> Alcotest.fail "stale data must be re-acked cumulatively"

let test_go_back_n_safe_and_live () =
  let channels =
    [
      Nfc_channel.Policy.fifo_lossy ~loss:0.3;
      Nfc_channel.Policy.uniform_reorder ~deliver:0.6 ~drop:0.1;
      Nfc_channel.Policy.probabilistic ~q:0.4 ();
    ]
  in
  List.iter
    (fun ch ->
      for seed = 1 to 3 do
        assert_complete "go-back-n" (run ~seed ~n:15 (Go_back_n.make ()) ch ch)
      done)
    channels

let test_go_back_n_faster_than_stenning () =
  (* Pipelining: over a channel with real propagation delay, go-back-n
     finishes the same workload in far fewer rounds than one-at-a-time
     Stenning.  (Under pure reordering GBN is actually worse — its
     cumulative retransmission storms — which is the classic reason
     selective repeat exists.) *)
  let slow () = Nfc_channel.Policy.fifo_delayed ~latency:10 ~loss:0.1 () in
  let rounds proto seed =
    (run ~seed ~n:30 ~submit_every:0 proto (slow ()) (slow ())).Nfc_sim.Harness.metrics
      .Nfc_sim.Metrics.rounds
  in
  let wins = ref 0 in
  for seed = 1 to 5 do
    if
      rounds (Go_back_n.make ~window:8 ~timeout:30 ()) seed
      < rounds (Stenning.make ~timeout:30 ()) seed
    then incr wins
  done;
  checkb "windowing wins every seed" true (!wins = 5)

let test_selective_repeat_buffers_out_of_order () =
  let (module P) = (Selective_repeat.make ~window:4 () : Spec.t) in
  (* Message 2 arrives before 0 and 1: buffered, acked, not delivered. *)
  let r = P.on_data P.receiver_init 4 in
  let r = match P.receiver_poll r with
    | Some (Spec.Rsend 5), r -> r
    | _ -> Alcotest.fail "selective ack for 2 expected" in
  (match P.receiver_poll r with
  | None, _ -> ()
  | Some _, _ -> Alcotest.fail "nothing to deliver yet");
  (* Message 0 arrives: deliver 0; then 1 arrives: deliver 1 and 2. *)
  let r = P.on_data r 0 in
  let r = match P.receiver_poll r with Some Spec.Rdeliver, r -> r | _ -> Alcotest.fail "deliver 0" in
  let r = match P.receiver_poll r with Some (Spec.Rsend 1), r -> r | _ -> Alcotest.fail "ack 0" in
  let r = P.on_data r 2 in
  let r = match P.receiver_poll r with Some Spec.Rdeliver, r -> r | _ -> Alcotest.fail "deliver 1" in
  (match P.receiver_poll r with
  | Some Spec.Rdeliver, _ -> ()
  | _ -> Alcotest.fail "buffered message 2 must drain")

let test_selective_repeat_retransmits_only_missing () =
  let (module P) = (Selective_repeat.make ~window:3 ~timeout:1 () : Spec.t) in
  let s = List.fold_left (fun s _ -> P.on_submit s) P.sender_init [ (); (); () ] in
  let s = match P.sender_poll s with Some 0, s -> s | _ -> Alcotest.fail "d0" in
  let s = match P.sender_poll s with Some 2, s -> s | _ -> Alcotest.fail "d1" in
  let s = match P.sender_poll s with Some 4, s -> s | _ -> Alcotest.fail "d2" in
  (* Ack the middle message only; the sweep must resend 0 and 2, not 1. *)
  let s = P.on_ack s 3 in
  let sent = ref [] in
  let rec drain s n =
    if n = 0 then ()
    else
      match P.sender_poll s with
      | Some p, s -> sent := p :: !sent; drain s (n - 1)
      | None, s -> drain s (n - 1)
  in
  drain s 6;
  checkb "resends 0" true (List.mem 0 !sent);
  checkb "resends 2 (msg 2)" true (List.mem 4 !sent);
  checkb "never resends acked msg 1" false (List.mem 2 !sent)

let test_selective_repeat_safe_and_live () =
  let channels =
    [
      Nfc_channel.Policy.fifo_lossy ~loss:0.3;
      Nfc_channel.Policy.uniform_reorder ~deliver:0.6 ~drop:0.1;
      Nfc_channel.Policy.probabilistic ~q:0.4 ();
    ]
  in
  List.iter
    (fun ch ->
      for seed = 1 to 3 do
        assert_complete "selective-repeat" (run ~seed ~n:15 (Selective_repeat.make ()) ch ch)
      done)
    channels

let test_selective_repeat_beats_gbn_under_reorder () =
  (* The reason selective repeat exists: under reordering it avoids
     Go-Back-N's cumulative retransmission storms. *)
  let reorder () = Nfc_channel.Policy.uniform_reorder ~deliver:0.5 ~drop:0.0 in
  let packets proto seed =
    let m = (run ~seed ~n:30 ~submit_every:0 proto (reorder ()) (reorder ())).Nfc_sim.Harness.metrics in
    Nfc_sim.Metrics.total_packets m
  in
  let wins = ref 0 in
  for seed = 1 to 5 do
    if packets (Selective_repeat.make ~window:8 ()) seed
       < packets (Go_back_n.make ~window:8 ()) seed
    then incr wins
  done;
  checkb "selective repeat cheaper most seeds" true (!wins >= 4)

let test_registry_parse () =
  checkb "stenning" true (Result.is_ok (Registry.parse "stenning"));
  checkb "alias sw" true (Result.is_ok (Registry.parse "sw"));
  checkb "flood with params" true (Result.is_ok (Registry.parse "flood:2:1.5"));
  checkb "sr with window" true (Result.is_ok (Registry.parse "sr:16"));
  checkb "unknown rejected" true (Result.is_error (Registry.parse "tcp"));
  checkb "bad params rejected" true (Result.is_error (Registry.parse "flood:0:0.5"));
  checkb "extra params rejected" true (Result.is_error (Registry.parse "stenning:3"))

let test_registry_covers_all_protocols () =
  checki "eight entries" 8 (List.length Registry.all);
  let names = List.map Spec.name (Registry.defaults ()) in
  checki "no duplicate defaults" (List.length names)
    (List.length (List.sort_uniq compare names));
  (* Every key and alias resolves to its own entry (compare by key;
     entries contain closures). *)
  let resolves_to key name =
    match Registry.find name with
    | Some e -> e.Registry.key = key
    | None -> false
  in
  List.iter
    (fun (e : Registry.entry) ->
      checkb (e.key ^ " resolves") true (resolves_to e.key e.key);
      List.iter (fun a -> checkb (a ^ " resolves") true (resolves_to e.key a)) e.aliases)
    Registry.all

let test_space_instrumentation () =
  let res = run ~n:16 (Stenning.make ()) Nfc_channel.Policy.fifo_reliable
      Nfc_channel.Policy.fifo_reliable
  in
  let m = res.Nfc_sim.Harness.metrics in
  checkb "sender space grows past initial" true (m.Nfc_sim.Metrics.max_sender_space_bits > 4);
  checkb "receiver space positive" true (m.Nfc_sim.Metrics.max_receiver_space_bits > 0)

(* --------------------------------------------------- qcheck: random seeds *)

let safe_protocols =
  [
    ("stenning", fun () -> Stenning.make ());
    ("afek3", fun () -> Afek3.make ());
  ]

let prop_safety_under_random_delay_channels =
  (* No safe protocol ever violates DL1/DL2/PL1 under randomized reordering
     delay-only channels, regardless of seed. *)
  QCheck.Test.make ~name:"stenning/afek3 safety under random reorder" ~count:60
    QCheck.(pair (int_bound 10_000) (int_range 0 1))
    (fun (seed, which) ->
      let name, mk = List.nth safe_protocols which in
      ignore name;
      let ch () = Nfc_channel.Policy.uniform_reorder ~deliver:0.5 ~drop:0.0 in
      let res = run ~seed ~n:8 ~max_rounds:30_000 (mk ()) (ch ()) (ch ()) in
      let m = res.Nfc_sim.Harness.metrics in
      m.Nfc_sim.Metrics.dl_violation = None && m.Nfc_sim.Metrics.pl_violation = None)

let prop_stenning_liveness_random_loss =
  QCheck.Test.make ~name:"stenning completes under random loss" ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let ch () = Nfc_channel.Policy.fifo_lossy ~loss:0.4 in
      let res = run ~seed ~n:6 (Stenning.make ()) (ch ()) (ch ()) in
      res.Nfc_sim.Harness.metrics.Nfc_sim.Metrics.completed)

let prop_flood_safety_with_margin =
  (* Flood with a healthy ratio stays safe on the probabilistic channel. *)
  QCheck.Test.make ~name:"flood(r=2) safety on probabilistic q=0.3" ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let ch () = Nfc_channel.Policy.probabilistic ~q:0.3 () in
      let res = run ~seed ~n:6 ~max_rounds:100_000 (Flood.make ()) (ch ()) (ch ()) in
      res.Nfc_sim.Harness.metrics.Nfc_sim.Metrics.dl_violation = None)

(* ---------------------------------- unit: receiver hash hooks see the queue *)

(* After the first data packet 0 every protocol below counts it as stale:
   each further copy only appends the same owed acknowledgement (echo,
   for afek3) to the receiver's queue.  Receivers whose queues differ
   only in length must land in distinct buckets of the engine's
   interner, including past the 10 words [Hashtbl.hash] reads of a
   list. *)
let test_receiver_hash_reads_whole_queue () =
  List.iter
    (fun (spec : Spec.t) ->
      let module P = (val spec : Spec.S) in
      let hash = Option.get P.hash_receiver in
      let rec feed r n = if n = 0 then r else feed (P.on_data r 0) (n - 1) in
      let rs = List.init 8 (fun i -> feed P.receiver_init (9 + i)) in
      let distinct cmp xs = List.length (List.sort_uniq cmp xs) in
      checki (P.name ^ " receivers distinct") 8 (distinct P.compare_receiver rs);
      checki (P.name ^ " hashes distinct") 8 (distinct compare (List.map hash rs)))
    [
      Alternating_bit.make ();
      Stenning.make ();
      Go_back_n.make ();
      Selective_repeat.make ();
      Afek3.make ();
    ]

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_safety_under_random_delay_channels;
      prop_stenning_liveness_random_loss;
      prop_flood_safety_with_margin;
    ]

let suite =
  [
    ("bits_for_int", `Quick, test_bits_for_int);
    ("names and bounds", `Quick, test_registry_names);
    ("constructor validation", `Quick, test_make_validation);
    ("stop-and-wait hand drive", `Quick, test_stop_and_wait_hand);
    ("alternating bit flips", `Quick, test_alternating_bit_bits);
    ("alternating bit wrong ack", `Quick, test_alternating_bit_wrong_ack_ignored);
    ("alternating bit duplicate data", `Quick, test_alternating_bit_duplicate_data_not_redelivered);
    ("stenning sequence numbers", `Quick, test_stenning_sequence_numbers);
    ("stenning out of order", `Quick, test_stenning_out_of_order_ignored);
    ("flood thresholds grow", `Quick, test_flood_thresholds_grow);
    ("flood sender ack threshold", `Quick, test_flood_sender_needs_threshold_acks);
    ("afek3 colours cycle", `Quick, test_afek3_colours_cycle);
    ("afek3 stale colour ignored", `Quick, test_afek3_stale_colour_not_delivered);
    ("afek3 flush blocks reuse", `Quick, test_afek3_flush_blocks_colour_reuse);
    ("all protocols on reliable fifo", `Quick, test_all_protocols_on_reliable_fifo);
    ("altbit on lossy fifo", `Quick, test_alternating_bit_on_lossy_fifo);
    ("stop-and-wait breaks on loss", `Quick, test_stop_and_wait_breaks_on_loss);
    ("altbit breaks on reorder", `Quick, test_alternating_bit_breaks_on_reorder);
    ("stenning safe+live everywhere", `Quick, test_stenning_safe_and_live_everywhere);
    ("afek3 safe+live on delay", `Quick, test_afek3_safe_and_live_on_delay_channels);
    ("afek3 safe under loss", `Quick, test_afek3_safe_under_loss);
    ("flood safe+live probabilistic", `Quick, test_flood_safe_and_live_on_probabilistic);
    ("go-back-n basics", `Quick, test_go_back_n_basics);
    ("go-back-n receiver gap", `Quick, test_go_back_n_receiver_gap);
    ("go-back-n safe+live", `Quick, test_go_back_n_safe_and_live);
    ("go-back-n pipelining wins", `Quick, test_go_back_n_faster_than_stenning);
    ("selective repeat buffering", `Quick, test_selective_repeat_buffers_out_of_order);
    ("selective repeat selective resend", `Quick, test_selective_repeat_retransmits_only_missing);
    ("selective repeat safe+live", `Quick, test_selective_repeat_safe_and_live);
    ("selective repeat beats gbn", `Quick, test_selective_repeat_beats_gbn_under_reorder);
    ("registry parse", `Quick, test_registry_parse);
    ("registry coverage", `Quick, test_registry_covers_all_protocols);
    ("flood packets exponential", `Quick, test_flood_packets_exponential);
    ("header census", `Quick, test_stenning_headers_grow_flood_headers_bounded);
    ("space instrumentation", `Quick, test_space_instrumentation);
    ("receiver hash hooks read the whole queue", `Quick, test_receiver_hash_reads_whole_queue);
  ]
  @ qsuite
