(** Stenning's sequence-number protocol — the "naive protocol" of the
    paper's introduction, which delivers the i-th message using the i-th
    header in O(log n) space.

    Packets: data for message i is [2i]; the acknowledgement for message i
    is [2i + 1].  The header count grows linearly with the number of
    messages ([header_bound = None]); in exchange the protocol is safe and
    live over arbitrary non-FIFO lossy channels, and its space is the
    logarithm of the sequence number — exactly the trade-off the paper
    proves unavoidable (Theorem 3.1: with fewer than n headers, space
    cannot be bounded by any function of n).

    The sender transmits the current message's data packet, retransmitting
    every [timeout] polls, and advances when the matching ack arrives.  The
    receiver delivers data packet [2i] exactly when [i] is the next
    expected index, and (re-)acknowledges every data index at or below the
    expected one. *)

let data_pkt i = 2 * i
let ack_pkt i = (2 * i) + 1

let make ?(timeout = 4) () : Spec.t =
  if timeout < 1 then invalid_arg "Stenning.make: timeout must be >= 1";
  (module struct
    let name = "stenning"
    let describe = "unbounded headers (seq numbers); safe+live on any channel"
    let header_bound = None

    type sender = {
      seq : int;  (** index of the message currently in flight *)
      pending : int;
      inflight : bool;
      timer : int;
    }

    type receiver = {
      expected : int;  (** next message index to deliver *)
      deliver_due : int;
      ack_due : int Nfc_util.Deque.t;
    }

    let sender_init = { seq = 0; pending = 0; inflight = false; timer = 0 }
    let on_submit s = { s with pending = s.pending + 1 }

    let on_ack s p =
      if s.inflight && p = ack_pkt s.seq then
        { s with inflight = false; seq = s.seq + 1 }
      else s

    let sender_poll s =
      if s.inflight then
        if s.timer <= 0 then (Some (data_pkt s.seq), { s with timer = timeout - 1 })
        else (None, { s with timer = s.timer - 1 })
      else if s.pending > 0 then
        (Some (data_pkt s.seq), { s with pending = s.pending - 1; inflight = true; timer = timeout - 1 })
      else (None, s)

    let receiver_init = { expected = 0; deliver_due = 0; ack_due = Nfc_util.Deque.empty }

    let on_data r p =
      if p land 1 = 0 then begin
        let i = p / 2 in
        if i = r.expected then
          {
            expected = r.expected + 1;
            deliver_due = r.deliver_due + 1;
            ack_due = Nfc_util.Deque.push_back (ack_pkt i) r.ack_due;
          }
        else if i < r.expected then
          (* A stale copy or retransmission: re-acknowledge so the sender
             can make progress, never re-deliver. *)
          { r with ack_due = Nfc_util.Deque.push_back (ack_pkt i) r.ack_due }
        else r (* from the future: impossible with this sender; ignore *)
      end
      else r

    let receiver_poll r =
      if r.deliver_due > 0 then (Some Spec.Rdeliver, { r with deliver_due = r.deliver_due - 1 })
      else
        match Nfc_util.Deque.pop_front r.ack_due with
        | Some (a, ack_due) -> (Some (Spec.Rsend a), { r with ack_due })
        | None -> (None, r)

    let compare_sender = Stdlib.compare

    let compare_receiver a b =
      Stdlib.compare
        (a.expected, a.deliver_due, Nfc_util.Deque.to_list a.ack_due)
        (b.expected, b.deliver_due, Nfc_util.Deque.to_list b.ack_due)

    let hash_sender = Some Spec.structural_hash

    let hash_receiver =
      Some
        (fun r ->
          Spec.structural_hash (r.expected, r.deliver_due, Nfc_util.Deque.hash r.ack_due))

    (* Cover saturation.  [expected] is bounded by the budget (the sender
       never issues an index above [submitted]); the owed-work fields
       saturate exactly as in {!Alternating_bit}: pending deliveries cap
       at [budget + 2] and the re-ack queue collapses equal runs, the
       extras being regenerable from ω data still in transit. *)
    let cover_norm_sender = None

    let cover_norm_receiver =
      Some
        (fun ~budget r ->
          {
            r with
            deliver_due = Spec.saturate_counter ~cap:(budget + 2) r.deliver_due;
            ack_due = Spec.saturate_deque ~max_len:(2 * (budget + 1)) r.ack_due;
          })

    let pp_sender ppf s =
      Format.fprintf ppf "{seq=%d; pending=%d; inflight=%b; timer=%d}" s.seq s.pending
        s.inflight s.timer

    let pp_receiver ppf r =
      Format.fprintf ppf "{expected=%d; deliver_due=%d; acks=%d}" r.expected r.deliver_due
        (Nfc_util.Deque.length r.ack_due)

    let sender_space_bits s =
      Spec.bits_for_int s.seq + Spec.bits_for_int s.pending + 1 + Spec.bits_for_int s.timer

    let receiver_space_bits r =
      Spec.bits_for_int r.expected
      + Spec.bits_for_int r.deliver_due
      + Nfc_util.Deque.fold (fun acc a -> acc + Spec.bits_for_int a) 0 r.ack_due
  end)
