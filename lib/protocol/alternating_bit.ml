(** The alternating bit protocol [BSW69], the paper's running example of a
    bounded-header protocol.

    Packets: data with bit b is [b] (0 or 1); the acknowledgement for bit b
    is [2 + b].  Four headers total.

    The sender transmits the current message under bit b, retransmitting
    every [timeout] polls, and flips the bit when the matching ack arrives.
    The receiver delivers a data packet exactly when its bit matches the
    expected bit, flips its expectation, and (re-)acknowledges the last bit
    received.

    The protocol is correct over lossy FIFO channels.  Over a non-FIFO
    channel it is unsafe: a delayed duplicate of an old bit-b packet
    arriving when the receiver again expects b is indistinguishable from a
    fresh message.  {!Nfc_mcheck} finds the violating execution; Theorem
    3.1 explains why no bounded-header protocol can avoid it. *)

let data_pkt b = b
let ack_pkt b = 2 + b

let make ?(timeout = 4) () : Spec.t =
  if timeout < 1 then invalid_arg "Alternating_bit.make: timeout must be >= 1";
  (module struct
    let name = "alternating-bit"
    let describe = "2 data + 2 ack headers; safe on FIFO, unsafe on non-FIFO"
    let header_bound = Some 4

    type sender = {
      bit : int;
      pending : int;
      inflight : bool;
      timer : int;
    }

    type receiver = {
      expected : int;  (** bit expected next *)
      deliver_due : int;
      ack_due : int Nfc_util.Deque.t;  (** acknowledgements owed, in order *)
    }

    let sender_init = { bit = 0; pending = 0; inflight = false; timer = 0 }

    let on_submit s = { s with pending = s.pending + 1 }

    let on_ack s p =
      if s.inflight && p = ack_pkt s.bit then
        { s with inflight = false; bit = 1 - s.bit }
      else s

    let sender_poll s =
      if s.inflight then
        if s.timer <= 0 then (Some (data_pkt s.bit), { s with timer = timeout - 1 })
        else (None, { s with timer = s.timer - 1 })
      else if s.pending > 0 then
        (Some (data_pkt s.bit), { s with pending = s.pending - 1; inflight = true; timer = timeout - 1 })
      else (None, s)

    let receiver_init = { expected = 0; deliver_due = 0; ack_due = Nfc_util.Deque.empty }

    let on_data r p =
      if p = 0 || p = 1 then
        let ack_due = Nfc_util.Deque.push_back (ack_pkt p) r.ack_due in
        if p = r.expected then
          { expected = 1 - r.expected; deliver_due = r.deliver_due + 1; ack_due }
        else { r with ack_due }
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

    (* Hash the comparator's normal form: two deques holding the same ack
       sequence may differ structurally. *)
    let hash_receiver =
      Some
        (fun r ->
          Spec.structural_hash (r.expected, r.deliver_due, Nfc_util.Deque.hash r.ack_due))

    (* Cover saturation.  The sender is finite under a budget.  The
       receiver absorbs ω data packets into [deliver_due] and [ack_due];
       pending deliveries saturate at [budget + 2] (deliveries are gated
       at [submitted + 1]) and the owed-ack queue collapses runs of equal
       acks to two — the receiver re-acks every data receipt, so dropped
       duplicates are regenerable from the ω data still in transit. *)
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
      Format.fprintf ppf "{bit=%d; pending=%d; inflight=%b; timer=%d}" s.bit s.pending
        s.inflight s.timer

    let pp_receiver ppf r =
      Format.fprintf ppf "{expected=%d; deliver_due=%d; acks=%d}" r.expected r.deliver_due
        (Nfc_util.Deque.length r.ack_due)

    let sender_space_bits s = 1 + Spec.bits_for_int s.pending + 1 + Spec.bits_for_int s.timer

    let receiver_space_bits r =
      1 + Spec.bits_for_int r.deliver_due + (2 * Nfc_util.Deque.length r.ack_due)
  end)
