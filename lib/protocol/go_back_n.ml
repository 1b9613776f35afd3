(** Go-Back-N: a pipelined sequence-number protocol.

    Stenning's protocol ({!Stenning}) keeps one message in flight;
    Go-Back-N keeps up to [window] of them, retransmitting from the lowest
    unacknowledged index on timeout.  Packets: data for message i is [2i],
    the cumulative acknowledgement "received everything below i" is
    [2i + 1].

    Resource profile: identical to Stenning in the paper's three measures
    (headers grow ~2n, space O(log n + W), safe and live over arbitrary
    non-FIFO lossy channels) but far fewer rounds on slow channels — the
    practical reason real data links pay for growing headers, included
    here so the benchmarks can show the *performance* side of the paper's
    "pay unbounded headers" conclusion.

    Safety argument (same as Stenning's): the receiver delivers data index
    i only when i is exactly the next expected index, and indices are never
    reused, so stale copies are re-acknowledged but never re-delivered. *)

let data_pkt i = 2 * i
let ack_pkt i = (2 * i) + 1

let make ?(window = 4) ?(timeout = 8) () : Spec.t =
  if window < 1 then invalid_arg "Go_back_n.make: window must be >= 1";
  if timeout < 1 then invalid_arg "Go_back_n.make: timeout must be >= 1";
  (module struct
    let name = Printf.sprintf "go-back-%d" window
    let describe = "pipelined sequence numbers; Stenning with a window"
    let header_bound = None

    type sender = {
      base : int;  (** lowest unacknowledged message index *)
      next : int;  (** next index to transmit (base <= next <= base+window) *)
      submitted : int;  (** total messages accepted from the user *)
      timer : int;  (** polls until retransmission sweep *)
      resend_from : int option;  (** in-progress retransmission cursor *)
    }

    type receiver = {
      expected : int;
      deliver_due : int;
      ack_due : int Nfc_util.Deque.t;
    }

    let sender_init = { base = 0; next = 0; submitted = 0; timer = 0; resend_from = None }
    let on_submit s = { s with submitted = s.submitted + 1 }

    let on_ack s p =
      if p land 1 = 1 then begin
        (* Cumulative ack: everything strictly below [i+1] received. *)
        let upto = ((p - 1) / 2) + 1 in
        if upto > s.base then
          let base = min upto s.next in
          { s with base; timer = timeout - 1; resend_from = None }
        else s
      end
      else s

    let sender_poll s =
      match s.resend_from with
      | Some i when i < s.next ->
          (* Retransmission sweep in progress: resend [i], advance cursor. *)
          let resend_from = if i + 1 < s.next then Some (i + 1) else None in
          (Some (data_pkt i), { s with resend_from; timer = timeout - 1 })
      | _ ->
          if s.next < s.submitted && s.next < s.base + window then
            (* Window open: transmit the next fresh message. *)
            (Some (data_pkt s.next), { s with next = s.next + 1; timer = timeout - 1 })
          else if s.base < s.next then
            if s.timer <= 0 then
              (* Timeout: go back to [base] and resend the whole window. *)
              let resend_from = if s.base + 1 < s.next then Some (s.base + 1) else None in
              (Some (data_pkt s.base), { s with resend_from; timer = timeout - 1 })
            else (None, { s with timer = s.timer - 1 })
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
          (* Stale: re-ack the highest delivered index (cumulative). *)
          { r with ack_due = Nfc_util.Deque.push_back (ack_pkt (r.expected - 1)) r.ack_due }
        else r (* gap: wait for the retransmission sweep *)
      end
      else r

    let receiver_poll r =
      if r.deliver_due > 0 then
        (Some Spec.Rdeliver, { r with deliver_due = r.deliver_due - 1 })
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

    (* Cover saturation: identical argument to {!Stenning} — [expected] is
       budget-bounded, pending deliveries cap at [budget + 2], and the
       cumulative re-ack queue collapses equal runs (stale data always
       re-acks [expected - 1], so the queue is runs by construction). *)
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
      Format.fprintf ppf "{base=%d; next=%d; submitted=%d; timer=%d}" s.base s.next
        s.submitted s.timer

    let pp_receiver ppf r =
      Format.fprintf ppf "{expected=%d; due=%d; acks=%d}" r.expected r.deliver_due
        (Nfc_util.Deque.length r.ack_due)

    let sender_space_bits s =
      Spec.bits_for_int s.base + Spec.bits_for_int s.next + Spec.bits_for_int s.submitted
      + Spec.bits_for_int s.timer

    let receiver_space_bits r =
      Spec.bits_for_int r.expected
      + Spec.bits_for_int r.deliver_due
      + Nfc_util.Deque.fold (fun acc a -> acc + Spec.bits_for_int a) 0 r.ack_due
  end)
