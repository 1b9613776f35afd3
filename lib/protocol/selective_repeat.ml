(** Selective Repeat: pipelined sequence numbers with out-of-order
    buffering.

    Packets: data for message i is [2i]; the {e selective} acknowledgement
    for message i is [2i + 1] (acks name exactly the index received, unlike
    {!Go_back_n}'s cumulative acks).

    The sender keeps a window of up to [window] unacknowledged messages and
    retransmits only the ones not yet acked (oldest-first sweep every
    [timeout] polls).  The receiver buffers out-of-order arrivals inside
    its window and delivers in order.

    This is the strongest unbounded-header protocol here: safe and live on
    arbitrary non-FIFO lossy channels like {!Stenning}, pipelined like
    {!Go_back_n}, but immune to Go-Back-N's pathology under reordering
    (no cumulative retransmission storms).  It completes the repo's answer
    to "what do the n headers of Theorem 3.1 buy you": safety, then
    latency, then reordering-tolerance. *)

module Iset = Set.Make (Int)

let data_pkt i = 2 * i
let ack_pkt i = (2 * i) + 1

let make ?(window = 4) ?(timeout = 8) () : Spec.t =
  if window < 1 then invalid_arg "Selective_repeat.make: window must be >= 1";
  if timeout < 1 then invalid_arg "Selective_repeat.make: timeout must be >= 1";
  (module struct
    let name = Printf.sprintf "selective-repeat-%d" window
    let describe = "pipelined seq numbers + out-of-order buffering"
    let header_bound = None

    type sender = {
      base : int;  (** lowest unacknowledged index *)
      next : int;  (** next fresh index to transmit *)
      submitted : int;
      acked : Iset.t;  (** acked indices in [base, next) *)
      timer : int;
      sweep : int option;  (** retransmission cursor *)
    }

    type receiver = {
      expected : int;  (** next index to deliver *)
      buffered : Iset.t;  (** received indices > expected, within window *)
      deliver_due : int;
      ack_due : int Nfc_util.Deque.t;
    }

    let sender_init =
      { base = 0; next = 0; submitted = 0; acked = Iset.empty; timer = 0; sweep = None }

    let on_submit s = { s with submitted = s.submitted + 1 }

    (* Slide [base] over the acked prefix. *)
    let slide s =
      let rec go base acked =
        if Iset.mem base acked then go (base + 1) (Iset.remove base acked) else (base, acked)
      in
      let base, acked = go s.base s.acked in
      { s with base; acked }

    let on_ack s p =
      if p land 1 = 1 then begin
        let i = (p - 1) / 2 in
        if i >= s.base && i < s.next then
          slide { s with acked = Iset.add i s.acked; sweep = None }
        else s
      end
      else s

    (* Next unacked index at or after [from], strictly below [next]. *)
    let rec next_unacked s from =
      if from >= s.next then None
      else if Iset.mem from s.acked then next_unacked s (from + 1)
      else Some from

    let sender_poll s =
      match s.sweep with
      | Some cursor -> (
          match next_unacked s cursor with
          | Some i ->
              let sweep = if i + 1 < s.next then Some (i + 1) else None in
              (Some (data_pkt i), { s with sweep; timer = timeout - 1 })
          | None -> (None, { s with sweep = None }))
      | None ->
          if s.next < s.submitted && s.next < s.base + window then
            (Some (data_pkt s.next), { s with next = s.next + 1; timer = timeout - 1 })
          else if s.base < s.next then
            if s.timer <= 0 then
              match next_unacked s s.base with
              | Some i ->
                  let sweep = if i + 1 < s.next then Some (i + 1) else None in
                  (Some (data_pkt i), { s with sweep; timer = timeout - 1 })
              | None -> (None, s)
            else (None, { s with timer = s.timer - 1 })
          else (None, s)

    let receiver_init =
      { expected = 0; buffered = Iset.empty; deliver_due = 0; ack_due = Nfc_util.Deque.empty }

    (* Deliver the in-order prefix now available. *)
    let drain r =
      let rec go expected buffered due =
        if Iset.mem expected buffered then
          go (expected + 1) (Iset.remove expected buffered) (due + 1)
        else (expected, buffered, due)
      in
      let expected, buffered, deliver_due = go r.expected r.buffered r.deliver_due in
      { r with expected; buffered; deliver_due }

    let on_data r p =
      if p land 1 = 0 then begin
        let i = p / 2 in
        let r = { r with ack_due = Nfc_util.Deque.push_back (ack_pkt i) r.ack_due } in
        if i < r.expected then r (* stale: ack only *)
        else if i < r.expected + window then drain { r with buffered = Iset.add i r.buffered }
        else r (* beyond window: ack but do not buffer *)
      end
      else r

    let receiver_poll r =
      if r.deliver_due > 0 then
        (Some Spec.Rdeliver, { r with deliver_due = r.deliver_due - 1 })
      else
        match Nfc_util.Deque.pop_front r.ack_due with
        | Some (a, ack_due) -> (Some (Spec.Rsend a), { r with ack_due })
        | None -> (None, r)

    let compare_sender a b =
      Stdlib.compare
        (a.base, a.next, a.submitted, Iset.elements a.acked, a.timer, a.sweep)
        (b.base, b.next, b.submitted, Iset.elements b.acked, b.timer, b.sweep)

    let compare_receiver a b =
      Stdlib.compare
        (a.expected, Iset.elements a.buffered, a.deliver_due, Nfc_util.Deque.to_list a.ack_due)
        (b.expected, Iset.elements b.buffered, b.deliver_due, Nfc_util.Deque.to_list b.ack_due)

    (* Both comparators normalise (set elements, deque contents); hash the
       same normal forms so compare-equal states hash equally. *)
    let hash_sender =
      Some
        (fun s ->
          Spec.structural_hash
            (s.base, s.next, s.submitted, Iset.elements s.acked, s.timer, s.sweep))

    let hash_receiver =
      Some
        (fun r ->
          Spec.structural_hash
            (r.expected, Iset.elements r.buffered, r.deliver_due,
             Nfc_util.Deque.hash r.ack_due))

    (* Cover saturation: [expected] and [buffered] are budget/window
       bounded; only the owed-work fields grow under ω data, and they
       saturate as in {!Stenning} (selective re-acks are regenerable — the
       receiver acks every data receipt). *)
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
      Format.fprintf ppf "{base=%d; next=%d; submitted=%d; acked=%d}" s.base s.next
        s.submitted (Iset.cardinal s.acked)

    let pp_receiver ppf r =
      Format.fprintf ppf "{expected=%d; buffered=%d; due=%d}" r.expected
        (Iset.cardinal r.buffered) r.deliver_due

    let sender_space_bits s =
      Spec.bits_for_int s.base + Spec.bits_for_int s.next + Spec.bits_for_int s.submitted
      + (window + Spec.bits_for_int s.timer)

    let receiver_space_bits r =
      Spec.bits_for_int r.expected + window
      + Spec.bits_for_int r.deliver_due
      + Nfc_util.Deque.fold (fun acc a -> acc + Spec.bits_for_int a) 0 r.ack_due
  end)
