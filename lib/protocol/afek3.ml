(** A three-data-header protocol with echo accounting — our executable
    stand-in for the protocol of [Afe88] (a personal communication; see
    DESIGN.md, "Substitutions"), the protocol Theorem 4.1 proves optimal:
    the cost of delivering a message is linear in the number of packets
    delayed on the channel when it is sent.

    Packets: data of colour c in {0,1,2} is [c]; the echo of colour c is
    [3 + c].  Six distinct values; "three headers" refers, as in the
    paper, to the forward (t->r) alphabet.

    Mechanism.  Message f travels under colour c_f = f mod 3.  The
    receiver delivers on the {e first} receipt of the expected colour and
    echoes every data packet it receives.  The sender counts, per colour,
    packets sent and echoes received, and only opens epoch f once colour
    c_{f-2} (= c_{f+1} mod 3) is fully accounted (echoes = sends), i.e.
    the channel holds no copy of the colour the receiver is about to start
    trusting.  While blocked on that flush it periodically re-pings the
    previous epoch's colour to keep send-driven channels moving.

    Invariant (gives DL1/DL2 unconditionally): when the receiver starts
    expecting colour c, no stale copy of c is in transit, so the first c
    it sees is fresh.  Under packet {e loss} the flush never completes and
    the sender blocks — safety is kept, liveness is traded away, which
    Theorem 4.1 says is the best a 3-header protocol can do.  Under pure
    delay (including the probabilistic channel of Section 5 with
    [lose = false]) every echo eventually arrives and the protocol is
    live, at a per-message packet cost linear in the backlog — the
    tightness half of Theorem 4.1. *)

let data_pkt c = c
let echo_pkt c = 3 + c

let get3 (a, b, c) i = match i with 0 -> a | 1 -> b | _ -> c

let set3 (a, b, c) i v =
  match i with 0 -> (v, b, c) | 1 -> (a, v, c) | _ -> (a, b, v)

let bump3 t i = set3 t i (get3 t i + 1)

let make ?(retransmit = 2) ?(ping_every = 4) () : Spec.t =
  if retransmit < 1 then invalid_arg "Afek3.make: retransmit must be >= 1";
  if ping_every < 1 then invalid_arg "Afek3.make: ping_every must be >= 1";
  (module struct
    let name = "afek3"
    let describe = "3 data headers + echoes; cost linear in backlog (Afe88 stand-in)"
    let header_bound = Some 6

    type sender = {
      pending : int;
      sending : bool;  (** current epoch's message not yet known delivered *)
      epoch : int;  (** messages completed *)
      sent : int * int * int;  (** cumulative data sent per colour *)
      echo : int * int * int;  (** cumulative echoes received per colour *)
      echo_base : int;  (** echo count of the current colour at epoch start *)
      timer : int;  (** polls until next (re)transmission or ping *)
    }

    type receiver = {
      delivered : int;
      deliver_due : int;
      echo_due : int Nfc_util.Deque.t;  (** echoes owed, in receipt order *)
    }

    let sender_init =
      {
        pending = 0;
        sending = false;
        epoch = 0;
        sent = (0, 0, 0);
        echo = (0, 0, 0);
        echo_base = 0;
        timer = 0;
      }

    let receiver_init = { delivered = 0; deliver_due = 0; echo_due = Nfc_util.Deque.empty }
    let on_submit s = { s with pending = s.pending + 1 }
    let colour_of_epoch f = f mod 3

    (* The colour epoch f-2 used, which the receiver starts trusting during
       epoch f+... — must be drained before epoch f opens. *)
    let flush_colour f = (f + 1) mod 3

    let flushed s = get3 s.echo (flush_colour s.epoch) = get3 s.sent (flush_colour s.epoch)

    let on_ack s p =
      if p >= 3 && p <= 5 then { s with echo = bump3 s.echo (p - 3) } else s

    let sender_poll s =
      let c = colour_of_epoch s.epoch in
      if s.sending then
        if get3 s.echo c > s.echo_base then
          (* Fresh echo of the current colour: the receiver has delivered. *)
          (None, { s with sending = false; epoch = s.epoch + 1; timer = 0 })
        else if s.timer <= 0 then
          (Some (data_pkt c), { s with sent = bump3 s.sent c; timer = retransmit - 1 })
        else (None, { s with timer = s.timer - 1 })
      else if s.pending > 0 then
        if flushed s then
          let s =
            {
              s with
              pending = s.pending - 1;
              sending = true;
              echo_base = get3 s.echo c;
              sent = bump3 s.sent c;
              timer = retransmit - 1;
            }
          in
          (Some (data_pkt c), s)
        else if s.timer <= 0 && s.epoch > 0 then begin
          (* Blocked on the flush: re-ping the previous epoch's colour to
             keep send-driven channels moving.  Harmless to the receiver
             (already past that colour) and fully accounted by the flush of
             a later epoch. *)
          let pc = colour_of_epoch (s.epoch - 1) in
          (Some (data_pkt pc), { s with sent = bump3 s.sent pc; timer = ping_every - 1 })
        end
        else (None, { s with timer = max 0 (s.timer - 1) })
      else (None, s)

    let expecting r = (r.delivered + r.deliver_due) mod 3

    let on_data r p =
      if p >= 0 && p <= 2 then begin
        let r = { r with echo_due = Nfc_util.Deque.push_back (echo_pkt p) r.echo_due } in
        if p = expecting r then { r with deliver_due = r.deliver_due + 1 } else r
      end
      else r

    let receiver_poll r =
      if r.deliver_due > 0 then
        (Some Spec.Rdeliver, { r with delivered = r.delivered + 1; deliver_due = r.deliver_due - 1 })
      else
        match Nfc_util.Deque.pop_front r.echo_due with
        | Some (e, echo_due) -> (Some (Spec.Rsend e), { r with echo_due })
        | None -> (None, r)

    let compare_sender = Stdlib.compare

    let compare_receiver a b =
      Stdlib.compare
        (a.delivered, a.deliver_due, Nfc_util.Deque.to_list a.echo_due)
        (b.delivered, b.deliver_due, Nfc_util.Deque.to_list b.echo_due)

    let hash_sender = Some Spec.structural_hash

    let hash_receiver =
      Some
        (fun r ->
          Spec.structural_hash (r.delivered, r.deliver_due, Nfc_util.Deque.hash r.echo_due))

    (* No cover saturation: the flush rule compares cumulative per-colour
       send and echo counters, so the sender's state space is genuinely
       unbounded (Theorem 4.1's cost is paid in counter growth) and no
       finite representative preserves the [flushed] predicate.  The
       coverability fixpoint diverges; the verifier reports the
       bounded-strength fallback. *)
    let cover_norm_sender = None
    let cover_norm_receiver = None

    let pp_sender ppf s =
      let a, b, c = s.sent and x, y, z = s.echo in
      Format.fprintf ppf "{pending=%d; sending=%b; epoch=%d; sent=(%d,%d,%d); echo=(%d,%d,%d)}"
        s.pending s.sending s.epoch a b c x y z

    let pp_receiver ppf r =
      Format.fprintf ppf "{delivered=%d; due=%d; echoes_owed=%d}" r.delivered r.deliver_due
        (Nfc_util.Deque.length r.echo_due)

    let sender_space_bits s =
      let sum3 (a, b, c) = Spec.bits_for_int a + Spec.bits_for_int b + Spec.bits_for_int c in
      Spec.bits_for_int s.pending + 1 + Spec.bits_for_int s.epoch + sum3 s.sent
      + sum3 s.echo + Spec.bits_for_int s.echo_base + Spec.bits_for_int s.timer

    let receiver_space_bits r =
      Spec.bits_for_int r.delivered + Spec.bits_for_int r.deliver_due
      + (3 * Nfc_util.Deque.length r.echo_due)
  end)
