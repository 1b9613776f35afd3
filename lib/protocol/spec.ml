(** The data link protocol interface (Section 2.3 of the paper).

    A protocol is a pair of I/O automata: [A^t] (the transmitting station)
    and [A^r] (the receiving station).  Their states are immutable values
    with total step functions, which makes them drivable by all three
    consumers: the discrete-event simulator, the explicit-state model
    checker, and the lower-bound adversaries (which must rewind and replay
    protocol states at will).

    Inputs are always accepted (I/O automata are input-enabled):
    [on_submit] is the [send_msg] input at the sender, [on_ack] is
    [receive_pkt^{r->t}], [on_data] is [receive_pkt^{t->r}].  Locally
    controlled actions are pulled: the harness gives each automaton one
    [poll] per scheduler round; the automaton returns its next
    locally-controlled action, if any is enabled, together with its
    post-state.  Returning [None] still returns a post-state, so protocols
    can implement poll-counted retransmission timers.

    Packets are bare [int]s.  Following the paper, messages are all
    identical, so a packet's value is pure header; a protocol's header
    consumption is the set of distinct ints it sends.  [header_bound] is
    [Some k] when the protocol guarantees at most [k] distinct values over
    both directions combined, [None] when the number of headers grows with
    the message count. *)

(** A receiver's locally-controlled action. *)
type remit =
  | Rsend of int  (** put packet [p] on the reverse channel *)
  | Rdeliver  (** [receive_msg]: hand the next message to the user *)

module type S = sig
  val name : string

  (** One-line description used by reports. *)
  val describe : string

  (** [Some k]: at most [k] distinct packet values ever, both directions
      combined; [None]: unbounded (grows with messages sent). *)
  val header_bound : int option

  type sender
  type receiver

  val sender_init : sender
  val receiver_init : receiver

  (** [send_msg] input: the user submits one (anonymous) message. *)
  val on_submit : sender -> sender

  (** [receive_pkt^{r->t}(p)] input at the sender. *)
  val on_ack : sender -> int -> sender

  (** One scheduler turn: the next enabled [send_pkt^{t->r}] if any. *)
  val sender_poll : sender -> int option * sender

  (** [receive_pkt^{t->r}(p)] input at the receiver. *)
  val on_data : receiver -> int -> receiver

  (** One scheduler turn: the next enabled locally-controlled receiver
      action ([send_pkt^{r->t}] or message delivery), if any. *)
  val receiver_poll : receiver -> remit option * receiver

  val compare_sender : sender -> sender -> int
  val compare_receiver : receiver -> receiver -> int

  (** Optional O(1) state hashes for the state-space engines' interners
      ({!Nfc_mcheck.Explore}).  A hook must be consistent with the
      corresponding comparator: compare-equal states must hash equally
      (beware comparators that normalise, e.g. through [Deque.to_list] —
      hash the same normal form, as {!Nfc_util.Deque.hash} does for a
      queue's sequence: [Hashtbl.hash] on a list reads only its first
      few elements).  [None] is always safe: the engines then
      fall back to a comparator-keyed intern table, paying O(log k) state
      comparisons per lookup instead of O(1). *)
  val hash_sender : (sender -> int) option

  val hash_receiver : (receiver -> int) option

  (** Optional saturation hooks for the ω-accelerated coverability engine
      ({!Nfc_absint.Cover}).  The engine lifts the channels to ω-counts;
      what keeps its control space finite is the {e station} state, and
      several protocols carry owed-work fields (pending deliveries, queued
      acknowledgements) that grow without bound as ω packets are absorbed.
      [cover_norm_sender]/[cover_norm_receiver] map a station state to a
      behaviourally saturated representative under the given submission
      budget: beyond the returned state, further growth of the saturated
      fields enables no composed-system behaviour that the representative
      cannot already produce (each protocol documents its argument at the
      hook).  [None] means no saturation is available — the cover then
      simply diverges for state-unbounded protocols and the verifier
      reports the honest downgrade.  Hooks must be idempotent and must
      commute with the comparators/hash hooks (saturated states are
      interned like any other).  Unsound hooks cannot corrupt verdicts —
      the verifier only {e upgrades certificate strength} when the cover
      agrees with the bounded exploration — but they can wrongly label a
      verdict complete; keep the arguments conservative. *)
  val cover_norm_sender : (budget:int -> sender -> sender) option

  val cover_norm_receiver : (budget:int -> receiver -> receiver) option

  val pp_sender : Format.formatter -> sender -> unit
  val pp_receiver : Format.formatter -> receiver -> unit

  (** Space proxy: bits needed to encode the current state (Theorem 2.1
      links boundness to state count, i.e. space). *)
  val sender_space_bits : sender -> int

  val receiver_space_bits : receiver -> int
end

type t = (module S)

let name (module P : S) = P.name
let header_bound (module P : S) = P.header_bound

(** The hash hook for states whose comparator is the structural
    [Stdlib.compare]: the polymorphic structural hash agrees with it. *)
let structural_hash : 'a -> int = Hashtbl.hash

(** Number of bits to represent a non-negative int (at least 1). *)
let bits_for_int n =
  if n < 0 then invalid_arg "Spec.bits_for_int: negative";
  let rec go acc n = if n = 0 then max 1 acc else go (acc + 1) (n lsr 1) in
  go 0 n

(** Building blocks for {!S.cover_norm_sender}/{!S.cover_norm_receiver}. *)

(** Saturate a monotone counter at [cap] (idempotent). *)
let saturate_counter ~cap n = if n > cap then cap else n

(** Saturate an owed-packet queue into a canonical bounded multiset:
    sort ascending (over a non-FIFO channel the emission *order* of owed
    packets is semantically void — the channel may deliver the emitted
    packets in any order anyway, so two queues with the same multiset of
    owed packets are behaviourally equivalent at unbounded capacity),
    collapse each value to at most two copies (a station owing the same
    packet twice behaves like one owing it many times — the extras are
    regenerable duplicates), then keep at most [max_len] entries (ack
    truncation is forced packet loss, which the lossy channel could
    inflict on the emitted packets regardless — and always leaves a
    non-empty queue non-empty, so poll-silence analyses are unaffected).
    Idempotent, and stable under the [Deque.to_list]-normalising
    comparators the protocols use.  Without the sort, ω inputs drive an
    ack queue through every arrival ordering and the cover-control space
    explodes combinatorially. *)
let saturate_deque ~max_len (d : int Nfc_util.Deque.t) : int Nfc_util.Deque.t =
  let sorted = List.sort Int.compare (Nfc_util.Deque.to_list d) in
  let squash =
    List.rev
      (List.fold_left
         (fun acc x ->
           match acc with a :: b :: _ when a = x && b = x -> acc | _ -> x :: acc)
         [] sorted)
  in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  let capped = take max_len squash in
  if capped = Nfc_util.Deque.to_list d then d else Nfc_util.Deque.of_list capped
