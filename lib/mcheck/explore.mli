(** Explicit-state model checking of protocol x non-FIFO-channel systems.

    A configuration is (sender state, receiver state, forward multiset,
    reverse multiset, submitted, delivered).  Successors follow the
    semantics of Section 2: user submissions, automaton polls (including
    silent timer ticks), adversary-chosen deliveries of any in-transit
    packet, and (optionally) drops.  Every exploration — reachable set,
    phantom search, monitor replay, wedge search, and the stab tier's
    recovery sweeps — is a client of one breadth-first kernel
    ({!Make.explore}) over dense BFS-ordered ids, so returned
    counterexamples are shortest-in-moves.

    Channel capacities and a submission budget make the space finite for
    finite-control protocols; counter-based protocols are explored up to
    the node budget.

    Engine representation: sender/receiver states are interned into dense
    ids (hash-bucketed when the spec provides {!Nfc_protocol.Spec.S.hash_sender}
    hooks, comparator-keyed otherwise), and so are channel contents: a
    channel multiset is a {!Pvec.t} count vector over the interned packet
    alphabet, interned once into a dense channel id.  A configuration is
    therefore six ints — (sid, rid, tr, rt, submitted, delivered) — and
    that is all the kernel stores: the visited set ({!Table}) keeps the
    ints in small chunks under dense ids and indexes them with an
    open-addressed table that starts small and doubles with the graph.
    The successor relation hands the kernel ints, every transition —
    station steps, channel adds and removals — is a memo read from ids
    to ids, and a {!Make.config} record, the same six ints and no state
    value, is built only where the API hands one out ({!Make.node},
    {!Make.configs}, seeds, witnesses, monitors).  A station state's
    value is read back ({!Make.sender_of}) only by protocol code and
    printers.
    Channel moves are still enumerated in increasing packet-value order,
    so BFS order — and hence every counterexample, statistic, and report —
    is identical to the tree-based engine's (retained as {!Reference} for
    differential testing).

    [find_phantom] searches for the invalid executions at the heart of
    Theorems 3.1 and 4.1: a reachable configuration in which the receiver
    delivers an (n+1)-th message when only n were submitted (rm > sm, the
    DL1 violation).  It finds the alternating-bit and stop-and-wait
    counterexamples in milliseconds and proves small instances of
    bounded-header impossibility mechanically. *)

type bounds = {
  capacity_tr : int;  (** max packets in transit t->r *)
  capacity_rt : int;
  submit_budget : int;  (** total messages the user may submit *)
  max_nodes : int;  (** visited-set size limit *)
  allow_drop : bool;  (** may the channel delete packets? *)
  por : bool;
      (** retired: no analysis reads this field, and every exploration
          generates drops whenever [allow_drop] holds.  It remains only
          because the benchmark harness ([perfbench/]) names it in its
          bounds literals; it goes in a change that may edit the
          benchmark.  Build bounds as [{ default_bounds with ... }]. *)
}

val default_bounds : bounds

type stats = {
  nodes : int;  (** distinct configurations visited *)
  sender_states : int;  (** distinct sender states seen *)
  receiver_states : int;
  max_depth : int;
}

type outcome =
  | Violation of Nfc_automata.Execution.t
      (** shortest action sequence ending in the phantom [Receive_msg] *)
  | No_violation of stats  (** full space explored, no violation *)
  | Node_budget of stats  (** search stopped at [max_nodes] *)

val pp_outcome : Format.formatter -> outcome -> unit

(** Search for a reachable DL1 violation (phantom delivery). *)
val find_phantom : Nfc_protocol.Spec.t -> bounds -> outcome

(** Explore the whole bounded space (no goal) and report statistics —
    in particular the k_t and k_r of Theorem 2.1. *)
val reachable : Nfc_protocol.Spec.t -> bounds -> stats

type wedge_outcome =
  | Wedged of Nfc_automata.Execution.t * stats
      (** shortest path into a configuration with a message pending from
          which {e no} reachable continuation ever delivers — a mechanical
          liveness (DL3) counterexample.  Conservative under truncation:
          unexpanded frontier configurations are assumed able to deliver. *)
  | No_wedge of stats

val pp_wedge_outcome : Format.formatter -> wedge_outcome -> unit

(** Search for a wedged configuration (backward fixpoint over the explored
    graph).  The alternating bit over a pure-reordering channel wedges —
    its other failure mode besides the phantom — while the
    sequence-number protocols never do within any explored space. *)
val find_wedge : Nfc_protocol.Spec.t -> bounds -> wedge_outcome

(** The visited set: configurations as six ints (sid, rid, tr, rt,
    submitted, delivered) under dense ids in insertion order, indexed by
    an open-addressed [int array] with linear probing.  It starts at 64
    slots and doubles when more than half full, so it costs what it
    holds, not a node budget.  Shared by the kernel, the boundness
    probes and the stab tier's legitimacy test.

    A slot word is [(tag lsl 32) lor id], or [-1] when empty: the id in
    the low 32 bits, and above them a 30-bit tag taken from hash bits
    that no slot index uses.  A lookup reads a stored configuration only
    at a slot whose tag equals its own, and there compares all six ints,
    since distinct configurations can share a tag.  Ids therefore stop
    below [2^32]. *)
module Table : sig
  type t

  val create : unit -> t

  (** Number of configurations stored: ids are [0 .. length t - 1]. *)
  val length : t -> int

  (** [add t sid rid tr rt submitted delivered]: the id of that
      configuration, storing it under the next id if it is new.
      @raise Invalid_argument if a new configuration would need id
      [2^32], past the 32 id bits of a slot word. *)
  val add : t -> int -> int -> int -> int -> int -> int -> int

  (** The id of that configuration, or [-1] when it is not stored. *)
  val find : t -> int -> int -> int -> int -> int -> int -> int

  (** Empty the table for reuse, back at its starting size. *)
  val clear : t -> unit
end

(** Marks over dense ids (interned station states, channel ids), a
    byte each, grown on demand. *)
module Seen : sig
  type t

  val create : unit -> t

  (** [first t id] marks [id] and is [true] the first time only. *)
  val first : t -> int -> bool
end

(** The per-protocol exploration engine: typed configurations, the
    labelled successor relation, the breadth-first kernel and its clients.

    An instantiation owns mutable intern tables and transition memos, so
    each application is its own id space: create the engine inside the
    job that uses it and never share one instance across domains.
    Analyses that need a separate id space (boundness probes) apply
    [Make] again. *)
module Make (P : Nfc_protocol.Spec.S) : sig
  type config = {
    sid : int;  (** interned sender state: {!sender_of} reads it back *)
    rid : int;  (** interned receiver state, likewise {!receiver_of} *)
    tr : int;  (** packets in transit t->r, as an interned channel id ({!chan}) *)
    rt : int;  (** packets in transit r->t, likewise *)
    submitted : int;
    delivered : int;
  }

  val initial : config

  (** The engine's packet alphabet interner: shared by any sibling
      analysis ({!Nfc_absint.Cover}) so ids and {!Pvec.t} layouts agree
      across the bounded and ω-accelerated explorations. *)
  val pkts : Pvec.Index.t

  (** The channel interner.  Channel ids are dense, in first-sight order,
      and canonical: equal multisets get equal ids. *)
  val chan_of_pvec : Pvec.t -> int

  (** [chan ch] is the multiset behind channel id [ch]. *)
  val chan : int -> Pvec.t

  (** [chan_card ch] is the number of packets in [ch]. *)
  val chan_card : int -> int

  (** [chan_add ch p] is the id of [ch] plus one packet of packet id [p];
      [chan_remove ch p] the id of [ch] minus one, or [-1] when [ch]
      holds no [p].  Both are memoised per (channel id, packet id). *)
  val chan_add : int -> int -> int

  val chan_remove : int -> int -> int

  (** The state interners (dense ids in first-sight order; id equality is
      comparator equality).  An id is the only handle on a station state
      outside the interner: configurations and steps carry ids, and the
      value is read back only where protocol code or a printer needs it. *)
  val intern_sender : P.sender -> int

  val intern_receiver : P.receiver -> int

  (** [sender_of (intern_sender s)] is [s]; likewise [receiver_of]. *)
  val sender_of : int -> P.sender

  val receiver_of : int -> P.receiver

  (** Memoised single-step transitions from a station id to the id of
      its post-state, in arrays indexed by interned ids: each distinct
      (state, input) pair runs protocol code once, engine-wide —
      including calls made by sibling analyses sharing this instance.
      The polls also return their emission.  [step_ack_id sid p] and
      [step_data_id rid p] take the input's packet id; [step_ack] and
      [step_data] take its packet value (interning it). *)
  val step_submit : int -> int

  val step_sender_poll : int -> int option * int
  val step_receiver_poll : int -> Nfc_protocol.Spec.remit option * int
  val step_ack_id : int -> int -> int
  val step_data_id : int -> int -> int
  val step_ack : int -> int -> int
  val step_data : int -> int -> int

  (** In-transit packets of a configuration as a (packet value, count)
      association list sorted by packet value — the decoded view of the
      interned vectors, for alphabet censuses and order-stable output.
      [packets_tr c] is [chan_packets c.tr]. *)
  val chan_packets : int -> (int * int) list

  val packets_tr : config -> (int * int) list

  val packets_rt : config -> (int * int) list

  (** Labelled successor relation under the given bounds ([None] labels a
      silent timer tick), in continuation-passing style.  [deliver_valid_only]
      (default false) gates message delivery on [delivered < submitted] —
      the boundness semantics, which never explores phantom branches.
      The kernel runs the same relation on ints and allocates nothing
      per move; this record view builds one record per successor, for
      the few callers that walk single configurations (witnesses). *)
  val iter_successors :
    ?deliver_valid_only:bool ->
    bounds ->
    config ->
    (Nfc_automata.Action.t option -> config -> unit) ->
    unit

  (** An explored graph: configurations under dense ids in BFS order
      (seeds first), the configuration-to-id index, statistics and the
      truncation flag. *)
  type graph

  (** The breadth-first kernel behind every exploration below.  The
      [seeds] are visited at depth 0 in caller order, deduplicated; then
      each configuration is expanded in id order.  Two budget rules:
      [cap] rejects new configurations once [cap] are held but drains the
      queue (every held configuration is expanded); [stop] ends the search
      at the first dequeue that finds [stop] or more held (the last
      expansion may overshoot).  Either sets the truncation flag when it
      cuts something off.  [on_edge g src act sid rid tr rt submitted delivered]
      sees every move in generation order, as the six ints of its target,
      before the target is inserted; returning [true] stops the search.
      [parents] keeps BFS-tree links (for shortest witnesses), [preds]
      keeps every move's target as a flat edge list (for
      {!distances_to}); both default to [false] and cost nothing when
      off.  [checkpoint] as for {!reachable_set}. *)
  val explore :
    ?deliver_valid_only:bool ->
    ?checkpoint:(unit -> unit) ->
    ?parents:bool ->
    ?preds:bool ->
    ?on_edge:
      (graph -> int -> Nfc_automata.Action.t option -> int -> int -> int -> int -> int -> int -> bool) ->
    cap:int ->
    stop:int ->
    seeds:config list ->
    bounds ->
    graph

  (** Number of configurations held: ids are [0 .. size g - 1]. *)
  val size : graph -> int

  (** The ints of configuration [id], without building its record. *)
  val sid : graph -> int -> int

  val rid : graph -> int -> int
  val tr : graph -> int -> int
  val rt : graph -> int -> int
  val submitted : graph -> int -> int
  val delivered : graph -> int -> int

  (** Configuration [id] as a record (built on each call). *)
  val node : graph -> int -> config

  val find : graph -> config -> int option
  val truncated : graph -> bool

  (** [distances_to g source]: multi-source backward BFS over the
      reversed edges (the graph must have been explored with
      [~preds:true]) — each id's distance to the nearest id satisfying
      [source], [max_int] when none is reachable inside the graph. *)
  val distances_to : graph -> (int -> bool) -> int array

  type reach = {
    graph : graph;  (** every visited configuration, under ids in BFS order *)
    truncated : bool;  (** true iff [max_nodes] cut the exploration off *)
    reach_stats : stats;
    first_phantom : int option;
        (** action count of the first phantom-producing move in BFS
            generation order (= the trace length {!search} would report);
            [None] certifies no expansion anywhere produced
            [delivered > submitted], hence that the delivery-gated
            successor graph coincides with the ungated one on this
            exploration ({!Boundness} reuses the set on that strength) *)
    phantom_in_budget : bool;
        (** whether that first phantom move was generated before {!search}
            would have exhausted [max_nodes] — i.e. whether [search]
            returns [Violation] rather than [Node_budget] *)
    stuck : int -> bool;
        (** [stuck id]: configuration [id] has no move other than a user
            submission — the dead-configuration test of the linter's Q1
            rule, recorded during the sweep (every held configuration is
            expanded, so it is exact) *)
  }

  (** The reachable set itself (not just its statistics).  One full
      breadth-first sweep serves four consumers: the explored graph
      (census, probing), the phantom scan (replacing a separate
      {!search} pass), the Q1 progress bits ([stuck]), and — when
      phantom-free — the boundness measurement's gated exploration.

      [checkpoint] is called every ~2k dequeues — the cooperative
      cancellation hook; it may raise to abort the exploration. *)
  val reachable_set :
    ?deliver_valid_only:bool -> ?checkpoint:(unit -> unit) -> bounds -> reach

  (** {!reachable_set} seeded from a configuration list instead of
      [initial]: the kernel under the [cap = max_nodes] rule, so the
      graph holds the distinct seeds first, then the BFS levels, and a
      seed list longer than [max_nodes] truncates.
      [from_configs ~seeds:[initial]] is [reachable_set]. *)
  val from_configs :
    ?deliver_valid_only:bool -> ?checkpoint:(unit -> unit) -> seeds:config list -> bounds -> reach

  (** Every visited configuration as a record, in BFS order. *)
  val configs : reach -> config list

  (** BFS counterexample search: the kernel under the [stop = max_nodes]
      rule, so a [Node_budget] count may overshoot [max_nodes] by the
      last expansion.  Same [checkpoint] contract as {!reachable_set}. *)
  val search : ?stop_at_phantom:bool -> ?checkpoint:(unit -> unit) -> bounds -> outcome

  (** Wedge (stuck-configuration) search: the kernel under the
      [stop = max_nodes] rule with predecessor edges, then a backward
      "can eventually deliver" propagation. *)
  val find_wedge_search : ?checkpoint:(unit -> unit) -> bounds -> wedge_outcome

  type replay_outcome =
    | Replay_refuted of Nfc_automata.Execution.t * config * stats
        (** shortest trace into a configuration violating the monitor,
            plus that configuration *)
    | Replay_upheld of stats * bool
        (** the monitor held on everything explored; the bool is [true]
            when [max_nodes] truncated the sweep (held-so-far, not
            certified) *)

  (** Concrete replay of a state predicate, the spuriousness check of the
      CEGAR layer ({!Nfc_refine}): BFS over the delivery-gated
      ([deliver_valid_only] defaults to [true] — the boundness semantics
      the static tier certifies) successor graph, evaluating [monitor] on
      every configuration in BFS generation order.  A refutation therefore
      carries a shortest witness trace. *)
  val replay_monitor :
    ?deliver_valid_only:bool ->
    ?checkpoint:(unit -> unit) ->
    monitor:(config -> bool) ->
    bounds ->
    replay_outcome
end
