(** Interned packet-count vectors — the O(1)-amortised channel multiset of
    the hashed state-space engine.

    {!Index} interns a run's reachable packet alphabet into dense ids;
    vectors then count copies per id with the cardinal cached, trailing
    zeros trimmed (canonical representation), and cheap structural
    equality/hash — replacing {!Nfc_util.Multiset}'s balanced-map walks on
    the engine's hot path.  Vectors are immutable; an [Index.t] is mutable
    and belongs to exactly one engine instance (never share one across
    domains). *)

module Index : sig
  type t

  val create : unit -> t

  (** [id t packet] interns [packet], assigning the next dense id on first
      sight. *)
  val id : t -> int -> int

  (** [packet t id] decodes an id back to its packet value. *)
  val packet : t -> int -> int

  (** Number of distinct packets interned so far. *)
  val size : t -> int

  (** Iterate all interned ids in increasing {e packet-value} order — the
      enumeration order of [Multiset.support], so the hashed engine visits
      configurations in exactly the tree-based engine's BFS order. *)
  val iter_by_value : t -> (int -> unit) -> unit

  (** [nth_by_value t i] is the [i]-th id of that order,
      [0 <= i < size t]. *)
  val nth_by_value : t -> int -> int
end

type t

val empty : t
val cardinal : t -> int

(** [count v id] is the multiplicity of [id] ([0] when never added). *)
val count : t -> int -> int

(** [add v id] adds one copy. *)
val add : t -> int -> t

(** [remove_one v id] removes one copy, or [None] if no copy is present. *)
val remove_one : t -> int -> t option

val equal : t -> t -> bool
val hash : t -> int

(** [fold f v acc] over (id, positive count) pairs in id order. *)
val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

(** The raw count array (a fresh copy; index = interned id, trailing zeros
    trimmed).  The escape hatch for abstract domains built over the same
    interned alphabet ({!Nfc_absint.Opvec} lifts these counts to ω). *)
val to_array : t -> int array
