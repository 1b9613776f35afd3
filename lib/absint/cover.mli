(** Karp–Miller coverability over the protocol × non-FIFO-channel system —
    the budget-free analysis tier behind [nfc lint --complete] and
    [nfc cover].

    The bounded engine ({!Nfc_mcheck.Explore}) proves "no phantom within
    N explored nodes".  This engine answers the unbounded question for the
    channel dimensions: it explores with channel contents abstracted to
    {!Opvec} ω-vectors, {e accelerates} any configuration that strictly
    dominates an ancestor with the same station control (the dominated
    coordinates pump to ω — the repeatable-path argument of the
    Karp–Miller tree), and prunes configurations covered by an already
    retained one.  Because packet loss (PL2) makes reachable sets
    downward-closed and all moves are strongly monotone in the channel
    counts at unbounded capacity, the resulting cover set decides
    coverability questions — reachability of a phantom delivery, the
    exact reachable packet alphabet, existence of a stuck semi-valid
    control — for {e every} channel capacity and node budget at once
    (DESIGN §5.8 gives the WSTS argument).

    What keeps the fixpoint finite is the station control: channels are
    handled by Dickson's lemma, but stations that accumulate unbounded
    owed-work under ω inputs need the per-protocol saturation hooks
    ({!Nfc_protocol.Spec.S.cover_norm_sender}).  Protocols without hooks
    and genuinely unbounded station state (flood, afek3) hit the node cap
    and report [converged = false] — the documented downgrade path.

    A [Make] instantiation deliberately shares the engine instance [E] of
    the bounded run: interners, packet index, and transition memo tables
    are reused, so the cover pays no protocol calls for (state, input)
    pairs the bounded sweep already computed. *)

type stats = {
  converged : bool;
      (** the fixpoint was reached; [false] = node cap hit, results are
          a sound but incomplete prefix *)
  cover_size : int;  (** maximal (uncovered) elements retained *)
  iterations : int;  (** configurations expanded by the fixpoint loop *)
  accelerations : int;  (** ω-acceleration lemma instances applied *)
  accel_samples : string list;
      (** up to 8 rendered acceleration instances, earliest first *)
  omega_configs : int;  (** retained elements with at least one ω count *)
  pruned_covered : int;  (** generated configurations covered by the set *)
  phantom_coverable : bool;
      (** a phantom delivery (delivered > submitted) is coverable — by
          control-exactness of the Karp–Miller tree this means genuinely
          reachable at some capacity *)
  alphabet_tr : int list;  (** packets coverable in transit t->r *)
  alphabet_rt : int list;
  stuck_controls : int;
      (** distinct semi-valid station controls whose polls are silent and
          state-stable: by lossiness (drop everything in transit) each is
          reachable with empty channels, i.e. a genuinely stuck
          configuration *)
  stuck_witness : string option;
}

val pp_stats : Format.formatter -> stats -> unit

(** The stats as a JSON value — the [/v1/cover] service payload. *)
val stats_to_json : stats -> Nfc_util.Json.t

module Make (P : Nfc_protocol.Spec.S) (E : module type of Nfc_mcheck.Explore.Make (P)) : sig
  (** Run the coverability fixpoint under the given submission budget.
      [max_nodes] (default 200_000) caps the Karp–Miller tree as a
      divergence backstop.  [checkpoint] is called every 2,048
      expansions, as {!Nfc_mcheck.Explore.Make.reachable_set} calls it
      every ~2k dequeues: the cooperative cancellation hook, which may
      raise to abort the fixpoint. *)
  val run :
    ?checkpoint:(unit -> unit) -> ?max_nodes:int -> submit_budget:int -> unit -> stats
end

(** [Make (P) (Explore.Make (P))]'s [run] on a fresh engine — what
    [nfc cover] and the service's [/v1/cover] run. *)
val run :
  ?checkpoint:(unit -> unit) ->
  ?max_nodes:int ->
  submit_budget:int ->
  Nfc_protocol.Spec.t ->
  stats
