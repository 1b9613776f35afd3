(** Measuring protocol boundness (Section 2.3 and Theorem 2.1).

    A protocol is k-bounded when from every semi-valid execution (one
    message pending) there is an extension that completes the delivery
    using at most k [send_pkt^{t->r}] actions, without delivering any
    packet that was already in transit.

    A probe computes that minimum for one reachable configuration by
    uniform-cost search: old in-transit packets are frozen (per the
    definition), fresh packets may be delivered at will, and only forward
    sends cost 1.  So a probe starts from [(sender, receiver, ∅, ∅)] with
    zero counters, and its result is a function of the station pair
    [(sid, rid)] alone.  [measure] takes the maximum over reachable
    one-message-pending configurations, probing each distinct pair once
    (at most k_t * k_r probes), and reports it next to the k_t * k_r
    state-product bound of Theorem 2.1 — the measured boundness must
    never exceed the product for finite-control protocols. *)

type probe_bounds = {
  max_nodes : int;  (** visited-set limit per probe *)
  max_cost : int;  (** give up beyond this many forward sends *)
}

val default_probe_bounds : probe_bounds

type report = {
  protocol : string;
  k_t : int;  (** distinct sender states in the explored region *)
  k_r : int;
  state_product : int;  (** k_t * k_r, Theorem 2.1's bound *)
  configs_explored : int;
  semi_valid_configs : int;  (** configurations with one message pending *)
  boundness : int option;
      (** max over semi-valid configs of the min forward-sends to finish;
          [None] if some probe exhausted its budget (protocol looks
          unbounded from there) *)
  probes_exhausted : int;
  probes_skipped : int;
      (** semi-valid configurations not probed because [max_probes] ran
          out; when positive, [boundness] is a lower bound over the probed
          sample rather than the explored maximum *)
}

val pp_report : Format.formatter -> report -> unit

(** The report as a JSON value — the [/v1/boundness] service payload. *)
val to_json : report -> Nfc_util.Json.t

(** The measurement engine behind {!measure}, exposed so callers that
    already hold an exploration (the linter) can share it.  [E] is the
    engine instance the measurement runs on: instantiate [Make] once per
    protocol and use [E] for any exploration whose result is passed back
    in. *)
module Make (P : Nfc_protocol.Spec.S) : sig
  module E : module type of Explore.Make (P)

  (** As the toplevel {!measure}, plus [reach]: an {e ungated}
      [E.reachable_set] at the same [explore] bounds, measured in place
      of the gated exploration, which is then skipped.

      - Phantom-free reach ([first_phantom = None]): the gated
        exploration would visit the identical set, so the report is the
        gated pass's.
      - Reach carrying a phantom: the measurement runs on its gated
        closure ({!Explore.Make.gated_closure} from [initial]), the held
        configurations reached through delivery-gated moves.
        [configs_explored], [k_t], [k_r] and the semi-valid set are
        counted over the closure.  When the reach closed
        ([truncated = false]) the closure is exactly the gated pass's set
        and the report is the gated pass's.  When it was truncated, the
        report describes the gated part of the held graph: every
        configuration in it is reachable by a valid execution, so it is
        still a sound sample, but not the one a gated exploration cut off
        at [max_nodes] would take. *)
  val measure :
    ?max_probes:int ->
    ?checkpoint:(unit -> unit) ->
    ?reach:E.reach ->
    explore:Explore.bounds ->
    probe_bounds:probe_bounds ->
    unit ->
    report
end

(** Explore with [explore_bounds] (see {!Explore.bounds}), then probe every
    semi-valid configuration found — or only the first [max_probes] of
    them in the canonical configuration order (the tree-based engine's
    visited-set order), for callers (the linter) that need a bounded-cost
    sample rather than the exact explored maximum.

    Configurations sharing a station pair share one probe, whose result
    is mapped back onto each of them, so [probes_exhausted] still counts
    configurations.  [checkpoint] is the cooperative cancellation hook
    threaded into the exploration. *)
val measure :
  ?max_probes:int ->
  ?checkpoint:(unit -> unit) ->
  Nfc_protocol.Spec.t ->
  explore:Explore.bounds ->
  probe:probe_bounds ->
  report
