(** Self-stabilization analysis: legitimate set, corrupted-start
    convergence distances, and the SS1/SS2 obligations (DESIGN 5.15).

    The legitimate set L is the reachable set of the bounded system; a
    corrupted start is any product of an observed sender state, an
    observed receiver state and arbitrary channel multisets over the
    observed packet alphabet within the capacity bounds (the
    transient-fault model of arXiv 2006.05901 restricted to the
    protocol's own state space).  Convergence is autonomous: the
    recovery relation has a zero submission budget.

    - {b SS1} (closure + convergence): L must close within the node
      budget and every corrupted start must reach L; the certified bound
      is the worst distance, with a distance-decreasing witness trace.
    - {b SS2} (fault resilience, after arXiv 1011.3632): a duplicate
      delivery — a station step on an in-transit packet that is not
      consumed — applied inside L may exit L; every such exit must
      re-converge.  Duplication edges only shorten recovery distances,
      so given SS1 the exits are the single new obligation. *)

type cfg = {
  bounds : Nfc_mcheck.Explore.bounds;
      (** legitimate-set sweep bounds; [submit_budget] is zeroed for
          the recovery sweeps *)
  state_cap : int;  (** per-side clamp on station states entering products *)
  max_starts : int;  (** clamp on enumerated corrupted starts *)
  recovery_nodes : int;  (** node budget for each recovery sweep *)
}

val default_cfg : cfg

type verdict = Pass | Fail | Unknown

val verdict_to_string : verdict -> string

(** Result of one multi-seed convergence measurement (the SS1
    corrupted-start run, and the SS2 duplication-exit run). *)
type convergence = {
  seeds_analyzed : int;
  explored : int;
      (** recovery sweep size (seeds + their closure) in distinct
          counter-free configurations: no recovery move reads the
          message counters, so the sweep holds each configuration once
          with both at 0 *)
  sweep_truncated : bool;
  converged : int;
  divergent : int;  (** seeds with no path into L within the budget *)
  bound : int;  (** max distance-to-L over converged seeds (0 if none) *)
  witness_start : string option;  (** the max-distance seed, printed *)
  witness : string list;  (** a distance-decreasing move sequence into L *)
  divergent_start : string option;  (** first divergent seed, printed *)
  divergent_stuck : bool;  (** that seed has no recovery moves at all *)
}

type report = {
  protocol : string;
  capacity_tr : int;
  capacity_rt : int;
  submit_budget : int;
  legit_budget : int;
  recovery_budget : int;
  legit_configs : int;
  legit_closed : bool;  (** the legitimate sweep completed (not truncated) *)
  sender_states : int;
  receiver_states : int;
  states_clamped : bool;
  alphabet : int list;  (** packet values observable in legitimate channels *)
  starts_enumerated : int;  (** full corrupted product size *)
  starts_truncated : bool;
  ss1 : verdict;
  ss1_reason : string;
  ss1_convergence : convergence option;  (** [None] only when L is empty *)
  dup_exits : int;  (** duplication successors leaving L *)
  ss2 : verdict;
  ss2_reason : string;
  ss2_convergence : convergence option;  (** the dup-exit re-convergence run *)
}

(** Run the full analysis.  Raises [Invalid_argument] when a budget in
    [cfg] ([bounds.max_nodes], [state_cap], [max_starts],
    [recovery_nodes]) is below 1.  [checkpoint] rides into the
    legitimate sweep and every recovery sweep, called every ~2k dequeues
    as by {!Nfc_mcheck.Explore.Make.reachable_set}; it may raise to
    abort the analysis. *)
val analyze : ?checkpoint:(unit -> unit) -> Nfc_protocol.Spec.t -> cfg -> report

(** The certified SS1 convergence bound — [Some] exactly when SS1 passed. *)
val convergence_bound : report -> int option

(** The certified SS2 re-convergence bound — [Some] exactly when SS2
    passed ([Some 0] when L is closed under duplication). *)
val ss2_bound : report -> int option

(** Machine-readable report. *)
val to_json : report -> Nfc_util.Json.t

val pp : Format.formatter -> report -> unit
