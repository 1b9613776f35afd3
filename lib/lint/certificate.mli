(** Per-protocol certificates emitted by the verifier.

    The certificate records what the bounded exploration actually
    established: the observed packet alphabet (the header census of
    Section 2.3), the distinct reachable sender/receiver state counts
    whose product is Theorem 2.1's boundness ceiling, and the boundness
    measured by {!Nfc_mcheck.Boundness} on the same bounds.  For every
    honest protocol [measured_boundness <= state_product] — a mechanical
    confirmation of Theorem 2.1; the B1 rule fires when it fails.

    Since the coverability tier ({!Nfc_absint.Cover}) each certificate
    also carries a {!strength}: [Bounded n] means the verdicts hold
    within an [n]-node exploration; [Complete] means the converged cover
    fixpoint corroborated them, so they hold for {e every} node budget
    and channel capacity (at the certificate's submission budget). *)

(** [Bounded n]: verdicts relative to an [n]-node exploration.
    [Complete]: budget-free — corroborated by a converged coverability
    fixpoint over the ω-abstracted channel (still relative to the
    certificate's submission budget).
    [Static]: proved at the spec level by the abstract interpreter
    ({!Nfc_specint}) with zero exploration — valid for every node
    budget, channel capacity and submission budget. *)
type strength = Bounded of int | Complete | Static

(** What the cover fixpoint did, for audit: convergence, retained
    maximal elements, iterations, ω-acceleration lemma instances (with up
    to 8 rendered samples), and how many retained elements carry an ω. *)
type cover_summary = {
  cover_converged : bool;
  cover_size : int;
  cover_iterations : int;
  cover_accelerations : int;
  cover_omega_configs : int;
  accel_samples : string list;
}

type t = {
  protocol : string;
  declared_header_bound : int option;
  alphabet_tr : int list;  (** distinct packets observed t->r *)
  alphabet_rt : int list;  (** distinct packets observed r->t *)
  k_t : int;  (** distinct reachable sender states *)
  k_r : int;  (** distinct reachable receiver states *)
  state_product : int;  (** k_t * k_r, the Theorem 2.1 certificate *)
  measured_boundness : int option;
      (** from {!Nfc_mcheck.Boundness.measure} on the same bounds; [None]
          when a probe exhausted its budget *)
  probes_exhausted : int;
  configs_explored : int;
  truncated : bool;  (** the node budget cut the exploration off *)
  strength : strength;
      (** weakest of the per-rule strengths: [Complete] only when the
          cover converged and corroborated every upgradable rule *)
  rule_strengths : (string * strength) list;
      (** per-rule strength for the upgradable rules (H1, T1, Q1) *)
  cover : cover_summary option;  (** present when the cover tier ran *)
  refine_rounds : int option;
      (** CEGAR provenance: abstraction-refinement rounds the static tier
          ran before these strengths were assigned.  [None] when no
          refinement was requested, [Some 0] when requested but the
          one-shot fixpoint already sufficed *)
  stabilization : string option;
      (** self-stabilization provenance: compact SS1/SS2 verdict summary
          (e.g. ["ss1=pass(bound=8) ss2=pass(bound=0)"]) when the
          stabilization tier ran, [None] otherwise *)
}

(** ["static"], ["complete"] or ["bounded(N)"]. *)
val strength_to_string : strength -> string

(** The weaker of two strengths ([Bounded] below [Complete] below
    [Static], smaller budgets below larger ones) — for summary footers. *)
val weakest : strength -> strength -> strength

(** Total distinct packets, both directions combined (Section 2.3's |P|). *)
val alphabet_size : t -> int

val pp : Format.formatter -> t -> unit
val to_json : t -> Nfc_util.Json.t
