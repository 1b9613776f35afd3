(** S1 — spec sanitizer: the engine-soundness contract checks.

    Every analysis in the repo trusts three obligations a
    {!Nfc_protocol.Spec.S} implementation cannot have checked by the type
    system: comparator reflexivity, hash/comparator coherence
    (compare-equal states must hash equally, or the hash-bucketed
    interner splits one logical state into several ids — corrupting
    k_t/k_r, memo tables, and every count built on interned ids), and
    step-function purity (the memo tables replay the first result
    forever, so an impure transition silently diverges from the spec).

    [Make (P).run] probes all three over a capped joint closure of the
    two station state spaces, driven by the fault packets plus every
    emission discovered along the way.  Partiality is deliberately NOT a
    finding here — that is E1's job; callers pass the instrumented,
    totalised spec. *)

type finding = {
  kind : string;  (** e.g. ["hash-receiver"], ["on_ack-impure"] — one finding per kind *)
  message : string;
  witness : string option;
}

val pp_finding : Format.formatter -> finding -> unit

module Make (P : Nfc_protocol.Spec.S) : sig
  (** [run ~max_states ~fault_packets ()] returns the contract
      violations found within a [max_states]-capped closure per station. *)
  val run : max_states:int -> fault_packets:int list -> unit -> finding list
end
