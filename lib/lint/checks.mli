(** The per-protocol static analysis.

    [Make (P).analyze cfg] runs every rule of {!Rules} against [P] over a
    bounded exploration of the composed (sender x receiver x channel)
    system and returns the diagnostics plus the protocol's
    {!Certificate.t}.

    The exploration drives an {e instrumented, totalised} copy of [P]:
    exceptions escaping [on_ack]/[on_data] do not abort the analysis but
    become E1 findings with the reachable state and offending packet as
    witness (the move is treated as a self-loop).  On top of the
    trajectory coverage, E1 systematically probes every distinct reachable
    station state against the observed packet alphabet extended with
    {!fault_packets} (out-of-alphabet values a non-FIFO channel could never
    produce but an input-enabled automaton must still absorb). *)

type config = {
  bounds : Nfc_mcheck.Explore.bounds;  (** exploration bounds, all rules *)
  probe : Nfc_mcheck.Boundness.probe_bounds;  (** B1 boundness measurement *)
  max_probes : int;  (** cap on semi-valid configs probed for B1 *)
  complete : bool;
      (** run the budget-free cover tier ({!Nfc_absint.Cover}) and
          upgrade corroborated H1/T1/Q1 verdicts to
          {!Certificate.Complete} strength *)
  cover_max_nodes : int;  (** divergence backstop for the cover fixpoint *)
  checkpoint : unit -> unit;
      (** cooperative cancellation hook, called periodically from the
          exploration (every ~2k dequeues) and from the [complete] cover
          (every 2,048 expansions); may raise to abort the analysis *)
}

val default_config : config

(** Extra out-of-alphabet packets for E1 and the Q1 closures. *)
val fault_packets : int list

(** Cap on a station's Q1 input closure and on S1's state sample. *)
val max_probe_states : int

(** Cap on E1 witnesses. *)
val max_witnesses : int

module Make (P : Nfc_protocol.Spec.S) : sig
  val analyze : config -> Diagnostic.t list * Certificate.t
end
