(** The tree-based exploration engine the hashed {!Explore} engine
    replaced, retained as the differential-testing oracle.

    Semantics are identical to {!Explore} and the pre-hashed
    {!Boundness}: balanced-tree ([Set.Make]) visited sets keyed on the
    state comparators and [Multiset] channel contents.  Nothing in the
    production path uses this module — it exists so test/test_engine.ml
    can assert the hashed engine agrees on every statistic, verdict and
    measured boundness. *)

(** Phantom-delivery search (old engine). *)
val find_phantom : Nfc_protocol.Spec.t -> Explore.bounds -> Explore.outcome

(** Full bounded exploration statistics (old engine, via [search]). *)
val reachable : Nfc_protocol.Spec.t -> Explore.bounds -> Explore.stats

(** Statistics and truncation flag of the old [reachable_set], compared
    against the hashed engine's [reachable_set]. *)
val reachable_set_stats : Nfc_protocol.Spec.t -> Explore.bounds -> Explore.stats * bool

(** The configurations of the old [reachable_set] in BFS order: the
    station states rendered by the spec's printers, each channel as
    (packet, count) pairs in packet order, then submitted and delivered.
    The oracle for {!Explore}'s BFS order. *)
val reachable_order :
  Nfc_protocol.Spec.t ->
  Explore.bounds ->
  (string * string * (int * int) list * (int * int) list * int * int) list

(** Boundness measurement (old gated reachability + tree-keyed probes);
    probes sample semi-valid configurations in visited-set order, exactly
    as {!Boundness.measure} does. *)
val measure_boundness :
  ?max_probes:int ->
  Nfc_protocol.Spec.t ->
  explore:Explore.bounds ->
  probe:Boundness.probe_bounds ->
  Boundness.report
