(** The shared read-only analysis cache behind the service handlers.

    One resident context per protocol: the exploration engine (state
    interners, packet index, transition memos) and its sibling
    Karp–Miller engine persist across requests, with reachable sets,
    converged covers and whole reports memoized per parameter
    fingerprint — the amortization that makes a resident verifier faster
    than per-invocation CLI runs.

    Every cached analysis runs the same deterministic code path as the
    CLI ({!Nfc_lint.Engine.run}, {!Nfc_mcheck.Boundness.measure},
    {!Nfc_absint.Cover.Make}), so a memo hit returns exactly the value a
    cold run would have produced: served lint verdicts are byte-identical
    to [nfc lint] CLI output at the same parameters.

    Thread-safe: per-protocol locks serialise analyses on one protocol
    (the first request computes while duplicates wait, then hit);
    different protocols proceed in parallel. *)

type t

(** [on_lookup] fires per memoized lookup (telemetry). *)
val create : ?on_lookup:(hit:bool -> unit) -> unit -> t

(** Canonical names of the protocols with resident contexts so far. *)
val protocols : t -> string list

(** Store a user-submitted compiled protocol under its content-digest
    handle ("pdl:<md5hex>").  [`Cached] means the handle was already
    registered (idempotent resubmission). *)
val register_spec : t -> handle:string -> Nfc_protocol.Spec.t -> [ `New | `Cached ]

(** Resolve a previously registered handle. *)
val find_spec : t -> string -> Nfc_protocol.Spec.t option

(** All registered handles, sorted. *)
val spec_handles : t -> string list

(** Number of registered user protocols (the resident-protocols gauge). *)
val spec_count : t -> int

(** The full lint analysis — the value behind one line of
    [nfc lint --json].  [?key] overrides the resident-context key (used
    for user-submitted protocols, keyed by handle rather than by their
    self-declared name). *)
val lint :
  ?key:string -> t -> Nfc_protocol.Spec.t -> Nfc_lint.Checks.config -> Nfc_lint.Engine.result

(** [checkpoint] is the requester's cancellation hook, called from inside
    the exploration on a miss and never on a hit. *)
val boundness :
  ?key:string ->
  t ->
  Nfc_protocol.Spec.t ->
  checkpoint:(unit -> unit) ->
  explore:Nfc_mcheck.Explore.bounds ->
  probe:Nfc_mcheck.Boundness.probe_bounds ->
  Nfc_mcheck.Boundness.report

val cover :
  ?key:string ->
  t ->
  Nfc_protocol.Spec.t ->
  submit_budget:int ->
  max_nodes:int ->
  Nfc_absint.Cover.stats
