(** The service's result memo and its store of submitted protocols.

    Every analysis the service memoizes (lint, boundness, cover) is a
    deterministic function of the protocol and its parameters, so the
    memo keeps finished result documents and nothing else.  The
    handlers' computes call exactly what the CLI calls, each on a fresh
    engine, so a hit returns the bytes a cold run would have produced.
    Keeping engines resident between requests was sized and bought
    nothing (DESIGN §5.9).

    Thread-safe, with one lock per memo key: a request whose key is
    still being computed waits for that compute and then hits; requests
    for different keys run in parallel, on one protocol or several. *)

type t

(** [on_lookup] fires once per {!memo} call (telemetry). *)
val create : ?on_lookup:(hit:bool -> unit) -> unit -> t

(** [memo t ~protocol ~key compute] is the document memoized under
    [(protocol, key)], computing it on a miss.  [protocol] is a builtin's
    canonical name or a submitted spec's ["pdl:<digest>"] handle, never a
    submitted spec's self-declared name, so a spec named after a builtin
    can neither poison nor reuse the builtin's results.  [key] must
    determine the result given the protocol.  A compute that raises (a
    cancelled job) memoizes nothing; the next request computes again. *)
val memo : t -> protocol:string -> key:string -> (unit -> string) -> string

(** The protocols {!memo} has been asked about, sorted (the [/healthz]
    [resident_protocols] field). *)
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
