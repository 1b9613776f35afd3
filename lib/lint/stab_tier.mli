(** The self-stabilization tier of the verifier (rules SS1/SS2).

    Runs {!Nfc_stab.Converge.analyze} at its own bounds — the corrupted
    product is exponential in channel capacity, so the tier uses the
    capacity the protocol is designed to tolerate, not the lint
    exploration bounds — and folds the verdicts into a lint result. *)

(** The per-verdict severity mapping: pass → Info, unknown → Warning,
    fail → Error. *)
val severity_of : Nfc_stab.Converge.verdict -> Diagnostic.severity

(** Compact certificate provenance, e.g.
    ["ss1=pass(bound=8) ss2=pass(bound=0)"]. *)
val summary : Nfc_stab.Converge.report -> string

(** The SS1 and SS2 diagnostics for a report (witnesses attached: the
    recovery trace on pass, the divergent corrupted start on fail). *)
val diagnostics : Nfc_stab.Converge.report -> Diagnostic.t list

(** Analyze [spec] ([cfg] defaults to
    {!Nfc_stab.Converge.default_cfg}) and merge the tier into the
    result: SS1/SS2 diagnostics appended, [stabilization] certificate
    provenance set.  [checkpoint] is the cancellation hook of
    {!Nfc_stab.Converge.analyze}; it may raise to abort the tier. *)
val apply :
  ?checkpoint:(unit -> unit) ->
  ?cfg:Nfc_stab.Converge.cfg ->
  Nfc_protocol.Spec.t ->
  Engine.result ->
  Engine.result
