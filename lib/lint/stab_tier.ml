(** The self-stabilization tier of the verifier: run {!Nfc_stab.Converge}
    and fold its SS1/SS2 verdicts into a lint result as diagnostics plus
    [stabilization] certificate provenance.

    The tier runs at its own bounds ({!Nfc_stab.Converge.default_cfg}, or
    the caller's [cfg]) rather than the lint exploration bounds: the
    corrupted product is exponential in channel capacity, and the
    stabilization claim is relative to the capacity the protocol was
    designed to tolerate, not to whatever budget the linter explores
    reachability under. *)

module Converge = Nfc_stab.Converge

let severity_of = function
  | Converge.Pass -> Diagnostic.Info
  | Converge.Unknown -> Diagnostic.Warning
  | Converge.Fail -> Diagnostic.Error

(* "ss1=pass(bound=8) ss2=pass(bound=0)" — the certificate provenance
   string; bounds only appear on passes, where they are certified. *)
let summary (r : Converge.report) =
  let part rule verdict bound =
    match (verdict, bound) with
    | Converge.Pass, Some b -> Printf.sprintf "%s=pass(bound=%d)" rule b
    | v, _ -> Printf.sprintf "%s=%s" rule (Converge.verdict_to_string v)
  in
  part "ss1" r.Converge.ss1 (Converge.convergence_bound r)
  ^ " "
  ^ part "ss2" r.Converge.ss2 (Converge.ss2_bound r)

let diagnostics (r : Converge.report) =
  let protocol = r.Converge.protocol in
  let ss1_witness =
    match (r.Converge.ss1, r.Converge.ss1_convergence) with
    | Converge.Pass, Some cv ->
        Option.map
          (fun start -> String.concat " -> " (start :: cv.Converge.witness))
          cv.Converge.witness_start
    | _, Some cv -> cv.Converge.divergent_start
    | _, None -> None
  in
  let ss2_witness =
    match r.Converge.ss2_convergence with
    | Some cv -> (
        match r.Converge.ss2 with
        | Converge.Pass -> cv.Converge.witness_start
        | _ -> cv.Converge.divergent_start)
    | None -> None
  in
  [
    Diagnostic.make ~rule:"SS1" ~severity:(severity_of r.Converge.ss1) ~protocol
      ?witness:ss1_witness r.Converge.ss1_reason;
    Diagnostic.make ~rule:"SS2" ~severity:(severity_of r.Converge.ss2) ~protocol
      ?witness:ss2_witness r.Converge.ss2_reason;
  ]

(** Analyze [spec] and merge the tier into [result] (diagnostics
    appended, [stabilization] provenance set). *)
let apply ?checkpoint ?(cfg = Converge.default_cfg) spec (result : Engine.result) =
  let r = Converge.analyze ?checkpoint spec cfg in
  {
    result with
    Engine.diagnostics = result.Engine.diagnostics @ diagnostics r;
    certificate = { result.Engine.certificate with Certificate.stabilization = Some (summary r) };
  }
