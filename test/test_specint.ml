(* Tests for Nfc_specint, the spec-level abstract interpreter: exact
   symbolic alphabets and state products on the example specs, located
   dead-clause findings, the Static certificate upgrade and its
   cross-validation against the exploration-backed linter, the registry's
   extended did-you-mean pool, and the QCheck agreement property — on
   random valid specs the static tier must agree with (or stay unknown
   against) a 15k-node exploration, never contradict it. *)

module Pdl = Nfc_pdl.Pdl
module Check = Nfc_pdl.Check
module Registry = Nfc_protocol.Registry
module Specint = Nfc_specint.Specint
module Lint = Nfc_lint

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let contains = Test_pdl.contains
let assert_contains = Test_pdl.assert_contains

let analyze_file file =
  let path = Test_pdl.example file in
  match Pdl.compile_file path with
  | Ok c -> (c, Specint.analyze c.Pdl.checked)
  | Error (`File m) -> Alcotest.fail m
  | Error (`Diags ds) ->
      Alcotest.fail
        (String.concat "\n"
           (List.map (Nfc_pdl.Diag.to_string ~file:path) ds))

(* Summaries precede located findings, so the first match is the
   top-level verdict. *)
let find_verdict (rep : Specint.report) rule =
  match
    List.find_opt
      (fun (f : Specint.finding) -> f.Specint.rule = rule)
      rep.Specint.findings
  with
  | Some f -> f
  | None -> Alcotest.fail ("no top-level " ^ rule ^ " finding")

(* ------------------------------------------------- example-spec verdicts *)

let test_stop_and_wait_static () =
  let _, rep = analyze_file "stop_and_wait.nfc" in
  checkb "converged" true rep.Specint.converged;
  Alcotest.(check (list int)) "t->r alphabet" [ 0 ] rep.Specint.alphabet_tr;
  Alcotest.(check (list int)) "r->t alphabet" [ 1 ] rep.Specint.alphabet_rt;
  checks "H1 passes" "pass"
    (Specint.verdict_name (find_verdict rep "H1").Specint.verdict);
  checks "E1 passes" "pass"
    (Specint.verdict_name (find_verdict rep "E1").Specint.verdict);
  checks "B1 passes" "pass"
    (Specint.verdict_name (find_verdict rep "B1").Specint.verdict);
  (* The saturating counters are unbounded at the spec level, so the
     product is ω-parametric and says so. *)
  checkb "product is omega" true (rep.Specint.product = Nfc_specint.Dom.omega);
  checkb "pending is an omega slot" true
    (List.mem "pending" rep.Specint.sender.Specint.omega_slots)

let test_alternating_bit_static () =
  let _, rep = analyze_file "alternating_bit.nfc" in
  checkb "converged" true rep.Specint.converged;
  Alcotest.(check (list int)) "t->r alphabet" [ 0; 1 ] rep.Specint.alphabet_tr;
  Alcotest.(check (list int)) "r->t alphabet" [ 2; 3 ] rep.Specint.alphabet_rt;
  checki "declared headers" 4 rep.Specint.declared_headers;
  checks "H1 passes" "pass"
    (Specint.verdict_name (find_verdict rep "H1").Specint.verdict)

let test_bounded_counter_finite_product () =
  (* Every counter is guard-bounded, so the fixpoint settles to exact
     finite intervals with NO widening to ω: pending in [0,3] and
     inflight give k_t <= 8, the two dues in [0,2] give k_r <= 9. *)
  let _, rep = analyze_file "bounded_counter.nfc" in
  checkb "converged" true rep.Specint.converged;
  checki "k_t" 8 rep.Specint.sender.Specint.state_bound;
  checki "k_r" 9 rep.Specint.receiver.Specint.state_bound;
  checki "product" 72 rep.Specint.product;
  Alcotest.(check (list string)) "no omega slots" []
    (rep.Specint.sender.Specint.omega_slots
    @ rep.Specint.receiver.Specint.omega_slots);
  assert_contains "B1 names the concrete product"
    (find_verdict rep "B1").Specint.message "8*9 = 72"

(* ------------------------------------------------------- dead clauses *)

let dead_clause_src =
  {|protocol "dead-clause" {
  packets { ping }
  sender {
    counter pending = 0
    var never : bool = false
    on submit { pending += 1 }
    poll when never -> send ping { pending += 1 }
    poll when pending > 0 -> send ping { pending -= 1 }
  }
  receiver {
    counter due = 0
    on ping { due += 1 }
    poll when due > 0 -> deliver { due -= 1 }
  }
}|}

let test_dead_clause_located () =
  let c = Test_pdl.compile_ok dead_clause_src in
  let rep = Specint.analyze c.Pdl.checked in
  checkb "converged" true rep.Specint.converged;
  checki "one dead sender clause" 1
    (List.length rep.Specint.sender.Specint.dead_clauses);
  checki "no dead receiver clauses" 0
    (List.length rep.Specint.receiver.Specint.dead_clauses);
  (* The located Q1 finding points at the dead poll clause (line 7). *)
  let located =
    List.filter
      (fun (f : Specint.finding) ->
        f.Specint.rule = "Q1" && f.Specint.span <> None)
      rep.Specint.findings
  in
  checki "one located Q1 finding" 1 (List.length located);
  match (List.hd located).Specint.span with
  | Some sp -> checki "span on the dead clause" 7 sp.Nfc_pdl.Diag.first.Nfc_pdl.Diag.line
  | None -> assert false

(* ------------------------------------- Static upgrade / cross-validation *)

let test_apply_to_lint_upgrades () =
  let c, rep = analyze_file "bounded_counter.nfc" in
  let r = Lint.Engine.run Lint.Checks.default_config c.Pdl.spec in
  let r' = Specint.apply_to_lint rep r in
  let strengths = r'.Lint.Engine.certificate.Lint.Certificate.rule_strengths in
  List.iter
    (fun rule ->
      match List.assoc_opt rule strengths with
      | Some Lint.Certificate.Static -> ()
      | Some _ -> Alcotest.fail (rule ^ " not upgraded to static")
      | None -> Alcotest.fail (rule ^ " missing from rule_strengths"))
    [ "H1"; "B1"; "E1" ];
  (* T1/Q1 stay exploration-bound, so the overall strength does not
     jump tiers. *)
  (match r'.Lint.Engine.certificate.Lint.Certificate.strength with
  | Lint.Certificate.Bounded _ -> ()
  | _ -> Alcotest.fail "overall strength must stay bounded");
  checkb "A1 audit info present" true
    (List.exists
       (fun (d : Lint.Diagnostic.t) ->
         d.Lint.Diagnostic.rule = "A1"
         && d.Lint.Diagnostic.severity = Lint.Diagnostic.Info
         && contains d.Lint.Diagnostic.message "static certification")
       r'.Lint.Engine.diagnostics);
  checkb "no contradiction warnings" false
    (List.exists
       (fun (d : Lint.Diagnostic.t) ->
         d.Lint.Diagnostic.rule = "A1"
         && d.Lint.Diagnostic.severity = Lint.Diagnostic.Warning)
       r'.Lint.Engine.diagnostics);
  (* The untouched result is unchanged — apply_to_lint is pure. *)
  checkb "original strengths untouched" true
    (List.assoc_opt "E1" r.Lint.Engine.certificate.Lint.Certificate.rule_strengths
    = None)

let test_examples_agree_with_exploration () =
  List.iter
    (fun file ->
      let c, rep = analyze_file file in
      let r = Lint.Engine.run Lint.Checks.default_config c.Pdl.spec in
      let cert = r.Lint.Engine.certificate in
      let static_alpha =
        List.sort_uniq compare (rep.Specint.alphabet_tr @ rep.Specint.alphabet_rt)
      in
      let observed =
        List.sort_uniq compare
          (cert.Lint.Certificate.alphabet_tr @ cert.Lint.Certificate.alphabet_rt)
      in
      checkb (file ^ ": explored alphabet inside the symbolic one") true
        (List.for_all (fun p -> List.mem p static_alpha) observed);
      checkb (file ^ ": explored product inside the symbolic bound") true
        (rep.Specint.product = Nfc_specint.Dom.omega
        || cert.Lint.Certificate.k_t * cert.Lint.Certificate.k_r
           <= rep.Specint.product))
    [ "stop_and_wait.nfc"; "alternating_bit.nfc"; "bounded_counter.nfc" ]

(* --------------------------------------------------- registry did-you-mean *)

let test_registry_suggestions () =
  (* Near-miss builtin names. *)
  (match Registry.parse "stennig" with
  | Ok _ -> Alcotest.fail "stennig must not parse"
  | Error m ->
      assert_contains "suggests stenning" m {|did you mean "stenning"|});
  (match Registry.parse "altbat" with
  | Ok _ -> Alcotest.fail "altbat must not parse"
  | Error m -> assert_contains "suggests altbit" m {|did you mean "altbit"|});
  (* A typo'd file: scheme lands on the pseudo-entry. *)
  (match Registry.parse "fiel:examples/specs/stop_and_wait.nfc" with
  | Ok _ -> Alcotest.fail "fiel: must not parse"
  | Error m -> assert_contains "suggests file" m {|did you mean "file"|});
  checkb "suggest exposes file" true (Registry.suggest "flie" = Some "file")

(* ------------------------------------------------------ QCheck property *)

(* Agreement-or-unknown on random valid specs: compile a generated AST,
   run the abstract interpreter and a 15k-node exploration, and require
   (a) every explored packet lies in the symbolic alphabet, (b) the
   explored state product respects the symbolic Theorem 2.1 bound, and
   (c) apply_to_lint never reports a contradiction.  Mutated sources that
   no longer compile are vacuously fine (the checker owns that case). *)
let lint_cfg_15k =
  {
    Lint.Checks.default_config with
    Lint.Checks.bounds =
      {
        Nfc_mcheck.Explore.default_bounds with
        capacity_tr = 2;
        capacity_rt = 2;
        submit_budget = 3;
        max_nodes = 15_000;
      };
  }

let agreement_or_unknown src =
  match Pdl.compile_string src with
  | Error _ -> true
  | Ok c -> (
      let rep = Specint.analyze c.Pdl.checked in
      let r = Lint.Engine.run lint_cfg_15k c.Pdl.spec in
      let cert = r.Lint.Engine.certificate in
      let static_alpha =
        rep.Specint.alphabet_tr @ rep.Specint.alphabet_rt
      in
      let observed =
        cert.Lint.Certificate.alphabet_tr @ cert.Lint.Certificate.alphabet_rt
      in
      let alpha_ok =
        (not rep.Specint.converged)
        || List.for_all (fun p -> List.mem p static_alpha) observed
      in
      let product_ok =
        (not rep.Specint.converged)
        || rep.Specint.product = Nfc_specint.Dom.omega
        || cert.Lint.Certificate.k_t * cert.Lint.Certificate.k_r
           <= rep.Specint.product
      in
      let r' = Specint.apply_to_lint rep r in
      let no_contradiction =
        not
          (List.exists
             (fun (d : Lint.Diagnostic.t) ->
               d.Lint.Diagnostic.rule = "A1"
               && d.Lint.Diagnostic.severity = Lint.Diagnostic.Warning)
             r'.Lint.Engine.diagnostics)
      in
      match (alpha_ok, product_ok, no_contradiction) with
      | true, true, true -> true
      | _ ->
          QCheck.Test.fail_reportf
            "static/bounded disagreement on:\n%s\nalpha_ok=%b product_ok=%b \
             no_contradiction=%b"
            src alpha_ok product_ok no_contradiction)

let prop_agreement =
  QCheck.Test.make ~name:"static verdicts agree with 15k-node exploration"
    ~count:20 Test_pdl.arb_spec (fun spec ->
      agreement_or_unknown (Nfc_pdl.Ast.print spec))

let prop_agreement_mutated =
  (* Byte-level mutations of printed specs: most stop compiling (vacuous),
     the survivors must still agree. *)
  QCheck.Test.make ~name:"static verdicts agree on mutated specs" ~count:30
    (QCheck.pair Test_pdl.arb_spec
       (QCheck.triple QCheck.small_nat QCheck.small_nat QCheck.small_nat))
    (fun (spec, mut) ->
      agreement_or_unknown (Test_pdl.mutate (Nfc_pdl.Ast.print spec) mut))

let suite =
  [
    ("stop-and-wait static verdicts", `Quick, test_stop_and_wait_static);
    ("alternating-bit static verdicts", `Quick, test_alternating_bit_static);
    ("bounded-counter finite product", `Quick, test_bounded_counter_finite_product);
    ("dead clause located", `Quick, test_dead_clause_located);
    ("apply_to_lint upgrades H1/B1/E1", `Quick, test_apply_to_lint_upgrades);
    ("examples agree with exploration", `Quick, test_examples_agree_with_exploration);
    ("registry did-you-mean pool", `Quick, test_registry_suggestions);
    QCheck_alcotest.to_alcotest prop_agreement;
    QCheck_alcotest.to_alcotest prop_agreement_mutated;
  ]
