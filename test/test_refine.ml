(* Tests for Nfc_refine, the CEGAR layer over the spec-level abstract
   interpreter: the promotion pin (flooding_counter's ω-parametric B1
   becomes a concrete product under refinement), the refutation pin
   (pumped_counter's only candidate invariant is concretely refuted and
   surfaces as a located R1 fail), domain-arithmetic laws the split
   machinery leans on (saturation at the ω ceiling, accelerate
   idempotence, split/join round-trips, interval arithmetic that
   saturates exactly where native ints wrap), certificate provenance
   (refine_rounds), and the per-round soundness property: every report
   in the refinement history — not just the final one — must agree with
   (or stay unknown against) a bounded exploration, on arbitrary and
   byte-mutated specs. *)

module Pdl = Nfc_pdl.Pdl
module Itv = Nfc_pdl.Itv
module Opvec = Nfc_absint.Opvec
module Specint = Nfc_specint.Specint
module Refine = Nfc_refine.Refine
module Lint = Nfc_lint

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let contains = Test_pdl.contains
let assert_contains = Test_pdl.assert_contains

let refine_file ?(rounds = 3) file =
  let path = Test_pdl.example file in
  match Pdl.compile_file path with
  | Ok c -> (c, Refine.run ~rounds c.Pdl.checked)
  | Error (`File m) -> Alcotest.fail m
  | Error (`Diags ds) ->
      Alcotest.fail
        (String.concat "\n" (List.map (Nfc_pdl.Diag.to_string ~file:path) ds))

let find_verdict (rep : Specint.report) rule =
  match
    List.find_opt
      (fun (f : Specint.finding) -> f.Specint.rule = rule)
      rep.Specint.findings
  with
  | Some f -> f
  | None -> Alcotest.fail ("no top-level " ^ rule ^ " finding")

(* ------------------------------------------------------ promotion pin *)

let test_flooding_promoted () =
  let _, res = refine_file "flooding_counter.nfc" in
  (* One-shot: the submit-guarded credit counter widens to ω. *)
  checkb "base product is omega" true
    (res.Refine.base.Specint.product = Itv.omega);
  checkb "base B1 carries why-provenance" true
    (match (find_verdict res.Refine.base "B1").Specint.why with
    | Some w -> contains w "widened slot" && contains w "credit"
    | None -> false);
  (* Refined: candidate 40 (guard constant 39 + unit step) survives the
     replay, the split target reconverges to credit in [0,40]. *)
  checkb "promoted" true res.Refine.promoted;
  checki "one round" 1 res.Refine.rounds_used;
  checki "concrete product" 738 res.Refine.report.Specint.product;
  checkb "refined report converged" true res.Refine.report.Specint.converged;
  assert_contains "B1 names the concrete product"
    (find_verdict res.Refine.report "B1").Specint.message "82*9 = 738";
  checkb "no refutations" true (res.Refine.refuted = []);
  (match res.Refine.rounds with
  | [ { Refine.action = Refine.Promoted 40; station = "sender"; slot_name = "credit"; _ } ] -> ()
  | _ -> Alcotest.fail "round log must be a single sender.credit promotion at 40");
  (* History: base first, refined second, both sound fixpoints. *)
  checki "history length" 2 (List.length res.Refine.history)

let test_flooding_requires_refinement () =
  (* The promotion is real work: the one-shot analysis of the same file
     stays ω-parametric. *)
  let path = Test_pdl.example "flooding_counter.nfc" in
  match Pdl.compile_file path with
  | Ok c ->
      let rep = Specint.analyze c.Pdl.checked in
      checkb "one-shot product is omega" true (rep.Specint.product = Itv.omega)
  | Error _ -> Alcotest.fail "flooding_counter.nfc must compile"

(* ----------------------------------------------------- refutation pin *)

let test_pumped_refuted () =
  let _, res = refine_file "pumped_counter.nfc" in
  checkb "not promoted" false res.Refine.promoted;
  checkb "product still omega" true
    (res.Refine.report.Specint.product = Itv.omega);
  (match res.Refine.refuted with
  | [ r ] ->
      Alcotest.(check string) "refuted slot" "pending" r.Refine.rslot;
      checki "refuted bound" 11 r.Refine.rbound;
      checkb "witness trace is non-trivial" true (r.Refine.rtrace_len > 0)
  | _ -> Alcotest.fail "exactly one refutation expected");
  (* The located R1 fail finding rides in the final report. *)
  let r1 = find_verdict res.Refine.report "R1" in
  checkb "R1 fails" true (r1.Specint.verdict = Specint.Fail);
  assert_contains "R1 names the refuted invariant" r1.Specint.message
    "pending <= 11";
  (match r1.Specint.span with
  | Some sp ->
      (* Anchored at the pumping clause (`on ack { pending += 4 }`). *)
      checki "R1 span line" 22 sp.Nfc_pdl.Diag.first.Nfc_pdl.Diag.line
  | None -> Alcotest.fail "R1 must carry a span");
  (* B1 itself is untouched: the slot really is unbounded, so the
     ω-parametric Pass stands — refinement located a fact, it did not
     flip a verdict. *)
  checkb "B1 still passes ω-parametrically" true
    ((find_verdict res.Refine.report "B1").Specint.verdict = Specint.Pass)

let test_bounded_counter_zero_rounds () =
  (* Nothing to refine: the one-shot product is already concrete, so the
     loop exits before burning a round and the report is the base. *)
  let _, res = refine_file "bounded_counter.nfc" in
  checki "zero rounds" 0 res.Refine.rounds_used;
  checkb "not promoted (nothing to promote)" false res.Refine.promoted;
  checki "product" 72 res.Refine.report.Specint.product

(* ----------------------------------------- certificate provenance *)

let test_refine_rounds_in_certificate () =
  let c, res = refine_file "flooding_counter.nfc" in
  let r = Lint.Engine.run Test_specint.lint_cfg_15k c.Pdl.spec in
  let r' =
    Specint.apply_to_lint ~refine_rounds:res.Refine.rounds_used
      ~refine_notes:(Refine.notes res) res.Refine.report r
  in
  checkb "refine_rounds recorded" true
    (r'.Lint.Engine.certificate.Lint.Certificate.refine_rounds = Some 1);
  (* The notes land as A1 Info diagnostics after the upgrade summary. *)
  checkb "refinement note present" true
    (List.exists
       (fun (d : Lint.Diagnostic.t) ->
         d.Lint.Diagnostic.rule = "A1"
         && d.Lint.Diagnostic.severity = Lint.Diagnostic.Info
         && contains d.Lint.Diagnostic.message "refinement:")
       r'.Lint.Engine.diagnostics);
  (* Unrefined runs keep the JSONL byte-stable: refine_rounds is null. *)
  let plain = Specint.apply_to_lint res.Refine.base r in
  checkb "unrefined certificate has no refine_rounds" true
    (plain.Lint.Engine.certificate.Lint.Certificate.refine_rounds = None);
  assert_contains "JSONL spells null"
    (Nfc_util.Json.to_string
       (Lint.Certificate.to_json plain.Lint.Engine.certificate))
    "\"refine_rounds\":null"

(* ---------------------------------------------- domain-arithmetic laws *)

let test_saturation_at_omega () =
  let w = Opvec.omega in
  checki "add saturates" w (Opvec.sat_add w 1);
  checki "add saturates symmetrically" w (Opvec.sat_add 1 w);
  checki "mul saturates" w (Opvec.sat_mul w 2);
  checki "mul absorbs zero" 0 (Opvec.sat_mul w 0);
  (* Finite overflow rounds up to ω, never wraps negative. *)
  checki "add overflow is omega" w (Opvec.sat_add (w - 1) (w - 1));
  checki "mul overflow is omega" w (Opvec.sat_mul (w / 2) 3);
  (* The interval domain and the channel domain share one ω. *)
  checki "Itv.omega is Opvec.omega" w Itv.omega

let prop_saturation =
  QCheck.Test.make ~name:"sat_add/sat_mul stay in [0,ω] and are monotone"
    ~count:300
    QCheck.(quad small_nat small_nat small_nat small_nat)
    (fun (a, b, c, d) ->
      let w = Opvec.omega in
      let vals = [ a; b; w - c; w ] in
      List.for_all
        (fun x ->
          List.for_all
            (fun y ->
              let s = Opvec.sat_add x y and m = Opvec.sat_mul x y in
              s >= 0 && s <= w && m >= 0 && m <= w
              && s >= min w (max x y)
              && (d = 0 || Opvec.sat_add x (min y d) <= s))
            vals)
        vals)

let opvec_gen =
  QCheck.Gen.(
    map
      (fun l ->
        Opvec.of_array
          (Array.of_list (List.map (fun c -> if c >= 4 then Opvec.omega else c) l)))
      (list_size (int_bound 5) (int_bound 5)))

let opvec_arb =
  QCheck.make ~print:(fun v -> Format.asprintf "%a" (Opvec.pp ?packet:None) v) opvec_gen

let prop_accelerate_idempotent =
  (* Accelerating twice against the same prev adds nothing: the first
     pass already pumped every strictly-growing coordinate to ω. *)
  QCheck.Test.make ~name:"accelerate is idempotent" ~count:300
    (QCheck.pair opvec_arb opvec_arb)
    (fun (a, b) ->
      let prev = a and t = Opvec.join a b in
      let once = Opvec.accelerate ~prev t in
      Opvec.equal (Opvec.accelerate ~prev once) once)

let itv_arb =
  QCheck.make
    ~print:(fun (lo, hi, c) -> Printf.sprintf "[%d,%d] @ %d" lo hi c)
    QCheck.Gen.(
      map
        (fun (a, b, c) -> (min a b, max a b, c))
        (triple (int_range (-5) 20) (int_range (-5) 20) (int_range (-8) 25)))

let prop_split_join_roundtrip =
  QCheck.Test.make ~name:"Itv.split halves partition and join restores" ~count:500
    itv_arb
    (fun (lo, hi, c) ->
      let iv = { Itv.lo; hi } in
      match Itv.split iv c with
      | None -> c < lo || c >= hi (* only degenerate cuts are refused *)
      | Some (a, b) ->
          a.Itv.lo = lo && b.Itv.hi = hi
          && a.Itv.hi = c
          && b.Itv.lo = c + 1
          && Itv.join a b = iv
          && Itv.meet a b = None
          && Itv.size iv = Opvec.sat_add (Itv.size a) (Itv.size b))

(* Interval endpoints and points drawn near 0, near ±2^31 (where a
   product first wraps) and near ±ω = ±max_int (where a sum does). *)
let bound_gen =
  let open QCheck.Gen in
  let near c = map (fun d -> max Itv.neg_omega (min Itv.omega (c + d))) (int_range (-3) 3) in
  oneof
    [ near 0; near (1 lsl 31); near (-(1 lsl 31)); near Itv.omega; near Itv.neg_omega;
      int_range (-1000) 1000 ]

(* Two intervals and one point inside each. *)
let arith_arb =
  let open QCheck.Gen in
  let itv_with_point =
    map
      (fun (a, b, x) ->
        let lo = min a b and hi = max a b in
        ({ Itv.lo; hi }, max lo (min hi x)))
      (triple bound_gen bound_gen bound_gen)
  in
  QCheck.make
    ~print:(fun ((a, x), (b, y)) ->
      Format.asprintf "%a ∋ %d, %a ∋ %d" Itv.pp a x Itv.pp b y)
    (pair itv_with_point itv_with_point)

(* Where the exact result of a native op on [x], [y] falls: [`Above] /
   [`Below] when it leaves [-ω, ω] (native ints wrapped, or it is
   exactly min_int), else [`In r]. *)
let exact_add x y =
  let r = x + y in
  if x > 0 && y > 0 && r < 0 then `Above
  else if x < 0 && y < 0 && (r >= 0 || r = min_int) then `Below
  else `In r

let exact_mul x y =
  if x = 0 || y = 0 then `In 0
  else
    let r = x * y in
    if r / y <> x || r = min_int then if x > 0 = (y > 0) then `Above else `Below
    else `In r

let prop_itv_arith_sound =
  QCheck.Test.make
    ~name:"Itv add/sub/mul contain every unwrapped result, reach ±ω where it wraps"
    ~count:2000 arith_arb
    (fun ((a, x), (b, y)) ->
      let holds name (res : Itv.t) = function
        | `In r ->
            res.Itv.lo <= r && r <= res.Itv.hi
            || QCheck.Test.fail_reportf "%s: %d outside %a" name r Itv.pp res
        | `Above ->
            res.Itv.hi = Itv.omega
            || QCheck.Test.fail_reportf "%s: wrapped above, got %a" name Itv.pp res
        | `Below ->
            res.Itv.lo = Itv.neg_omega
            || QCheck.Test.fail_reportf "%s: wrapped below, got %a" name Itv.pp res
      in
      holds "add" (Itv.add a b) (exact_add x y)
      && holds "sub" (Itv.sub a b) (exact_add x (-y))
      && holds "mul" (Itv.mul a b) (exact_mul x y))

(* ------------------------------------------ per-round soundness property *)

(* Small replay bounds keep the property fast; the concrete replay is a
   falsification probe, so shrinking it can only make refinement MORE
   conservative, never unsound. *)
let small_replay =
  {
    Nfc_mcheck.Explore.capacity_tr = 2;
    capacity_rt = 2;
    submit_budget = 2;
    max_nodes = 2_000;
    allow_drop = true;
    por = false;
  }

(* Every report the refinement loop ever accepted — the base run and each
   reconverged re-run — must individually agree with (or abstain against)
   one bounded exploration, and applying the FINAL report to the lint
   result must not produce an A1 contradiction.  This is the
   agree-or-abstain contract of the one-shot tier, quantified over
   rounds: refinement may tighten bounds, never cross the exploration. *)
let refined_agreement src =
  match Pdl.compile_string src with
  | Error _ -> true
  | Ok c -> (
      let res = Refine.run ~rounds:2 ~replay_bounds:small_replay c.Pdl.checked in
      let r = Lint.Engine.run Test_specint.lint_cfg_15k c.Pdl.spec in
      let cert = r.Lint.Engine.certificate in
      let observed =
        cert.Lint.Certificate.alphabet_tr @ cert.Lint.Certificate.alphabet_rt
      in
      let round_ok (rep : Specint.report) =
        let static_alpha = rep.Specint.alphabet_tr @ rep.Specint.alphabet_rt in
        let alpha_ok =
          (not rep.Specint.converged)
          || List.for_all (fun p -> List.mem p static_alpha) observed
        in
        let product_ok =
          (not rep.Specint.converged)
          || rep.Specint.product = Itv.omega
          || cert.Lint.Certificate.k_t * cert.Lint.Certificate.k_r
             <= rep.Specint.product
        in
        alpha_ok && product_ok
      in
      let bad = List.filter (fun rep -> not (round_ok rep)) res.Refine.history in
      let r' =
        Specint.apply_to_lint ~refine_rounds:res.Refine.rounds_used
          ~refine_notes:(Refine.notes res) res.Refine.report r
      in
      let no_contradiction =
        not
          (List.exists
             (fun (d : Lint.Diagnostic.t) ->
               d.Lint.Diagnostic.rule = "A1"
               && d.Lint.Diagnostic.severity = Lint.Diagnostic.Warning)
             r'.Lint.Engine.diagnostics)
      in
      match (bad, no_contradiction) with
      | [], true -> true
      | _ ->
          QCheck.Test.fail_reportf
            "refinement/bounded disagreement on:\n%s\nbad_rounds=%d \
             no_contradiction=%b rounds_used=%d"
            src (List.length bad) no_contradiction res.Refine.rounds_used)

let prop_refined_agreement =
  QCheck.Test.make
    ~name:"refined verdicts agree-or-abstain at every round" ~count:15
    Test_pdl.arb_spec
    (fun spec -> refined_agreement (Nfc_pdl.Ast.print spec))

let prop_refined_agreement_mutated =
  QCheck.Test.make
    ~name:"refined verdicts agree-or-abstain on mutated specs" ~count:20
    (QCheck.pair Test_pdl.arb_spec
       (QCheck.triple QCheck.small_nat QCheck.small_nat QCheck.small_nat))
    (fun (spec, mut) ->
      refined_agreement (Test_pdl.mutate (Nfc_pdl.Ast.print spec) mut))

let suite =
  [
    ("flooding-counter promoted to concrete B1", `Quick, test_flooding_promoted);
    ("flooding-counter needs refinement", `Quick, test_flooding_requires_refinement);
    ("pumped-counter refuted with located R1", `Quick, test_pumped_refuted);
    ("bounded-counter needs zero rounds", `Quick, test_bounded_counter_zero_rounds);
    ("refine_rounds certificate provenance", `Quick, test_refine_rounds_in_certificate);
    ("saturation at the ω ceiling", `Quick, test_saturation_at_omega);
    QCheck_alcotest.to_alcotest prop_saturation;
    QCheck_alcotest.to_alcotest prop_accelerate_idempotent;
    QCheck_alcotest.to_alcotest prop_split_join_roundtrip;
    QCheck_alcotest.to_alcotest prop_itv_arith_sound;
    QCheck_alcotest.to_alcotest prop_refined_agreement;
    QCheck_alcotest.to_alcotest prop_refined_agreement_mutated;
  ]
