(* Tests for Nfc_pdl: located diagnostics end to end, checker rejections
   and warnings, QCheck robustness (the compiler never raises, every
   failure carries a line/column span, print . parse . print is the
   identity on printed specs), the registry's did-you-mean suggestions
   and [file:PATH] loader, and the differential guarantee: the compiled
   example specs are byte-identical to the hand-written modules under
   both the bounded linter and the complete (cover) tier, and under the
   boundness prober. *)

module Pdl = Nfc_pdl.Pdl
module Diag = Nfc_pdl.Diag
module Ast = Nfc_pdl.Ast
module Parser = Nfc_pdl.Parser
module Registry = Nfc_protocol.Registry
module J = Nfc_util.Json

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let assert_contains what hay needle =
  if not (contains hay needle) then
    Alcotest.fail (Printf.sprintf "%s: expected %S inside %S" what needle hay)

(* ------------------------------------------------------------- helpers *)

let compile_ok src =
  match Pdl.compile_string src with
  | Ok c -> c
  | Error ds ->
      Alcotest.fail
        ("expected the spec to compile: "
        ^ String.concat "; " (List.map (Diag.to_string ?file:None) ds))

let compile_errs src =
  match Pdl.compile_string src with
  | Error ds -> ds
  | Ok _ -> Alcotest.fail "expected the spec to be rejected"

let well_spanned ds =
  List.for_all
    (fun d ->
      d.Diag.span.Diag.first.Diag.line >= 1 && d.Diag.span.Diag.first.Diag.col >= 1)
    ds

(* A minimal valid protocol used as the template for error injection. *)
let valid_src =
  {|protocol "pdl-unit" {
  packets { ping }
  sender {
    counter pending = 0
    on submit { pending += 1 }
    poll when pending > 0 -> send ping { pending -= 1 }
  }
  receiver {
    counter due = 0 saturate budget + 1
    on ping { due += 1 }
    poll when due > 0 -> deliver { due -= 1 }
  }
}
|}

(* ---------------------------------------------------------- unit tests *)

let test_compile_valid () =
  let c = compile_ok valid_src in
  checks "protocol name" "pdl-unit" (Nfc_protocol.Spec.name c.Pdl.spec);
  checki "no warnings" 0 (List.length c.Pdl.warnings);
  let c2 = compile_ok valid_src in
  checks "digest is deterministic" c.Pdl.digest c2.Pdl.digest;
  let c3 = compile_ok (valid_src ^ "// trailing comment\n") in
  checkb "digest covers the raw source text" true (c.Pdl.digest <> c3.Pdl.digest)

let test_lexer_error_span () =
  match Pdl.compile_string "protocol \"x\" { @ }" with
  | Ok _ -> Alcotest.fail "lexing '@' must fail"
  | Error [ d ] ->
      checki "line" 1 d.Diag.span.Diag.first.Diag.line;
      checki "col" 16 d.Diag.span.Diag.first.Diag.col;
      checkb "severity" true (d.Diag.severity = Diag.Error)
  | Error _ -> Alcotest.fail "lexing stops at the first bad character"

let test_parse_error_span () =
  match Pdl.compile_string "protocol \"p\" {\n  sender { }\n}\n" with
  | Ok _ -> Alcotest.fail "a spec without a receiver must fail"
  | Error [ d ] ->
      assert_contains "message" d.Diag.message "missing receiver section";
      checki "line" 3 d.Diag.span.Diag.first.Diag.line
  | Error _ -> Alcotest.fail "the parser reports exactly one error"

let test_checker_unknown_ident () =
  let src =
    {|protocol "p" {
  packets { ping }
  sender {
    counter pending = 0
    on submit { pending += 1 }
    poll when ghost > 0 -> send ping { pending -= 1 }
  }
  receiver { on ping }
}
|}
  in
  let ds = compile_errs src in
  checkb "all located" true (well_spanned ds);
  assert_contains "message" (String.concat "; " (List.map Diag.(to_string ?file:None) ds))
    "unknown identifier \"ghost\""

let test_checker_counter_negativity () =
  (* [due -= 1] without a [due > 0] guard: the interval analysis cannot
     prove non-negativity and must say how to fix it. *)
  let src =
    {|protocol "p" {
  packets { ping }
  sender {
    counter pending = 0
    on submit { pending += 1 }
    poll when pending > 0 -> send ping { pending -= 1 }
  }
  receiver {
    counter due = 0 saturate budget + 1
    on ping { due += 1 }
    poll -> deliver { due -= 1 }
  }
}
|}
  in
  let msg = String.concat "; " (List.map Diag.(to_string ?file:None) (compile_errs src)) in
  assert_contains "message" msg "stays non-negative";
  assert_contains "suggests a guard" msg "when due > 0"

let test_checker_range_violation () =
  let src =
    {|protocol "p" {
  packets { ping }
  sender {
    var t : 0 .. 3 = 0
    on submit { t += 1 }
    poll -> send ping
  }
  receiver { on ping }
}
|}
  in
  let msg = String.concat "; " (List.map Diag.(to_string ?file:None) (compile_errs src)) in
  assert_contains "message" msg "cannot prove \"t\" stays within its declared range 0 .. 3"

let test_checker_duplicate_decl () =
  let src =
    {|protocol "p" {
  packets { ping }
  sender {
    counter pending = 0
    counter pending = 0
    poll -> send ping
  }
  receiver { on ping }
}
|}
  in
  let msg = String.concat "; " (List.map Diag.(to_string ?file:None) (compile_errs src)) in
  assert_contains "message" msg "duplicate declaration of \"pending\" in the sender"

let test_checker_warnings () =
  let src =
    {|protocol "p" {
  packets { ping }
  sender {
    counter pending = 0
    on submit { pending += 1 }
    on ping when 1 > 2 { pending += 1 }
    poll when pending > 0 -> send ping { pending -= 1 }
  }
  receiver {
    counter due = 0 saturate budget + 1
    on ping { due += 1 }
    on ping { due += 1 }
    poll when due > 0 -> deliver { due -= 1 }
  }
}
|}
  in
  let c = compile_ok src in
  let msgs = String.concat "; " (List.map Diag.(to_string ?file:None) c.Pdl.warnings) in
  checkb "warnings are located" true (well_spanned c.Pdl.warnings);
  checkb "warnings are warnings" true
    (List.for_all (fun d -> d.Diag.severity = Diag.Warning) c.Pdl.warnings);
  assert_contains "unsatisfiable guard" msgs "clause can never fire";
  assert_contains "shadowed clause" msgs "shadowed by an earlier clause"

(* Every diagnostic is an error (the CLI's exit 2) and the first one sits
   at [line]:[col] and carries [msg]. *)
let assert_rejected_at what src ~msg ~line ~col =
  match compile_errs src with
  | [] -> Alcotest.fail (what ^ ": no diagnostic")
  | d :: _ as ds ->
      checkb (what ^ ": all errors (exit 2)") true
        (List.for_all (fun d -> d.Diag.severity = Diag.Error) ds);
      assert_contains what d.Diag.message msg;
      checki (what ^ ": line") line d.Diag.span.Diag.first.Diag.line;
      checki (what ^ ": col") col d.Diag.span.Diag.first.Diag.col

let sender_assigning rhs =
  Printf.sprintf
    {|protocol "p" {
  packets { ping }
  sender {
    var y : 0 .. 2 = 1
    var x : 0 .. 3 = 0
    on submit { x = %s }
    poll -> send ping
  }
  receiver { on ping }
}
|}
    rhs

let sender_counting act =
  Printf.sprintf
    {|protocol "p" {
  packets { ping }
  sender {
    var x : 0 .. 3 = 0
    counter c = 0
    on submit { %s }
    poll when c < 0 -> send ping { x = 100 }
    poll -> send ping
  }
  receiver { on ping }
}
|}
    act

let test_checker_wrapping_arithmetic () =
  (* Every right-hand side wraps on native ints (to min_int at y = 1, to
     0, and each counter write to min_int by the second submit): the
     saturating interval arithmetic must see past the wrap and refuse the
     assignment.  Counters are unbounded above, so a counter write is
     refused when some sub-computation overflows on every state; were it
     accepted, [c < 0] would look infeasible and the out-of-range
     [x = 100] behind it would go unchecked. *)
  let range = "cannot prove \"x\" stays within its declared range 0 .. 3"
  and counter = "cannot prove counter \"c\" stays non-negative" in
  List.iter
    (fun (spec, rhs, msg) -> assert_rejected_at rhs (spec rhs) ~msg ~line:6 ~col:17)
    [
      (sender_assigning, "y * (2147483648 * 2147483648)", range);
      (sender_assigning, "4611686018427387903 + 4611686018427387903 + 2", range);
      (sender_counting, "c = 4611686018427387903 + 1", counter);
      (sender_counting, "c = 2147483648 * 2147483648", counter);
      (sender_counting, "c = c * (2147483648 * 2147483648) + 1", counter);
    ]

let test_checker_overflowing_widths () =
  List.iter
    (fun (what, src, msg, line, col) -> assert_rejected_at what src ~msg ~line ~col)
    [
      ( "range span",
        {|protocol "p" {
  packets { ping }
  sender {
    var x : -4611686018427387903 .. 4611686018427387903 = 0
    poll -> send ping
  }
  receiver { on ping }
}
|},
        "range wider than 4096 values", 4, 13 );
      ( "family size",
        {|protocol "p" {
  packets { data(b : 0 .. 4611686018427387903) }
  sender { poll -> send data(0) }
  receiver { on data }
}
|},
        "packet alphabet exceeds 64 distinct values", 2, 13 );
      ( "constant folding",
        {|protocol "p" {
  const c = 4611686018427387903
  const d = c + c + 4
  packets { ping }
  sender { poll -> send ping }
  receiver { on ping }
}
|},
        "constant expression overflows", 3, 13 );
    ]

let test_checker_counter_product () =
  (* ω times a positive constant is ω, not ⊤: doubling a counter keeps it
     non-negative, exactly like adding it to itself. *)
  List.iter
    (fun act ->
      ignore
        (compile_ok
           (Printf.sprintf
              {|protocol "p" {
  packets { ping }
  sender {
    counter c = 0
    on submit { %s }
    poll -> send ping
  }
  receiver { on ping }
}
|}
              act)))
    [ "c = c * 2"; "c += c" ]

(* ------------------------------------------------- registry integration *)

let test_registry_suggestion () =
  (match Registry.parse "stennig" with
  | Ok _ -> Alcotest.fail "misspelt name must not resolve"
  | Error msg ->
      checks "did-you-mean message" "unknown protocol \"stennig\" (did you mean \"stenning\"?)"
        msg);
  checkb "suggest over aliases" true (Registry.suggest "altbti" = Some "altbit");
  checkb "no far-fetched suggestions" true (Registry.suggest "zzzzzzzz" = None)

(* `dune runtest` runs the binary from _build/default/test (the deps in
   test/dune place the specs one level up); `dune exec` runs it from the
   project root.  Accept either. *)
let example file =
  let candidates = [ "../examples/specs/" ^ file; "examples/specs/" ^ file ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate example spec " ^ file)

let sw_path () = example "stop_and_wait.nfc"
let ab_path () = example "alternating_bit.nfc"

let test_file_loader () =
  Pdl.install_loader ();
  (match Registry.parse ("file:" ^ sw_path ()) with
  | Ok spec -> checks "loaded name" "stop-and-wait" (Nfc_protocol.Spec.name spec)
  | Error m -> Alcotest.fail m);
  (match Registry.parse "file:" with
  | Ok _ -> Alcotest.fail "file: without a path must fail"
  | Error m -> assert_contains "empty path" m "needs a path");
  (match Registry.parse "file:/nonexistent/spec.nfc" with
  | Ok _ -> Alcotest.fail "a missing file must fail"
  | Error _ -> ())

(* ---------------------------------------------------- differential tests *)

let compile_example path =
  match Pdl.compile_file path with
  | Ok c ->
      checki (path ^ " has no warnings") 0 (List.length c.Pdl.warnings);
      c.Pdl.spec
  | Error (`File m) -> Alcotest.fail m
  | Error (`Diags ds) ->
      Alcotest.fail (String.concat "\n" (List.map (Diag.to_string ~file:path) ds))

let lint_line cfg proto = Nfc_lint.Report.jsonl [ Nfc_lint.Engine.run cfg proto ]

(* The PDL re-expressions of stop-and-wait and the alternating-bit
   protocol must be observationally identical to the hand-written
   modules: same lint verdicts (same witnesses, same certificate), byte
   for byte, at both tiers. *)
let test_differential_lint_bounded () =
  let cfg = Nfc_lint.Checks.default_config in
  checks "stop-and-wait bounded lint"
    (lint_line cfg (Nfc_protocol.Stop_and_wait.make ()))
    (lint_line cfg (compile_example (sw_path ())));
  checks "alternating-bit bounded lint"
    (lint_line cfg (Nfc_protocol.Alternating_bit.make ()))
    (lint_line cfg (compile_example (ab_path ())))

let test_differential_lint_complete () =
  let cfg = { Nfc_lint.Checks.default_config with complete = true } in
  checks "stop-and-wait complete lint"
    (lint_line cfg (Nfc_protocol.Stop_and_wait.make ()))
    (lint_line cfg (compile_example (sw_path ())));
  checks "alternating-bit complete lint"
    (lint_line cfg (Nfc_protocol.Alternating_bit.make ()))
    (lint_line cfg (compile_example (ab_path ())))

let bound_json proto =
  let report =
    Nfc_mcheck.Boundness.measure proto ~explore:Nfc_mcheck.Explore.default_bounds
      ~probe:Nfc_mcheck.Boundness.default_probe_bounds
  in
  J.to_string (Nfc_mcheck.Boundness.to_json report)

let test_differential_boundness () =
  checks "stop-and-wait boundness"
    (bound_json (Nfc_protocol.Stop_and_wait.make ()))
    (bound_json (compile_example (sw_path ())));
  checks "alternating-bit boundness"
    (bound_json (Nfc_protocol.Alternating_bit.make ()))
    (bound_json (compile_example (ab_path ())))

(* ------------------------------------------------------ QCheck suites *)

module Gen = QCheck.Gen

(* Spans never influence printing, so the generators use a dummy. *)
let sp = Diag.point (Diag.pos ~line:1 ~col:1)

(* Name pools avoid keywords: a printed keyword in an identifier position
   would be a (correct) parse error and ruin the fixpoint property.
   "budget" is special — legal in expressions only, so only the
   expression pool includes it. *)
let decl_names = [ "x"; "y"; "pending"; "timer"; "limit"; "cnt" ]
let expr_idents = decl_names @ [ "budget" ]
let family_names = [ "data"; "ackp"; "nak" ]
let queue_names = [ "outq"; "acks" ]

let gen_expr : Ast.expr Gen.t =
  let base =
    Gen.oneof
      [
        Gen.map (fun i -> Ast.Int (i, sp)) (Gen.int_bound 20);
        Gen.map (fun b -> Ast.Bool (b, sp)) Gen.bool;
        Gen.map (fun x -> Ast.Ident (x, sp)) (Gen.oneofl expr_idents);
      ]
  in
  Gen.sized
    (Gen.fix (fun self n ->
         if n <= 0 then base
         else
           Gen.frequency
             [
               (2, base);
               ( 1,
                 Gen.map2
                   (fun op e -> Ast.Unop (op, e, sp))
                   (Gen.oneofl [ Ast.Neg; Ast.Not ])
                   (self (n / 2)) );
               ( 3,
                 Gen.map3
                   (fun op a b -> Ast.Binop (op, a, b, sp))
                   (Gen.oneofl
                      [
                        Ast.Add; Ast.Sub; Ast.Mul; Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt;
                        Ast.Ge; Ast.And; Ast.Or;
                      ])
                   (self (n / 2)) (self (n / 2)) );
             ]))

let gen_small_expr = gen_expr

let gen_ty =
  Gen.oneof
    [
      Gen.return (Ast.Tbool sp);
      Gen.map2 (fun lo hi -> Ast.Trange (lo, hi, sp)) gen_small_expr gen_small_expr;
    ]

let gen_decl =
  Gen.oneof
    [
      Gen.map3
        (fun name ty init -> Ast.Dvar { name; ty; init; span = sp })
        (Gen.oneofl decl_names) gen_ty gen_expr;
      Gen.map3
        (fun name init saturate -> Ast.Dcounter { name; init; saturate; span = sp })
        (Gen.oneofl decl_names) gen_expr (Gen.opt gen_expr);
      Gen.map2
        (fun name saturate -> Ast.Dqueue { name; saturate; span = sp })
        (Gen.oneofl queue_names) (Gen.opt gen_expr);
    ]

let gen_trigger =
  Gen.oneof
    [
      Gen.return (Ast.Tsubmit sp);
      Gen.map2
        (fun family binder -> Ast.Tpacket { family; binder; span = sp })
        (Gen.oneofl family_names)
        (Gen.opt (Gen.oneofl [ "b"; "k" ]));
    ]

let gen_action =
  Gen.oneof
    [
      Gen.map3
        (fun target op value -> Ast.Aset { target; op; value; span = sp })
        (Gen.oneofl decl_names)
        (Gen.oneofl [ `Assign; `Add; `Sub ])
        gen_expr;
      Gen.map3
        (fun queue family arg -> Ast.Apush { queue; family; arg; span = sp })
        (Gen.oneofl queue_names) (Gen.oneofl family_names) (Gen.opt gen_expr);
    ]

let gen_emit =
  Gen.oneof
    [
      Gen.map2
        (fun family arg -> Ast.Esend { family; arg; span = sp })
        (Gen.oneofl family_names) (Gen.opt gen_expr);
      Gen.map (fun queue -> Ast.Esend_from { queue; span = sp }) (Gen.oneofl queue_names);
      Gen.return (Ast.Edeliver sp);
    ]

let gen_clause =
  let actions = Gen.list_size (Gen.int_bound 3) gen_action in
  Gen.oneof
    [
      Gen.map3
        (fun trigger guard actions -> Ast.Con { trigger; guard; actions; span = sp })
        gen_trigger (Gen.opt gen_expr) actions;
      Gen.map3
        (fun guard emit actions -> Ast.Cpoll { guard; emit; actions; span = sp })
        (Gen.opt gen_expr) (Gen.opt gen_emit) actions;
    ]

let gen_station =
  Gen.map2
    (fun decls clauses -> { Ast.decls; clauses; sspan = sp })
    (Gen.list_size (Gen.int_bound 4) gen_decl)
    (Gen.list_size (Gen.int_bound 5) gen_clause)

let gen_name = Gen.string_size ~gen:Gen.printable (Gen.int_range 1 16)

let gen_family =
  Gen.map2
    (fun fname param -> { Ast.fname; param; fspan = sp })
    (Gen.oneofl family_names)
    (Gen.opt
       (Gen.map2 (fun lo hi -> ("b", lo, hi)) gen_small_expr gen_small_expr))

let gen_spec : Ast.spec Gen.t =
  let open Gen in
  gen_name >>= fun name ->
  opt gen_name >>= fun describe ->
  list_size (int_bound 2)
    (map2 (fun n e -> (n, e, sp)) (oneofl [ "c1"; "c2" ]) gen_expr)
  >>= fun consts ->
  list_size (int_bound 3) gen_family >>= fun families ->
  gen_station >>= fun sender ->
  gen_station >>= fun receiver ->
  return { Ast.name; describe; consts; families; sender; receiver; span = sp }

let arb_spec = QCheck.make ~print:Ast.print gen_spec

(* Mutation harness: a handful of byte-level edits drawn from the
   characters most likely to confuse a lexer or parser. *)
let mutation_chars = "{}()\"<>=+-!&|;:., \n0123456789abz"

let mutate txt (pos_seed, op, chr_seed) =
  let n = String.length txt in
  if n = 0 then txt
  else
    let pos = pos_seed mod n in
    let c = mutation_chars.[chr_seed mod String.length mutation_chars] in
    match op mod 4 with
    | 0 -> String.sub txt 0 pos ^ String.sub txt (pos + 1) (n - pos - 1)
    | 1 -> String.sub txt 0 pos ^ String.make 1 c ^ String.sub txt pos (n - pos)
    | 2 -> String.mapi (fun i x -> if i = pos then c else x) txt
    | _ -> String.sub txt 0 pos

let prop_print_parse_fixpoint =
  QCheck.Test.make ~name:"print . parse is the identity on printed specs" ~count:300 arb_spec
    (fun spec ->
      let txt = Ast.print spec in
      match Parser.parse txt with
      | Error d ->
          QCheck.Test.fail_reportf "printed spec failed to reparse: %s"
            (Diag.to_string ?file:None d)
      | Ok ast2 -> Ast.print ast2 = txt)

let prop_checker_total =
  QCheck.Test.make ~name:"compile_string is total with located diagnostics" ~count:300
    arb_spec (fun spec ->
      match Pdl.compile_string (Ast.print spec) with
      | Ok _ -> true
      | Error ds -> ds <> [] && well_spanned ds
      | exception e ->
          QCheck.Test.fail_reportf "compile_string raised %s" (Printexc.to_string e))

let prop_mutation_robust =
  QCheck.Test.make ~name:"compile_string survives mutated sources" ~count:400
    (QCheck.pair arb_spec
       (QCheck.list_of_size (Gen.int_range 1 4)
          (QCheck.triple QCheck.small_nat QCheck.small_nat QCheck.small_nat)))
    (fun (spec, muts) ->
      let txt = List.fold_left mutate (Ast.print spec) muts in
      match Pdl.compile_string txt with
      | Ok _ -> true
      | Error ds -> ds <> [] && well_spanned ds
      | exception e ->
          QCheck.Test.fail_reportf "compile_string raised %s on %S"
            (Printexc.to_string e) txt)

let qcheck_suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_print_parse_fixpoint; prop_checker_total; prop_mutation_robust ]

let suite =
  [
    ("compile a valid spec", `Quick, test_compile_valid);
    ("lexer errors are located", `Quick, test_lexer_error_span);
    ("parser errors are located", `Quick, test_parse_error_span);
    ("checker: unknown identifier", `Quick, test_checker_unknown_ident);
    ("checker: counter negativity", `Quick, test_checker_counter_negativity);
    ("checker: range violation", `Quick, test_checker_range_violation);
    ("checker: duplicate declaration", `Quick, test_checker_duplicate_decl);
    ("checker: exhaustiveness warnings", `Quick, test_checker_warnings);
    ("checker: wrapping arithmetic is refused", `Quick, test_checker_wrapping_arithmetic);
    ("checker: overflowing widths are located", `Quick, test_checker_overflowing_widths);
    ("checker: counter doubling is non-negative", `Quick, test_checker_counter_product);
    ("registry: did-you-mean suggestions", `Quick, test_registry_suggestion);
    ("registry: file loader", `Quick, test_file_loader);
    ("differential: bounded lint is byte-identical", `Quick, test_differential_lint_bounded);
    ("differential: complete lint is byte-identical", `Slow, test_differential_lint_complete);
    ("differential: boundness is byte-identical", `Quick, test_differential_boundness);
  ]
  @ qcheck_suite
