let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let specs = ref "perfbench/specs" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--specs", Arg.Set_string specs, "DIR template specs");
    ]
    (fun _ -> ())
    "main --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match !workload with
    | "lint-registry" -> W_lint.workload
    | "stab-sweep" -> W_stab.workload
    | "pdl-corpus" ->
        W_pdl.seed := !seed;
        W_pdl.dir := !specs;
        W_pdl.workload
    | "serve-mixed" ->
        W_serve.seed := !seed;
        W_serve.dir := !specs;
        W_serve.workload
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  let r = Bench.run w ~seconds:!seconds ~trace:(!trace = 1) in
  Bench.print_result r
