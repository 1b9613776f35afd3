(* nfc — command-line driver for the non-FIFO channel testbed.

   Subcommands:
     nfc protocols                 list the available protocols
     nfc figure1                   print the paper's Figure 1
     nfc simulate ...              one harness run, metrics (and trace)
     nfc mcheck ...                search for a DL1 counterexample
     nfc fuzz ...                  coverage-guided schedule fuzzing (+ shrinking)
     nfc lint ...                  static protocol verification (H1/E1/B1/T1/Q1/S1/C1)
     nfc cover ...                 Karp-Miller cover set (budget-free coverability)
     nfc boundness ...             measure boundness vs k_t*k_r (Thm 2.1)
     nfc serve ...                 run the HTTP verification service
     nfc loadgen ...               drive a running service with concurrent jobs
     nfc experiment t21|t31|t41|t51|all   regenerate the paper's tables *)

open Cmdliner

(* ------------------------------------------------------- shared parsing *)

(* Protocol names resolve through the registry, so the CLI, the examples and
   the experiment drivers can never drift apart. *)
let protocol_doc = "Protocol: " ^ Nfc_protocol.Registry.doc

let parse_protocol s =
  match Nfc_protocol.Registry.parse s with
  | Ok p -> Ok p
  | Error msg -> Error (`Msg msg)

let protocol_conv =
  Arg.conv
    ( parse_protocol,
      fun ppf p -> Format.pp_print_string ppf (Nfc_protocol.Spec.name p) )

(* --spec FILE: compile a PDL definition and use it as the protocol —
   sugar for -p file:FILE, available on every protocol-taking command. *)
let spec_conv =
  let parse path =
    match Nfc_pdl.Pdl.load_file path with
    | Ok c -> Ok c.Nfc_pdl.Pdl.spec
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Nfc_protocol.Spec.name p))

(* Budgets with a lower bound (the service's [get_clamped ~lo]): a value
   below it is a usage error (exit 124 naming the option), not an
   exception escaping the analysis or a verdict over nothing. *)
let int_at_least lo expected =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = int_at_least 1 "a positive integer"
let non_negative_int = int_at_least 0 "a non-negative integer"

let capacity_arg default =
  Arg.(
    value & opt positive_int default
    & info [ "capacity" ] ~docv:"C" ~doc:"Channel capacity per direction")

let submits_arg default =
  Arg.(
    value & opt non_negative_int default
    & info [ "submits" ] ~docv:"S" ~doc:"User submission budget")

let spec_arg =
  Arg.(
    value
    & opt (some spec_conv) None
    & info [ "spec" ] ~docv:"FILE"
        ~doc:
          "Compile FILE as a protocol definition (.nfc) and verify that instead of a \
           registry protocol.  Overrides $(b,-p); equivalent to -p file:FILE.")

let with_spec protocol =
  Term.(const (fun spec p -> Option.value spec ~default:p) $ spec_arg $ protocol)

let with_spec_opt protocol =
  Term.(
    const (fun spec p -> match spec with Some _ -> spec | None -> p)
    $ spec_arg $ protocol)

let channel_doc =
  "Channel: reliable | lossy:P | reorder:DELIVER:DROP | prob:Q | delayed:L[:P] | silent | \
   duplicating:DUP[:BASE] | capacity:CAP[:BASE]"

(* Policies can carry per-channel mutable state (fifo_delayed's clock), so
   the parser -- shared with the /v1/simulate endpoint via
   Nfc_channel.Policy.parse_factory -- yields a channel *factory*,
   instantiated once per direction. *)
let channel_conv =
  let parse s =
    match Nfc_channel.Policy.parse_factory s with
    | Ok factory -> Ok (s, factory)
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf (name, _) -> Format.pp_print_string ppf name)

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for independent sub-tasks (0 = one per core). The default 1 \
           runs fully sequentially; any value produces identical output — parallelism \
           only changes wall-clock time.")

let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Smaller, faster experiment variants")

(* ------------------------------------------------------------ protocols *)

let protocols_cmd =
  let run () =
    let table =
      Nfc_util.Table.create ~title:"Available data link protocols"
        ~columns:
          [
            ("name", Nfc_util.Table.Left);
            ("headers", Nfc_util.Table.Right);
            ("description", Nfc_util.Table.Left);
          ]
    in
    List.iter
      (fun proto ->
        let module P = (val proto : Nfc_protocol.Spec.S) in
        Nfc_util.Table.add_row table
          [
            P.name;
            (match P.header_bound with Some k -> string_of_int k | None -> "unbounded");
            P.describe;
          ])
      (Nfc_protocol.Registry.defaults ());
    Nfc_util.Table.print table
  in
  Cmd.v (Cmd.info "protocols" ~doc:"List the available protocols")
    Term.(const run $ const ())

(* -------------------------------------------------------------- figure1 *)

let figure1_cmd =
  let run () = print_endline (Nfc_core.Experiments.figure_1 ()) in
  Cmd.v (Cmd.info "figure1" ~doc:"Print the paper's Figure 1 (the data link layer)")
    Term.(const run $ const ())

(* ------------------------------------------------------------- simulate *)

let simulate_cmd =
  let protocol =
    Arg.(
      value
      & opt protocol_conv (Nfc_protocol.Stenning.make ())
      & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc:protocol_doc)
  in
  let channel =
    Arg.(
      value
      & opt channel_conv
          ("reorder:0.8:0.05", fun () -> Nfc_channel.Policy.uniform_reorder ~deliver:0.8 ~drop:0.05)
      & info [ "c"; "channel" ] ~docv:"CHAN" ~doc:channel_doc)
  in
  let n = Arg.(value & opt int 10 & info [ "n"; "messages" ] ~docv:"N" ~doc:"Messages to send") in
  let pace =
    Arg.(value & opt int 3 & info [ "pace" ] ~docv:"K" ~doc:"Submit one message every K rounds (0 = all upfront)")
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the full execution") in
  let max_rounds =
    Arg.(value & opt int 500_000 & info [ "max-rounds" ] ~docv:"R" ~doc:"Round budget")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the metrics as a single JSON object")
  in
  let run protocol (_, channel) n pace trace seed max_rounds json =
    let result =
      Nfc_sim.Harness.run protocol
        {
          Nfc_sim.Harness.default_config with
          policy_tr = channel ();
          policy_rt = channel ();
          n_messages = n;
          submit_every = pace;
          seed;
          record_trace = trace;
          max_rounds;
          stall_rounds = Some 100_000;
        }
    in
    (match result.Nfc_sim.Harness.trace with
    | Some t when trace && not json ->
        List.iteri (fun i a -> Format.printf "%4d. %a@." i Nfc_automata.Action.pp a) t
    | _ -> ());
    if json then print_endline (Nfc_sim.Metrics.to_json result.Nfc_sim.Harness.metrics)
    else Format.printf "%a@." Nfc_sim.Metrics.pp result.Nfc_sim.Harness.metrics;
    if result.Nfc_sim.Harness.metrics.Nfc_sim.Metrics.dl_violation <> None then exit 2
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one protocol over one channel and report the metrics")
    Term.(
      const run $ with_spec protocol $ channel $ n $ pace $ trace $ seed_arg
      $ max_rounds $ json)

(* --------------------------------------------------------------- mcheck *)

let mcheck_cmd =
  let protocol =
    Arg.(
      value
      & opt protocol_conv (Nfc_protocol.Alternating_bit.make ~timeout:2 ())
      & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc:protocol_doc)
  in
  let capacity = capacity_arg 2 in
  let submits = submits_arg 3 in
  let nodes =
    Arg.(
      value & opt positive_int 200_000 & info [ "nodes" ] ~docv:"N" ~doc:"Configuration budget")
  in
  let no_drop = Arg.(value & flag & info [ "no-drop" ] ~doc:"Forbid packet loss (pure reordering)") in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Write the counterexample execution to FILE")
  in
  let wedge =
    Arg.(
      value & flag
      & info [ "wedge" ]
          ~doc:"Search for a liveness wedge (no continuation delivers) instead of a phantom")
  in
  let run protocol capacity submits nodes no_drop save wedge =
    let bounds =
      {
        Nfc_mcheck.Explore.default_bounds with
        capacity_tr = capacity;
        capacity_rt = capacity;
        submit_budget = submits;
        max_nodes = nodes;
        allow_drop = not no_drop;
      }
    in
    if wedge then begin
      let o = Nfc_mcheck.Explore.find_wedge protocol bounds in
      Format.printf "%a@." Nfc_mcheck.Explore.pp_wedge_outcome o;
      match (o, save) with
      | Nfc_mcheck.Explore.Wedged (trace, _), Some file ->
          Nfc_sim.Trace_io.save file trace;
          Format.printf "wedge witness written to %s@." file;
          exit 2
      | Nfc_mcheck.Explore.Wedged _, None -> exit 2
      | Nfc_mcheck.Explore.No_wedge _, _ -> exit 0
    end;
    let outcome = Nfc_mcheck.Explore.find_phantom protocol bounds in
    Format.printf "%a@." Nfc_mcheck.Explore.pp_outcome outcome;
    match outcome with
    | Nfc_mcheck.Explore.Violation trace ->
        (match save with
        | Some file ->
            Nfc_sim.Trace_io.save file trace;
            Format.printf "counterexample written to %s@." file
        | None -> ());
        exit 2
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "mcheck"
       ~doc:"Model-check a protocol over an adversarial non-FIFO channel (DL1 search)")
    Term.(
      const run $ with_spec protocol $ capacity $ submits $ nodes $ no_drop $ save
      $ wedge)

(* ----------------------------------------------------------------- stab *)

let stab_cmd =
  let protocol =
    Arg.(
      value
      & opt protocol_conv (Nfc_protocol.Stab_arq.make ())
      & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc:protocol_doc)
  in
  let capacity = capacity_arg 1 in
  let submits = submits_arg 2 in
  let nodes =
    Arg.(
      value & opt positive_int 100_000
      & info [ "nodes" ] ~docv:"N" ~doc:"Legitimate-set configuration budget")
  in
  let recovery_nodes =
    Arg.(
      value & opt positive_int 300_000
      & info [ "recovery-nodes" ] ~docv:"N"
          ~doc:"Configuration budget for each corrupted-start recovery sweep")
  in
  let starts =
    Arg.(
      value & opt positive_int 60_000
      & info [ "starts" ] ~docv:"N" ~doc:"Clamp on enumerated corrupted starts")
  in
  let states =
    Arg.(
      value & opt positive_int 48
      & info [ "states" ] ~docv:"N"
          ~doc:"Per-side clamp on station states entering corrupted products")
  in
  let no_drop = Arg.(value & flag & info [ "no-drop" ] ~doc:"Forbid packet loss (pure reordering)") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable report") in
  let run protocol capacity submits nodes recovery_nodes starts states no_drop json =
    let cfg =
      {
        Nfc_stab.Converge.bounds =
          {
            Nfc_mcheck.Explore.default_bounds with
            capacity_tr = capacity;
            capacity_rt = capacity;
            submit_budget = submits;
            max_nodes = nodes;
            allow_drop = not no_drop;
          };
        state_cap = states;
        max_starts = starts;
        recovery_nodes;
      }
    in
    let report = Nfc_stab.Converge.analyze protocol cfg in
    if json then print_endline (Nfc_util.Json.to_string (Nfc_stab.Converge.to_json report))
    else Format.printf "%a@." Nfc_stab.Converge.pp report;
    let worst =
      match (report.Nfc_stab.Converge.ss1, report.Nfc_stab.Converge.ss2) with
      | Nfc_stab.Converge.Fail, _ | _, Nfc_stab.Converge.Fail -> 2
      | Nfc_stab.Converge.Unknown, _ | _, Nfc_stab.Converge.Unknown -> 3
      | Nfc_stab.Converge.Pass, Nfc_stab.Converge.Pass -> 0
    in
    if worst <> 0 then exit worst
  in
  Cmd.v
    (Cmd.info "stab"
       ~doc:
         "Self-stabilization analysis: legitimate set, corrupted-start convergence (SS1) and \
          duplication resilience (SS2). Exit 0 = both pass, 2 = a failure, 3 = undetermined \
          within budget.")
    Term.(
      const run $ with_spec protocol $ capacity $ submits $ nodes $ recovery_nodes $ starts
      $ states $ no_drop $ json)

(* ------------------------------------------------------------ boundness *)

let boundness_cmd =
  let protocol =
    Arg.(
      value
      & opt protocol_conv (Nfc_protocol.Alternating_bit.make ~timeout:2 ())
      & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc:protocol_doc)
  in
  let nodes =
    Arg.(
      value & opt positive_int 30_000 & info [ "nodes" ] ~docv:"N" ~doc:"Configuration budget")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the report as a single JSON object")
  in
  let run protocol nodes json =
    let report =
      Nfc_mcheck.Boundness.measure protocol
        ~explore:
          {
            Nfc_mcheck.Explore.default_bounds with
            capacity_tr = 2;
            capacity_rt = 2;
            submit_budget = 2;
            max_nodes = nodes;
          }
        ~probe:Nfc_mcheck.Boundness.default_probe_bounds
    in
    if json then
      print_endline (Nfc_util.Json.to_string (Nfc_mcheck.Boundness.to_json report))
    else Format.printf "%a@." Nfc_mcheck.Boundness.pp_report report
  in
  Cmd.v
    (Cmd.info "boundness"
       ~doc:"Measure a protocol's boundness against Theorem 2.1's k_t*k_r state product")
    Term.(const run $ with_spec protocol $ nodes $ json)

(* ------------------------------------------------------------- theorems *)

let theorems_cmd =
  let which =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Optional theorem id substring")
  in
  let run which =
    match which with
    | None -> Format.printf "%a@." Nfc_core.Theory.pp_all ()
    | Some needle -> (
        let contains hay =
          let lh = String.lowercase_ascii hay and ln = String.lowercase_ascii needle in
          let nh = String.length lh and nn = String.length ln in
          let rec go i = i + nn <= nh && (String.sub lh i nn = ln || go (i + 1)) in
          go 0
        in
        match List.filter (fun t -> contains t.Nfc_core.Theory.id) Nfc_core.Theory.all with
        | [] ->
            Format.eprintf "no theorem matches %S@." needle;
            exit 1
        | ts -> List.iter (fun t -> Format.printf "%a@.@." Nfc_core.Theory.pp t) ts)
  in
  Cmd.v
    (Cmd.info "theorems"
       ~doc:"Print the paper's results with their executable reproductions")
    Term.(const run $ which)

(* --------------------------------------------------------------- replay *)

let replay_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Trace file") in
  let protocol =
    Arg.(
      value
      & opt (some protocol_conv) None
      & info [ "p"; "protocol" ] ~docv:"PROTO"
          ~doc:"Also check the execution conforms to this protocol's transitions")
  in
  let run file protocol =
    match Nfc_sim.Trace_io.load file with
    | Error msg ->
        Format.eprintf "cannot load %s: %s@." file msg;
        exit 1
    | Ok trace ->
        print_string (Nfc_sim.Trace_io.judge trace);
        (match protocol with
        | Some proto ->
            Format.printf "conformance (%s): %a@." (Nfc_protocol.Spec.name proto)
              Nfc_sim.Conformance.pp_verdict
              (Nfc_sim.Conformance.check proto trace)
        | None -> ());
        if Nfc_automata.Props.invalid_phantom trace <> None then exit 2
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-judge a stored execution against DL1/DL2/PL1 and the Definition-2 counters")
    Term.(const run $ file $ with_spec_opt protocol)

(* ----------------------------------------------------------------- fuzz *)

let fuzz_cmd =
  let open Nfc_fuzz in
  let protocol =
    Arg.(
      value
      & opt (some protocol_conv) None
      & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc:protocol_doc)
  in
  let all =
    Arg.(value & flag & info [ "all" ] ~doc:"Fuzz every protocol in the registry")
  in
  let iterations =
    Arg.(
      value & opt int 50_000
      & info [ "iterations" ] ~docv:"N" ~doc:"Run budget (deterministic under --seed)")
  in
  let budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:"Optional CPU-time cap; ends the campaign early (non-deterministic)")
  in
  let steps =
    Arg.(value & opt int 80 & info [ "steps" ] ~docv:"K" ~doc:"Generated schedule length")
  in
  let submits =
    Arg.(value & opt int 4 & info [ "submits" ] ~docv:"S" ~doc:"Submission budget per schedule")
  in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ] ~doc:"Delta-debug the finding to a minimal schedule")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-trace" ] ~docv:"FILE"
          ~doc:"Write the counterexample execution to FILE (replay with: nfc replay FILE)")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object per protocol (JSONL)")
  in
  let batches =
    Arg.(
      value
      & opt (some int) None
      & info [ "batches" ] ~docv:"B"
          ~doc:
            "Split the run budget across B independent RNG streams (derived from --seed \
             by index).  Results depend only on (seed, batches), never on --jobs.  \
             Default: 1, or max(8, jobs) when --jobs parallelises a single-protocol \
             campaign.")
  in
  let run protocol all iterations budget steps submits shrink save json seed jobs batches =
    let batches =
      match batches with
      | Some b -> b
      | None ->
          if jobs = 1 || all then 1
          else max 8 (if jobs = 0 then Nfc_util.Pool.recommended () else jobs)
    in
    let cfg =
      {
        Campaign.default_cfg with
        iterations;
        time_budget = budget;
        seed;
        shrink;
        batches;
        gen = { Gen.default_cfg with steps; submits };
      }
    in
    let log = if json then fun _ -> () else fun msg -> Format.eprintf "%s@." msg in
    let results =
      if all then Campaign.run_all ~log ~jobs cfg
      else
        let proto =
          match protocol with Some p -> p | None -> Nfc_protocol.Alternating_bit.make ()
        in
        [ Campaign.run ~log ~jobs proto cfg ]
    in
    if json then print_string (Campaign.jsonl results)
    else begin
      List.iter (fun r -> Format.printf "%a@." Campaign.pp_result r) results;
      match results with
      | [ { Campaign.finding = Some f; _ } ] ->
          let sched = Option.value f.Campaign.shrunk ~default:f.Campaign.schedule in
          Format.printf "@.violating schedule (%d steps):@.%a@." (Schedule.length sched)
            Schedule.pp sched;
          Format.printf "@.execution (%d actions):@." (List.length f.Campaign.trace);
          List.iteri
            (fun i a -> Format.printf "  %2d. %a@." i Nfc_automata.Action.pp a)
            f.Campaign.trace
      | _ -> ()
    end;
    (match save with
    | None -> ()
    | Some file -> (
        match
          List.find_map (fun r -> r.Campaign.finding) results
        with
        | Some f ->
            Nfc_sim.Trace_io.save file f.Campaign.trace;
            if not json then Format.printf "@.counterexample written to %s@." file
        | None -> Format.eprintf "no violation found; nothing written to %s@." file));
    if List.exists (fun r -> r.Campaign.finding <> None) results then exit 2
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Coverage-guided adversarial schedule fuzzing (DL violation search with \
          trace shrinking)")
    Term.(
      const run $ with_spec_opt protocol $ all $ iterations $ budget $ steps $ submits
      $ shrink $ save $ json $ seed_arg $ jobs_arg $ batches)

(* ----------------------------------------------------------------- lint *)

let lint_cmd =
  let open Nfc_lint in
  let protocol =
    Arg.(
      value
      & opt (some protocol_conv) None
      & info [ "p"; "protocol" ] ~docv:"PROTO"
          ~doc:(protocol_doc ^ " (default: the whole registry)"))
  in
  let capacity = capacity_arg 2 in
  let submits = submits_arg 3 in
  let nodes =
    Arg.(
      value & opt positive_int 100_000
      & info [ "nodes" ] ~docv:"N"
          ~doc:
            "Configuration budget per protocol (the hashed engine covers the default \
             100k in about the time the tree engine needed for 15k)")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Treat warnings as findings (exit 1)")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object per protocol (JSONL)")
  in
  let complete =
    Arg.(
      value & flag
      & info [ "complete" ]
          ~doc:
            "Also run the budget-free coverability tier (Karp-Miller ω-acceleration over \
             the lossy channel): converged covers upgrade corroborated H1/T1/Q1 verdicts \
             to 'complete' strength, valid for every node budget and channel capacity")
  in
  let cover_nodes =
    Arg.(
      value & opt positive_int 200_000
      & info [ "cover-nodes" ] ~docv:"N"
          ~doc:"Divergence backstop for the --complete cover fixpoint")
  in
  let sarif =
    Arg.(
      value
      & opt (some string) None
      & info [ "sarif" ] ~docv:"FILE"
          ~doc:"Also write the diagnostics to FILE as SARIF 2.1.0 (JSONL is unchanged)")
  in
  (* lint keeps its own --spec instead of the shared [with_spec_opt]
     sugar: --static needs the checked PDL automaton, which the generic
     combinator discards when it converts down to a [Spec.t]. *)
  let spec_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:
            "Compile FILE as a protocol definition (.nfc) and verify that instead of a \
             registry protocol.  Overrides $(b,-p); equivalent to -p file:FILE.")
  in
  let static =
    Arg.(
      value & flag
      & info [ "static" ]
          ~doc:
            "Also run the spec-level abstract interpreter over the PDL automaton \
             (requires $(b,--spec)): verdicts it discharges symbolically (H1/B1/E1) and \
             that agree with the exploration are upgraded to 'static' strength — valid \
             for every node budget, channel capacity and submission budget, with zero \
             exploration.  A static/bounded contradiction blocks the upgrade and is \
             reported under rule A1.")
  in
  let stab =
    Arg.(
      value & flag
      & info [ "stab" ]
          ~doc:
            "Also run the self-stabilization tier (rules SS1/SS2): legitimate-set \
             closure, corrupted-start convergence and duplication resilience, at the \
             tier's own bounds (the $(b,nfc stab) defaults — the corrupted product is \
             exponential in capacity, so the tier does not inherit the lint bounds). \
             Verdicts land as diagnostics and as 'stabilization' certificate \
             provenance.")
  in
  let refine =
    Arg.(
      value & opt int 0
      & info [ "refine" ] ~docv:"N"
          ~doc:
            "Run up to N counterexample-guided refinement rounds when the static tier's \
             Theorem 2.1 product is ω-parametric (implies $(b,--static); requires \
             $(b,--spec)): abstract widening witnesses are replayed concretely on the \
             compiled automaton, spurious ones split the offending slot's interval at \
             the guard constant and re-run the fixpoint, real ones become located R1 \
             findings with a concrete trace.  Exhausting N degrades to the unrefined \
             answer — refinement never weakens soundness.")
  in
  let run spec_path protocol capacity submits nodes strict json complete cover_nodes
      sarif static stab refine jobs =
    let static = static || refine > 0 in
    let compiled =
      match spec_path with
      | None -> None
      | Some path -> (
          match Nfc_pdl.Pdl.load_file path with
          | Ok c -> Some c
          | Error msg ->
              Format.eprintf "lint: %s@." msg;
              exit 2)
    in
    let protocol =
      match compiled with
      | Some c -> Some c.Nfc_pdl.Pdl.spec
      | None -> protocol
    in
    (match (static, compiled) with
    | true, None ->
        Format.eprintf
          "lint: --static needs the PDL automaton; pass the spec with --spec FILE@.";
        exit 2
    | _ -> ());
    let cfg =
      {
        Checks.default_config with
        Checks.bounds =
          {
            Nfc_mcheck.Explore.default_bounds with
            capacity_tr = capacity;
            capacity_rt = capacity;
            submit_budget = submits;
            max_nodes = nodes;
          };
        complete;
        cover_max_nodes = cover_nodes;
      }
    in
    match
      match protocol with
      | Some p -> [ Engine.run cfg p ]
      | None -> Engine.run_registry ~jobs cfg
    with
    | results ->
        let results =
          match (static, compiled) with
          | true, Some c ->
              let rep, refined = Nfc_refine.Refine.analyze ~rounds:refine c.Nfc_pdl.Pdl.checked in
              List.map
                (Nfc_specint.Specint.apply_to_lint
                   ?refine_rounds:(Option.map (fun r -> r.Nfc_refine.Refine.rounds_used) refined)
                   ?refine_notes:(Option.map Nfc_refine.Refine.notes refined)
                   rep)
                results
          | _ -> results
        in
        let results =
          if not stab then results
          else begin
            (* Pair each result with its spec: a single -p/--spec run is
               its own pair; a registry sweep zips with the registry,
               whose order run_registry preserves. *)
            let specs =
              match protocol with
              | Some p -> [ p ]
              | None -> Nfc_protocol.Registry.defaults ()
            in
            List.map2 Stab_tier.apply specs results
          end
        in
        if json then print_string (Report.jsonl results) else Report.print results;
        (match sarif with
        | Some file ->
            let oc = open_out file in
            output_string oc (Sarif.to_string results);
            output_char oc '\n';
            close_out oc;
            if not json then Format.printf "SARIF report written to %s@." file
        | None -> ());
        exit (Report.exit_code ~strict results)
    | exception e ->
        Format.eprintf "lint: internal error: %s@." (Printexc.to_string e);
        exit 2
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         ("Statically verify protocol invariants (rules " ^ Nfc_lint.Rules.doc
        ^ "): header budgets, input-enabledness, Theorem 2.1 boundness certificates"))
    Term.(
      const run $ spec_path $ protocol $ capacity $ submits $ nodes $ strict $ json
      $ complete $ cover_nodes $ sarif $ static $ stab $ refine $ jobs_arg)

(* ---------------------------------------------------------------- cover *)

let cover_cmd =
  let protocol =
    Arg.(
      value
      & opt protocol_conv (Nfc_protocol.Alternating_bit.make ~timeout:2 ())
      & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc:protocol_doc)
  in
  let positional =
    Arg.(
      value
      & pos 0 (some protocol_conv) None
      & info [] ~docv:"PROTO" ~doc:"Protocol (positional alternative to -p)")
  in
  let submits = submits_arg 3 in
  let nodes =
    Arg.(
      value & opt positive_int 200_000
      & info [ "nodes" ] ~docv:"N" ~doc:"Karp-Miller tree cap (divergence backstop)")
  in
  let run protocol positional submits nodes =
    let protocol = Option.value positional ~default:protocol in
    let stats = Nfc_absint.Cover.run ~max_nodes:nodes ~submit_budget:submits protocol in
    Format.printf "== %s (submit budget %d) ==@.%a@." (Nfc_protocol.Spec.name protocol)
      submits Nfc_absint.Cover.pp_stats stats;
    List.iter
      (fun s -> Format.printf "  acceleration: %s@." s)
      stats.Nfc_absint.Cover.accel_samples;
    exit (if stats.Nfc_absint.Cover.converged then 0 else 1)
  in
  Cmd.v
    (Cmd.info "cover"
       ~doc:
         "Compute the Karp-Miller cover set of a protocol over the ω-abstracted non-FIFO \
          channel (budget-free coverability; exit 1 when the fixpoint diverges)")
    Term.(const run $ with_spec protocol $ positional $ submits $ nodes)

(* ----------------------------------------------------------- experiment *)

(* The single source of truth for experiment names: parsing, the usage
   text, and dispatch are all derived from this table. *)
let experiments : (string * string * (quick:bool -> seed:int -> unit)) list =
  [
    ( "t21",
      "Theorem 2.1 boundness table",
      fun ~quick ~seed:_ -> ignore (Nfc_core.Experiments.t21 ~quick ()) );
    ( "t31",
      "Theorem 3.1 header pyramid, blow-up, and staged runs",
      fun ~quick ~seed:_ ->
        ignore (Nfc_core.Experiments.t31_pyramid ~ks:[ 2; 3; 4; 5 ] ());
        print_newline ();
        ignore (Nfc_core.Experiments.t31 ~quick ());
        print_newline ();
        ignore (Nfc_core.Experiments.t31_staged ~quick ()) );
    ( "t41",
      "Theorem 4.1 delayed-packet cost",
      fun ~quick ~seed:_ -> ignore (Nfc_core.Experiments.t41 ~quick ()) );
    ( "t51",
      "Section 5 probabilistic growth, sweep, and safety",
      fun ~quick ~seed ->
        ignore (Nfc_core.Experiments.t51_growth ~quick ~seed ~qs:[ 0.1; 0.3; 0.5 ] ());
        print_newline ();
        ignore (Nfc_core.Experiments.t51_sweep ~quick ~seed ~q:0.3 ());
        print_newline ();
        ignore (Nfc_core.Experiments.t51_safety ~quick ~seed ~q:0.6 ()) );
    ( "lmf",
      "Last-message-first channel comparison",
      fun ~quick ~seed:_ -> ignore (Nfc_core.Experiments.lmf ~quick ()) );
    ( "ss",
      "Self-stabilization: corrupted-start convergence (SS1/SS2)",
      fun ~quick ~seed:_ -> ignore (Nfc_core.Experiments.ss ~quick ()) );
    ( "trans",
      "Transport-stack experiment",
      fun ~quick ~seed -> ignore (Nfc_transport.Experiment.run ~quick ~seed ()) );
    ( "f1",
      "Figure 1 channel taxonomy",
      fun ~quick:_ ~seed:_ -> print_endline (Nfc_core.Experiments.figure_1 ()) );
    ( "all",
      "Every experiment in sequence",
      fun ~quick ~seed -> ignore (Nfc_core.Experiments.run_all ~quick ~seed ()) );
  ]

let experiment_cmd =
  let names = List.map (fun (n, _, _) -> n) experiments in
  let which =
    let parse s =
      if List.exists (fun (n, _, _) -> n = s) experiments then Ok s
      else
        Error
          (`Msg
             (Printf.sprintf "unknown experiment %S (%s)" s (String.concat "|" names)))
    in
    Arg.(
      required
      & pos 0 (some (Arg.conv (parse, Format.pp_print_string))) None
      & info [] ~docv:"EXP"
          ~doc:
            ("Which experiment: "
            ^ String.concat ", "
                (List.map (fun (n, d, _) -> Printf.sprintf "%s (%s)" n d) experiments)))
  in
  let run which quick seed =
    let _, _, go = List.find (fun (n, _, _) -> n = which) experiments in
    go ~quick ~seed
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate the paper's evaluation (DESIGN.md section 4)")
    Term.(const run $ which $ quick_arg $ seed_arg)

(* ---------------------------------------------------------------- serve *)

let serve_cmd =
  let host =
    Arg.(
      value
      & opt string Nfc_serve.Server.default_cfg.Nfc_serve.Server.host
      & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind")
  in
  let port =
    Arg.(
      value
      & opt int Nfc_serve.Server.default_cfg.Nfc_serve.Server.port
      & info [ "port" ] ~docv:"PORT" ~doc:"Port to bind (0 = ephemeral)")
  in
  let queue_depth =
    Arg.(
      value
      & opt int Nfc_serve.Server.default_cfg.Nfc_serve.Server.queue_depth
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Admission queue capacity; a full queue answers 429 + Retry-After")
  in
  let result_ttl =
    Arg.(
      value
      & opt float Nfc_serve.Server.default_cfg.Nfc_serve.Server.result_ttl
      & info [ "result-ttl" ] ~docv:"SECONDS"
          ~doc:"How long terminal jobs stay pollable before eviction")
  in
  let run host port jobs queue_depth result_ttl =
    Nfc_serve.Server.run_forever
      { Nfc_serve.Server.host; port; jobs; queue_depth; result_ttl }
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the verification service: POST /v1/{lint,simulate,fuzz,boundness,cover} \
          submit jobs, GET /v1/jobs/ID polls them, GET /metrics is Prometheus")
    Term.(const run $ host $ port $ jobs_arg $ queue_depth $ result_ttl)

(* -------------------------------------------------------------- loadgen *)

let loadgen_cmd =
  let open Nfc_serve in
  let host =
    Arg.(
      value
      & opt string Loadgen.default_cfg.Loadgen.host
      & info [ "host" ] ~docv:"HOST" ~doc:"Service address")
  in
  let port =
    Arg.(
      value
      & opt int Loadgen.default_cfg.Loadgen.port
      & info [ "port" ] ~docv:"PORT" ~doc:"Service port")
  in
  let requests =
    Arg.(
      value
      & opt int Loadgen.default_cfg.Loadgen.requests
      & info [ "n"; "requests" ] ~docv:"N" ~doc:"Total requests to issue")
  in
  let concurrency =
    Arg.(
      value
      & opt int Loadgen.default_cfg.Loadgen.concurrency
      & info [ "concurrency" ] ~docv:"C"
          ~doc:"Client threads = sessions in flight at once")
  in
  let endpoint =
    Arg.(
      value
      & opt string Loadgen.default_cfg.Loadgen.endpoint
      & info [ "endpoint" ] ~docv:"NAME" ~doc:"Endpoint: lint | simulate | fuzz | boundness | cover")
  in
  let body =
    Arg.(
      value
      & opt string Loadgen.default_cfg.Loadgen.body
      & info [ "body" ] ~docv:"JSON" ~doc:"Request body")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the stats as a single JSON object")
  in
  let run host port requests concurrency endpoint body json =
    let stats =
      Loadgen.run
        ~log:(fun msg -> Format.eprintf "%s@." msg)
        { Loadgen.default_cfg with Loadgen.host; port; requests; concurrency; endpoint; body }
    in
    if json then print_endline (Nfc_util.Json.to_string (Loadgen.json stats))
    else Format.printf "%a@." Loadgen.pp stats;
    if not (Loadgen.check stats) then exit 2
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running nfc serve with N concurrent job submissions and report \
          throughput and latency percentiles (exit 2 if any request was dropped)")
    Term.(const run $ host $ port $ requests $ concurrency $ endpoint $ body $ json)

(* ------------------------------------------------------------------ pdl *)

let pdl_cmd =
  (* [pos_all string], not [pos_all file]: a missing file must become a
     per-file error in the report (after the other files were still
     checked), not a cmdliner usage abort before any file is looked at. *)
  let files =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Protocol definition files (.nfc) to compile and check")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object per file (JSONL)")
  in
  let analyze =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:
            "Also run the spec-level abstract interpreter on each compiling file and \
             report its symbolic verdicts (reachable packet alphabet, Theorem 2.1 state \
             product, dead clauses with source spans) — no exploration, no budgets")
  in
  let sarif =
    Arg.(
      value
      & opt (some string) None
      & info [ "sarif" ] ~docv:"FILE"
          ~doc:
            "Also write the checker diagnostics (rule P1) and, under $(b,--analyze), the \
             static findings to FILE as SARIF 2.1.0 with source-file locations")
  in
  let refine =
    Arg.(
      value & opt int 0
      & info [ "refine" ] ~docv:"N"
          ~doc:
            "Run up to N counterexample-guided refinement rounds on each compiling file \
             (implies $(b,--analyze)): ω-parametric products are refined by splitting \
             widened slots at guard constants, with spurious/real witnesses decided by \
             a concrete replay; the reported findings include any located R1 \
             refutations and the JSON carries the per-round log")
  in
  let run files json analyze refine sarif =
    let analyze = analyze || refine > 0 in
    let worst = ref 0 in
    let count sev = worst := max !worst (match sev with Nfc_pdl.Diag.Error -> 2 | Nfc_pdl.Diag.Warning -> 1) in
    let entries = ref [] in
    List.iter
      (fun file ->
        (* The refined report doubles as the static report so SARIF and
           JSON carry the located R1 findings like any other finding. *)
        let static_report ck =
          if not analyze then (None, None)
          else
            let rep, refined = Nfc_refine.Refine.analyze ~rounds:refine ck in
            (Some rep, refined)
        in
        let report ~ok ~name ~digest ~static:(static, refined) diags =
          List.iter (fun (d : Nfc_pdl.Diag.t) -> count d.Nfc_pdl.Diag.severity) diags;
          entries :=
            { Nfc_specint.Sarif.path = file; diags; static_report = static } :: !entries;
          if json then
            print_endline
              (Nfc_util.Json.to_string
                 (Nfc_util.Json.Obj
                    ([ ("file", Nfc_util.Json.String file); ("ok", Nfc_util.Json.Bool ok) ]
                    @ (match name with
                      | Some n -> [ ("protocol", Nfc_util.Json.String n) ]
                      | None -> [])
                    @ (match digest with
                      | Some d -> [ ("digest", Nfc_util.Json.String d) ]
                      | None -> [])
                    @ [ ("diagnostics", Nfc_pdl.Pdl.diags_to_json diags) ]
                    @ (match static with
                      | Some rep -> [ ("static", Nfc_specint.Specint.to_json rep) ]
                      | None -> [])
                    @
                    match refined with
                    | Some res -> [ ("refine", Nfc_refine.Refine.to_json res) ]
                    | None -> [])))
          else begin
            List.iter
              (fun d -> print_endline (Nfc_pdl.Diag.to_string ~file d))
              diags;
            if ok && diags = [] then
              Format.printf "%s: ok (%s)@." file
                (match name with Some n -> n | None -> "?");
            (match static with
            | Some rep -> Format.printf "%a" (Nfc_specint.Specint.pp ~file) rep
            | None -> ());
            match refined with
            | Some res -> Format.printf "%a" Nfc_refine.Refine.pp res
            | None -> ()
          end
        in
        match Nfc_pdl.Pdl.compile_file file with
        | Ok c ->
            report ~ok:true
              ~name:(Some (Nfc_protocol.Spec.name c.Nfc_pdl.Pdl.spec))
              ~digest:(Some c.Nfc_pdl.Pdl.digest)
              ~static:(static_report c.Nfc_pdl.Pdl.checked)
              c.Nfc_pdl.Pdl.warnings
        | Error (`Diags ds) -> report ~ok:false ~name:None ~digest:None ~static:(None, None) ds
        | Error (`File msg) ->
            (* Unreadable file: a synthetic whole-file error so the JSON,
               SARIF and exit-code paths treat it like any other error. *)
            let pos = { Nfc_pdl.Diag.line = 1; col = 1 } in
            let d =
              Nfc_pdl.Diag.error { Nfc_pdl.Diag.first = pos; last = pos } msg
            in
            report ~ok:false ~name:None ~digest:None ~static:(None, None) [ d ])
      files;
    (match sarif with
    | Some out ->
        let oc = open_out out in
        output_string oc (Nfc_specint.Sarif.to_string (List.rev !entries));
        output_char oc '\n';
        close_out oc;
        if not json then Format.printf "SARIF report written to %s@." out
    | None -> ());
    (* Exit with the worst severity seen across ALL files: 0 clean,
       1 warnings only, 2 errors — CI keeps the example specs pristine
       and scripts can distinguish broken from merely suspicious. *)
    exit !worst
  in
  Cmd.v
    (Cmd.info "pdl"
       ~doc:
         "Compile and statically check protocol definition files; every file is checked, \
          and the exit code is the maximum severity (0 clean, 1 warnings, 2 errors)")
    Term.(const run $ files $ json $ analyze $ refine $ sarif)

(* ----------------------------------------------------------------- main *)

let () =
  Nfc_pdl.Pdl.install_loader ();
  let doc = "Lower bounds for bounded data link protocols over non-FIFO channels (PODC'89), executable" in
  let info = Cmd.info "nfc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            protocols_cmd;
            figure1_cmd;
            simulate_cmd;
            mcheck_cmd;
            stab_cmd;
            fuzz_cmd;
            lint_cmd;
            cover_cmd;
            pdl_cmd;
            boundness_cmd;
            theorems_cmd;
            replay_cmd;
            serve_cmd;
            loadgen_cmd;
            experiment_cmd;
          ]))
