(* The alternating-bit protocol is correct over lossy FIFO channels and
   *unsafe* over non-FIFO channels — the observation that motivates the
   whole paper.  This example:

   1. shows the protocol working over a lossy FIFO channel;
   2. lets the explicit-state model checker search the protocol composed
      with a non-FIFO channel and print the shortest execution in which
      the receiver delivers a message that was never sent (a DL1
      violation);
   3. replays the counterexample through the independent declarative
      checkers to confirm the verdict;
   4. finds the same bug a second way — the coverage-guided schedule
      fuzzer — and delta-debugs its finding down to a minimal schedule.

   Run with:  dune exec examples/broken_alternating_bit.exe *)

let () =
  (* 1. Healthy over FIFO-with-loss. *)
  let protocol = Nfc_protocol.Alternating_bit.make () in
  let fifo () = Nfc_channel.Policy.fifo_lossy ~loss:0.3 in
  let result =
    Nfc_sim.Harness.run protocol
      {
        Nfc_sim.Harness.default_config with
        policy_tr = fifo ();
        policy_rt = fifo ();
        n_messages = 20;
        submit_every = 2;
        seed = 7;
      }
  in
  Format.printf "Over a lossy FIFO channel: %d/%d delivered, violations: %s@.@."
    result.Nfc_sim.Harness.metrics.Nfc_sim.Metrics.delivered
    result.Nfc_sim.Harness.metrics.Nfc_sim.Metrics.submitted
    (match result.Nfc_sim.Harness.metrics.Nfc_sim.Metrics.dl_violation with
    | None -> "none"
    | Some v -> v);

  (* 2. Model-check it over a non-FIFO channel. *)
  print_endline "Model checking the same protocol over a non-FIFO channel...";
  let bounds =
    {
      Nfc_mcheck.Explore.default_bounds with
      capacity_tr = 2;
      capacity_rt = 2;
      submit_budget = 3;
      max_nodes = 200_000;
      allow_drop = false (* reordering alone is enough *);
    }
  in
  match Nfc_mcheck.Explore.find_phantom protocol bounds with
  | Nfc_mcheck.Explore.Violation trace ->
      Format.printf
        "Shortest counterexample (%d actions) — the stale bit-0 packet from message 0 \
         is mistaken for a third message:@."
        (List.length trace);
      List.iteri (fun i a -> Format.printf "  %2d. %a@." i Nfc_automata.Action.pp a) trace;
      (* 3. Independent confirmation. *)
      (match Nfc_automata.Props.invalid_phantom trace with
      | Some v ->
          Format.printf "@.Declarative checker agrees: %a@." Nfc_automata.Props.pp_violation v
      | None -> failwith "checkers disagree — bug!");
      assert (Nfc_automata.Props.pl1 Nfc_automata.Action.T_to_r trace = None);
      assert (Nfc_automata.Props.pl1 Nfc_automata.Action.R_to_t trace = None);
      print_endline
        "\nThe physical layer acted legally throughout (PL1 holds): pure reordering\n\
         defeats the alternating bit, exactly as Section 1 of the paper says —\n\
         and Theorem 3.1 shows no bounded-header protocol can do better."
  | outcome ->
      Format.printf "Unexpected: %a@." Nfc_mcheck.Explore.pp_outcome outcome

(* 4. The schedule fuzzer reaches the same verdict without enumerating the
   state space: random adversary schedules, coverage feedback, then
   delta-debugging the finding to a minimal replayable schedule. *)
let () =
  print_endline "\nFuzzing the same protocol (coverage-guided adversary schedules)...";
  let open Nfc_fuzz in
  let r =
    Campaign.run
      (Nfc_protocol.Alternating_bit.make ())
      { Campaign.default_cfg with iterations = 10_000; shrink = true }
  in
  match r.Campaign.finding with
  | None -> failwith "fuzzer missed the known violation — bug!"
  | Some f ->
      Format.printf "Found at run %d (%d configurations covered): %s@." f.Campaign.found_at
        r.Campaign.coverage f.Campaign.violation;
      let minimal = Option.get f.Campaign.shrunk in
      Format.printf "@.Minimal schedule (%d steps):@.%a@." (Schedule.length minimal)
        Schedule.pp minimal;
      assert (Nfc_automata.Props.invalid_phantom f.Campaign.trace <> None);
      print_endline
        "\nSame phantom delivery, found by fuzzing and shrunk to a schedule you can\n\
         save and replay deterministically (nfc fuzz --shrink --save-trace FILE)."
