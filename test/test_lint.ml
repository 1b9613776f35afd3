(* Tests for Nfc_lint: the honest registry is error-free, a lying spec is
   flagged, certificates respect Theorem 2.1, JSON and exit codes. *)
open Nfc_lint
module Spec = Nfc_protocol.Spec

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* The registry run is shared across tests (it is the expensive part). *)
let registry_results = lazy (Engine.run_registry Checks.default_config)

(* A deliberately broken protocol: declares two headers but emits four
   distinct forward packets plus a reverse ack, and its receiver refuses
   packet 2 — so H1 (header budget) and E1 (input-enabledness) must both
   fire as errors. *)
module Broken = struct
  let name = "broken-lint-spec"
  let describe = "lies about its header bound and rejects packet 2"
  let header_bound = Some 2

  type sender = int (* next forward packet, cycling mod 4 *)
  type receiver = int (* acks pending *)

  let sender_init = 0
  let receiver_init = 0
  let on_submit s = s
  let on_ack s _ = s
  let sender_poll s = (Some s, (s + 1) mod 4)
  let on_data r p = if p = 2 then failwith "cannot handle packet 2" else r + 1
  let receiver_poll r = if r > 0 then (Some (Spec.Rsend 9), r - 1) else (None, r)
  let compare_sender = Int.compare
  let compare_receiver = Int.compare

  (* One hook present, one absent: the lint run exercises both the hashed
     and the comparator-keyed intern paths of the engine. *)
  let hash_sender = Some Spec.structural_hash
  let hash_receiver = None
  let cover_norm_sender = None
  let cover_norm_receiver = None
  let pp_sender = Format.pp_print_int
  let pp_receiver = Format.pp_print_int
  let sender_space_bits = Spec.bits_for_int
  let receiver_space_bits = Spec.bits_for_int
end

(* A spec whose hash hook is incoherent with its comparator: the
   receiver is a two-list batched queue compared on its canonical form
   (front @ rev back) but hashed on the raw structure, so the two
   representations of the same logical queue hash apart — exactly the
   defect that makes a hash-bucketed interner split one state into
   several ids.  S1 must flag it. *)
module Incoherent = struct
  let name = "incoherent-hash-spec"
  let describe = "batched-queue receiver hashed on the raw representation"
  let header_bound = Some 1

  type sender = unit
  type receiver = { front : int list; back : int list }

  let sender_init = ()
  let receiver_init = { front = []; back = [] }
  let on_submit s = s
  let on_ack s _ = s
  let sender_poll s = (None, s)
  let on_data r p = { r with back = p :: r.back }

  let receiver_poll r =
    match r.front with
    | _ :: front -> (None, { r with front })
    | [] -> (
        match List.rev r.back with
        | _ :: front -> (None, { front; back = [] })
        | [] -> (None, r))

  let canon r = r.front @ List.rev r.back
  let compare_sender = compare
  let compare_receiver a b = compare (canon a) (canon b)
  let hash_sender = None

  (* The bug: hashes the representation, not the normal form. *)
  let hash_receiver = Some Spec.structural_hash
  let cover_norm_sender = None
  let cover_norm_receiver = None
  let pp_sender ppf () = Format.pp_print_string ppf "()"

  let pp_receiver ppf r =
    Format.fprintf ppf "{front=[%s];back=[%s]}"
      (String.concat ";" (List.map string_of_int r.front))
      (String.concat ";" (List.map string_of_int r.back))

  let sender_space_bits _ = 1
  let receiver_space_bits _ = 8
end

(* Small bounds: the broken spec's defects are visible within a few
   hundred configurations, no need for the default budgets. *)
let small_cfg =
  {
    Checks.default_config with
    Checks.bounds =
      { (Checks.default_config.Checks.bounds) with Nfc_mcheck.Explore.max_nodes = 2_000 };
    probe = { Nfc_mcheck.Boundness.max_nodes = 300; max_cost = 30 };
    max_probes = 50;
  }

let broken_result = lazy (Engine.run small_cfg (module Broken : Spec.S))
let incoherent_result = lazy (Engine.run small_cfg (module Incoherent : Spec.S))

let has ~rule ~severity (r : Engine.result) =
  List.exists
    (fun (d : Diagnostic.t) -> d.Diagnostic.rule = rule && d.Diagnostic.severity = severity)
    r.Engine.diagnostics

let test_registry_clean () =
  let results = Lazy.force registry_results in
  checki "all registry protocols linted" (List.length (Nfc_protocol.Registry.defaults ()))
    (List.length results);
  checki "no errors on honest protocols" 0 (Report.n_errors results)

(* The census behind a certificate, recomputed from an independent
   reach at the same bounds: the decoded configurations' distinct station
   states, and the packets in their channels plus each distinct station's
   poll emission. *)
let census proto (bounds : Nfc_mcheck.Explore.bounds) =
  let module P = (val proto : Spec.S) in
  let module E = Nfc_mcheck.Explore.Make (P) in
  let module Ss = Set.Make (struct
    type t = P.sender

    let compare = P.compare_sender
  end) in
  let module Rs = Set.Make (struct
    type t = P.receiver

    let compare = P.compare_receiver
  end) in
  let module Is = Set.Make (Int) in
  let configs = E.configs (E.reachable_set bounds) in
  let senders = Ss.of_list (List.map (fun (c : E.config) -> E.sender_of c.E.sid) configs) in
  let receivers = Rs.of_list (List.map (fun (c : E.config) -> E.receiver_of c.E.rid) configs) in
  let packets chan = List.concat_map (fun c -> List.map fst (chan c)) configs in
  let tr =
    Ss.fold
      (fun s acc -> match P.sender_poll s with Some p, _ -> Is.add p acc | None, _ -> acc)
      senders
      (Is.of_list (packets E.packets_tr))
  in
  let rt =
    Rs.fold
      (fun r acc ->
        match P.receiver_poll r with Some (Spec.Rsend p), _ -> Is.add p acc | _ -> acc)
      receivers
      (Is.of_list (packets E.packets_rt))
  in
  (Ss.cardinal senders, Rs.cardinal receivers, Is.elements tr, Is.elements rt)

let test_registry_certificates_sound () =
  (* Theorem 2.1: measured boundness never exceeds k_t * k_r on the same
     bounds.  [None] (probe budget exhausted) makes no claim. *)
  List.iter2
    (fun proto (r : Engine.result) ->
      let c = r.Engine.certificate in
      (match c.Certificate.measured_boundness with
      | Some b ->
          checkb (r.Engine.protocol ^ ": boundness <= state product") true
            (b <= c.Certificate.state_product)
      | None -> ());
      let k_t, k_r, tr, rt = census proto Checks.default_config.Checks.bounds in
      checki (r.Engine.protocol ^ ": k_t") k_t c.Certificate.k_t;
      checki (r.Engine.protocol ^ ": k_r") k_r c.Certificate.k_r;
      checkb (r.Engine.protocol ^ ": alphabet_tr") true (tr = c.Certificate.alphabet_tr);
      checkb (r.Engine.protocol ^ ": alphabet_rt") true (rt = c.Certificate.alphabet_rt))
    (Nfc_protocol.Registry.defaults ())
    (Lazy.force registry_results)

let test_registry_header_budgets_certified () =
  (* Every declared bound in the registry is honest: the observed
     alphabet fits. *)
  List.iter
    (fun (r : Engine.result) ->
      match r.Engine.certificate.Certificate.declared_header_bound with
      | Some k ->
          checkb
            (r.Engine.protocol ^ ": alphabet within declared bound")
            true
            (Certificate.alphabet_size r.Engine.certificate <= k)
      | None -> ())
    (Lazy.force registry_results)

let test_broken_flags_h1_and_e1 () =
  let r = Lazy.force broken_result in
  checkb "H1 error (lying header bound)" true (has ~rule:"H1" ~severity:Diagnostic.Error r);
  checkb "E1 error (partial on_data)" true (has ~rule:"E1" ~severity:Diagnostic.Error r);
  checkb "alphabet overflows the declared bound" true
    (Certificate.alphabet_size r.Engine.certificate > 2)

let test_broken_witnesses_name_the_defect () =
  let r = Lazy.force broken_result in
  let e1 =
    List.find
      (fun (d : Diagnostic.t) -> d.Diagnostic.rule = "E1")
      r.Engine.diagnostics
  in
  match e1.Diagnostic.witness with
  | Some w ->
      (* The witness names the offending operation and packet. *)
      checkb "witness mentions on_data" true
        (String.length w >= 7 && String.sub w 0 7 = "on_data")
  | None -> Alcotest.fail "E1 must carry a witness"

let test_s1_flags_incoherent_hash () =
  let r = Lazy.force incoherent_result in
  checkb "S1 error (hash incoherent with comparator)" true
    (has ~rule:"S1" ~severity:Diagnostic.Error r);
  let s1 =
    List.find (fun (d : Diagnostic.t) -> d.Diagnostic.rule = "S1") r.Engine.diagnostics
  in
  checkb "S1 names the hash defect" true
    (let msg = s1.Diagnostic.message in
     String.length msg >= 6 && String.sub msg 0 6 = "[hash-");
  checkb "S1 carries the colliding states as witness" true (s1.Diagnostic.witness <> None)

let test_s1_clean_on_honest_and_broken_specs () =
  (* Partiality (Broken's on_data) is E1's finding; S1 must not double
     report it — and the honest registry passes the contract checks
     (already implied by the zero-error assertion above, stated here
     directly). *)
  checkb "no S1 on the merely partial spec" false
    (List.exists
       (fun (d : Diagnostic.t) -> d.Diagnostic.rule = "S1")
       (Lazy.force broken_result).Engine.diagnostics);
  List.iter
    (fun (r : Engine.result) ->
      checkb (r.Engine.protocol ^ ": no S1 findings") false
        (List.exists
           (fun (d : Diagnostic.t) -> d.Diagnostic.rule = "S1")
           r.Engine.diagnostics))
    (Lazy.force registry_results)

let test_bounded_strength_without_complete () =
  (* Without --complete every certificate is budget-relative, and the
     JSONL says so in every record. *)
  List.iter
    (fun (r : Engine.result) ->
      match r.Engine.certificate.Certificate.strength with
      | Certificate.Bounded n ->
          checki (r.Engine.protocol ^ ": budget is the node bound")
            Checks.default_config.Checks.bounds.Nfc_mcheck.Explore.max_nodes n
      | Certificate.Complete | Certificate.Static ->
          Alcotest.fail
            (r.Engine.protocol ^ ": upgraded strength without the cover/static tier"))
    (Lazy.force registry_results);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun line ->
      checkb "record carries a strength" true (contains line {|"strength":"bounded"|});
      checkb "record carries its budget" true (contains line {|"budget":|}))
    (String.split_on_char '\n' (String.trim (Report.jsonl (Lazy.force registry_results))))

let test_sarif_shape () =
  let results = [ Lazy.force broken_result ] in
  let s = Sarif.to_string results in
  let contains needle =
    let nh = String.length s and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub s i nn = needle || go (i + 1)) in
    go 0
  in
  checkb "declares SARIF 2.1.0" true (contains {|"version":"2.1.0"|});
  checkb "rules catalogue embedded" true (contains {|"id":"H1"|});
  checkb "errors map to level error" true (contains {|"level":"error"|});
  checkb "protocol is a logical location" true
    (contains {|"name":"broken-lint-spec","kind":"module"|})

let test_jsonl_one_object_per_protocol () =
  let results = Lazy.force registry_results in
  let lines =
    String.split_on_char '\n' (String.trim (Report.jsonl results))
  in
  checki "one JSON line per protocol" (List.length results) (List.length lines);
  List.iter
    (fun l ->
      checkb "line is a protocol object" true
        (String.length l > 12 && String.sub l 0 12 = {|{"protocol":|}))
    lines

let test_exit_codes () =
  let results = Lazy.force registry_results in
  checki "clean registry exits 0" 0 (Report.exit_code ~strict:false results);
  (* The alternating bit's stuck configuration is a warning; strict mode
     escalates it. *)
  checki "strict escalates warnings" 1 (Report.exit_code ~strict:true results);
  let broken = [ Lazy.force broken_result ] in
  checki "errors exit 1" 1 (Report.exit_code ~strict:false broken)

(* ------------------------------------------- Q1 dead automaton states *)

(* The example specs, compiled as [lint --spec] compiles them. *)
let example_specs =
  lazy
    (List.map
       (fun file ->
         match Nfc_pdl.Pdl.compile_file (Test_pdl.example file) with
         | Ok c -> c.Nfc_pdl.Pdl.spec
         | Error _ -> Alcotest.fail (file ^ " must compile"))
       [
         "alternating_bit.nfc";
         "bounded_counter.nfc";
         "flooding_counter.nfc";
         "pumped_counter.nfc";
         "stop_and_wait.nfc";
       ])

let example_results =
  lazy (List.map (Engine.run Checks.default_config) (Lazy.force example_specs))

let closure_lines (r : Engine.result) =
  List.filter_map
    (fun (d : Diagnostic.t) ->
      if d.Diagnostic.rule = "Q1" && Test_pdl.contains d.Diagnostic.message "input closure" then
        Some d.Diagnostic.message
      else None)
    r.Engine.diagnostics

type closure = Closed of int | Capped | Raised

(* Q1's dead-state check recomputed independently of the engine's ids:
   each station's input closure in a comparator [Set] (at most [cap]
   states, or [Capped]; [Raised] when a submit or poll raises, while a
   raising [on_ack]/[on_data] is a self-loop, as lint's instrumented copy
   treats it), against the station states of a fresh reach.  [Closed n]
   counts the closure states that reach never visits. *)
let reference_closures proto (cfg : Checks.config) (c : Certificate.t) =
  let module P = (val proto : Spec.S) in
  let module E = Nfc_mcheck.Explore.Make (P) in
  let module Ss = Set.Make (struct
    type t = P.sender

    let compare = P.compare_sender
  end) in
  let module Rs = Set.Make (struct
    type t = P.receiver

    let compare = P.compare_receiver
  end) in
  let configs = E.configs (E.reachable_set cfg.Checks.bounds) in
  let closure (type a) (module S : Set.S with type elt = a) (init : a) (moves : a -> a list)
      (reached : a list) =
    let seen = ref (S.singleton init) and queue = Queue.create () in
    Queue.push init queue;
    match
      while not (Queue.is_empty queue) do
        List.iter
          (fun s ->
            if not (S.mem s !seen) then begin
              if S.cardinal !seen >= Checks.max_probe_states then raise Exit;
              seen := S.add s !seen;
              Queue.push s queue
            end)
          (moves (Queue.pop queue))
      done
    with
    | () -> Closed (S.cardinal (S.diff !seen (S.of_list reached)))
    | exception Exit -> Capped
    | exception _ -> Raised
  in
  let acks = c.Certificate.alphabet_rt @ Checks.fault_packets in
  let datas = c.Certificate.alphabet_tr @ Checks.fault_packets in
  let total f x p = try f x p with _ -> x in
  ( closure (module Ss) P.sender_init
      (fun s ->
        P.on_submit s :: snd (P.sender_poll s) :: List.map (total P.on_ack s) acks)
      (List.map (fun (c : E.config) -> E.sender_of c.E.sid) configs),
    closure (module Rs) P.receiver_init
      (fun r -> snd (P.receiver_poll r) :: List.map (total P.on_data r) datas)
      (List.map (fun (c : E.config) -> E.receiver_of c.E.rid) configs) )

let expected_lines (senders, receivers) =
  List.filter_map
    (fun (station, closure) ->
      match closure with
      | Closed n when n > 0 ->
          Some
            (Printf.sprintf
               "%d %s state(s) in the input closure are never reached by the composed system" n
               station)
      | _ -> None)
    [ ("sender", senders); ("receiver", receivers) ]

let test_q1_example_pins () =
  let lines name =
    closure_lines
      (List.find (fun (r : Engine.result) -> r.Engine.protocol = name)
         (Lazy.force example_results))
  in
  Alcotest.(check (list string))
    "bounded-counter dead states"
    [
      "1 sender state(s) in the input closure are never reached by the composed system";
      "3 receiver state(s) in the input closure are never reached by the composed system";
    ]
    (lines "bounded-counter");
  Alcotest.(check (list string))
    "flooding-counter dead states"
    [
      "75 sender state(s) in the input closure are never reached by the composed system";
      "3 receiver state(s) in the input closure are never reached by the composed system";
    ]
    (lines "flooding-counter")

let test_q1_capped_registry_silent () =
  (* Every registry station's closure outgrows the cap, so the check has
     no answer and says nothing. *)
  List.iter2
    (fun proto (r : Engine.result) ->
      checkb (r.Engine.protocol ^ ": closures capped") true
        (reference_closures proto Checks.default_config r.Engine.certificate = (Capped, Capped));
      Alcotest.(check (list string)) (r.Engine.protocol ^ ": silent") [] (closure_lines r))
    (Nfc_protocol.Registry.defaults ())
    (Lazy.force registry_results)

let test_q1_matches_reference () =
  List.iter2
    (fun proto (r : Engine.result) ->
      Alcotest.(check (list string))
        (r.Engine.protocol ^ ": Q1 closure lines")
        (expected_lines (reference_closures proto Checks.default_config r.Engine.certificate))
        (closure_lines r))
    (Nfc_protocol.Registry.defaults () @ Lazy.force example_specs)
    (Lazy.force registry_results @ Lazy.force example_results)

(* The shared part of the two specs below: an int sender, and a
   receiver that never sends, so no ack is ever delivered. *)
module Silent_receiver = struct
  let header_bound = Some 1

  type sender = int
  type receiver = unit

  let sender_init = 0
  let receiver_init = ()
  let on_submit s = s
  let on_data r _ = r
  let receiver_poll r = (None, r)
  let compare_sender = Int.compare
  let compare_receiver = compare
  let hash_sender = Some Spec.structural_hash
  let hash_receiver = None
  let cover_norm_sender = None
  let cover_norm_receiver = None
  let pp_sender = Format.pp_print_int
  let pp_receiver ppf () = Format.pp_print_string ppf "()"
  let sender_space_bits = Spec.bits_for_int
  let receiver_space_bits _ = 1
end

(* A sender whose out-of-alphabet ack (a fault packet) leads to state 7,
   which the composed system never reaches; with [poll_raises] its poll
   raises there. *)
module Dead_state (X : sig
  val poll_raises : bool
end) =
struct
  include Silent_receiver

  let name = "dead-state-spec"
  let describe = "a fault packet leads the sender to an unreached state"
  let on_ack s p = if p < 0 then 7 else s

  let sender_poll s =
    if s = 7 && X.poll_raises then failwith "no poll in state 7" else (None, s)
end

let test_q1_raising_closure_silent () =
  let run poll_raises =
    closure_lines
      (Engine.run small_cfg
         (module Dead_state (struct
           let poll_raises = poll_raises
         end) : Spec.S))
  in
  Alcotest.(check (list string))
    "closure that completes reports the dead state"
    [ "1 sender state(s) in the input closure are never reached by the composed system" ]
    (run false);
  Alcotest.(check (list string)) "closure that raises stays silent" [] (run true)

(* A sender that ticks silently through states 0 .. 2100 and whose
   [on_ack] fails from state 2050 on.  No ack is ever delivered, so only
   E1's probe of every reached state can see it, and 2050 lies past the
   2,000th state of the comparator order. *)
module Late_partial = struct
  include Silent_receiver

  let name = "late-partial-spec"
  let describe = "on_ack fails only in states past the 2000th"
  let on_ack s _ = if s >= 2050 then failwith "late state" else s
  let sender_poll s = (None, min (s + 1) 2100)
end

let test_e1_probes_every_reached_state () =
  let cfg =
    {
      small_cfg with
      Checks.bounds = { small_cfg.Checks.bounds with Nfc_mcheck.Explore.max_nodes = 15_000 };
    }
  in
  let r = Engine.run cfg (module Late_partial : Spec.S) in
  checki "k_t spans every tick" 2101 r.Engine.certificate.Certificate.k_t;
  checkb "more reached states than the closure cap" true
    (r.Engine.certificate.Certificate.k_t > Checks.max_probe_states);
  match List.find_opt (fun (d : Diagnostic.t) -> d.Diagnostic.rule = "E1") r.Engine.diagnostics with
  | Some d ->
      checkb "E1 is an error" true (d.Diagnostic.severity = Diagnostic.Error);
      checkb "witness names the first failing state" true
        (match d.Diagnostic.witness with
        | Some w -> Test_pdl.contains w "in state 2050 raised"
        | None -> false)
  | None -> Alcotest.fail "E1 must report the partial on_ack past the 2,000th state"

(* Both polls raise in reachable states: the sender's once its silent
   ticks reach state 3, the receiver's in its only state.  Lint must
   report each as E1 instead of letting the exception out of the reach. *)
module Raising_polls = struct
  include Silent_receiver

  let name = "raising-polls-spec"
  let describe = "sender_poll fails in state 3, receiver_poll everywhere"
  let on_ack s _ = s
  let sender_poll s = if s = 3 then failwith "poll3" else (None, s + 1)
  let receiver_poll () = failwith "rpoll"
end

let test_e1_reports_raising_polls () =
  let r = Engine.run small_cfg (module Raising_polls : Spec.S) in
  checki "the reach passes the raising state" 4 r.Engine.certificate.Certificate.k_t;
  let witnesses =
    List.filter_map
      (fun (d : Diagnostic.t) ->
        if d.Diagnostic.rule = "E1" && d.Diagnostic.severity = Diagnostic.Error then
          d.Diagnostic.witness
        else None)
      r.Engine.diagnostics
  in
  let names sub = List.exists (fun w -> Test_pdl.contains w sub) witnesses in
  checkb "sender_poll witness" true (names {|sender_poll in state 3 raised Failure("poll3")|});
  checkb "receiver_poll witness" true (names {|receiver_poll in state () raised Failure("rpoll")|})

(* The stab tier's cancellation hook reaches the recovery sweeps: a
   raising checkpoint escapes [Stab_tier.apply], after being called. *)
let test_stab_tier_checkpoint () =
  let stab_arq = Nfc_protocol.Stab_arq.make () in
  let result = Engine.run small_cfg stab_arq in
  let calls = ref 0 in
  match
    Stab_tier.apply
      ~checkpoint:(fun () ->
        incr calls;
        raise Exit)
      stab_arq result
  with
  | _ -> Alcotest.fail "the stab tier ignored a raising checkpoint"
  | exception Exit -> checki "aborted at the first checkpoint" 1 !calls

let suite =
  [
    ("registry lints clean", `Quick, test_registry_clean);
    ("certificates respect Theorem 2.1", `Quick, test_registry_certificates_sound);
    ("declared header budgets certified", `Quick, test_registry_header_budgets_certified);
    ("broken spec flags H1+E1", `Quick, test_broken_flags_h1_and_e1);
    ("S1 flags the incoherent hash hook", `Quick, test_s1_flags_incoherent_hash);
    ("S1 silent on honest and merely partial specs", `Quick, test_s1_clean_on_honest_and_broken_specs);
    ("bounded strength without --complete", `Quick, test_bounded_strength_without_complete);
    ("sarif shape", `Quick, test_sarif_shape);
    ("E1 witness names the defect", `Quick, test_broken_witnesses_name_the_defect);
    ("jsonl shape", `Quick, test_jsonl_one_object_per_protocol);
    ("exit codes", `Quick, test_exit_codes);
    ("Q1 dead states pinned on the example specs", `Quick, test_q1_example_pins);
    ("Q1 silent when a registry closure hits the cap", `Quick, test_q1_capped_registry_silent);
    ("Q1 closure matches a comparator-set reference", `Quick, test_q1_matches_reference);
    ("Q1 silent when the closure raises", `Quick, test_q1_raising_closure_silent);
    ("E1 probes every reached station state", `Quick, test_e1_probes_every_reached_state);
    ("E1 reports raising polls", `Quick, test_e1_reports_raising_polls);
    ("stab tier checkpoint aborts", `Quick, test_stab_tier_checkpoint);
  ]
