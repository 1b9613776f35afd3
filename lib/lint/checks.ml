module Spec = Nfc_protocol.Spec
module Explore = Nfc_mcheck.Explore
module Boundness = Nfc_mcheck.Boundness
module Pvec = Nfc_mcheck.Pvec
module Iset = Set.Make (Int)

type config = {
  bounds : Explore.bounds;
  probe : Boundness.probe_bounds;
  max_probes : int;
  complete : bool;
  cover_max_nodes : int;
  checkpoint : unit -> unit;
}

let default_config =
  {
    bounds = { Explore.default_bounds with capacity_tr = 2; capacity_rt = 2; max_nodes = 15_000 };
    (* Tighter than {!Boundness.default_probe_bounds}: flooding protocols
       make each exhausted probe pay its full node budget, and the linter
       probes a sample, so small budgets keep registry-wide runs in
       seconds while the certificate stays sound (an exhausted probe
       yields [boundness = None], never an understated bound). *)
    probe = { Boundness.max_nodes = 1_500; max_cost = 100 };
    max_probes = 400;
    complete = false;
    (* The cover's node cap is a divergence backstop, not an exploration
       budget: converging protocols finish orders of magnitude below it,
       and only the hook-less flooding protocols ever hit it. *)
    cover_max_nodes = 200_000;
    checkpoint = (fun () -> ());
  }

(* A negative value and a far-out-of-alphabet value: a legal non-FIFO
   channel never invents packets, but input-enabledness (Section 2.1)
   requires the automata to absorb them anyway. *)
let fault_packets = [ -1; 1_000_003 ]

let max_probe_states = 2_000
let max_witnesses = 3
let alpha_text s = "{" ^ String.concat ", " (List.map string_of_int (Iset.elements s)) ^ "}"

(* Q1's input closure of one station over its interned ids: a BFS from
   [init] under [moves id push], stopped with [None] at the first id past
   [cap] or at the first step that raises; otherwise [Some n], where [n]
   counts the closure ids that [reached] had not marked (it marks them). *)
let unreached_in_closure ~cap ~reached init moves =
  let seen = Explore.Seen.create () in
  let queue = Queue.create () in
  let n = ref 0 and unreached = ref 0 in
  let push id =
    if Explore.Seen.first seen id then begin
      if !n >= cap then raise Exit;
      incr n;
      Queue.push id queue
    end
  in
  try
    push init;
    while not (Queue.is_empty queue) do
      let id = Queue.pop queue in
      if Explore.Seen.first reached id then incr unreached;
      moves id push
    done;
    Some !unreached
  with _ -> None

module Make (P : Spec.S) = struct
  let spf = Printf.sprintf

  let analyze cfg =
    let diags = ref [] in
    let emit ~rule ~severity ?witness message =
      diags :=
        Diagnostic.make ~rule ~severity ~protocol:P.name ?witness message :: !diags
    in
    (* ------------------------------------------------ instrumentation *)
    let partial = ref [] in
    let n_partial = ref 0 in
    let polls_raised = ref 0 in
    let record op packet state_text e =
      incr n_partial;
      if List.length !partial < 64 then
        partial := (op, packet, state_text, Printexc.to_string e) :: !partial
    in
    let module G = struct
      include P

      let on_ack s p =
        try P.on_ack s p
        with e ->
          record "on_ack" (Some p) (Format.asprintf "%a" P.pp_sender s) e;
          s

      let on_data r p =
        try P.on_data r p
        with e ->
          record "on_data" (Some p) (Format.asprintf "%a" P.pp_receiver r) e;
          r

      (* A raising poll reads as a silent one, so the reach goes on and
         E1 reports it. *)
      let sender_poll s =
        try P.sender_poll s
        with e ->
          incr polls_raised;
          record "sender_poll" None (Format.asprintf "%a" P.pp_sender s) e;
          (None, s)

      let receiver_poll r =
        try P.receiver_poll r
        with e ->
          incr polls_raised;
          record "receiver_poll" None (Format.asprintf "%a" P.pp_receiver r) e;
          (None, r)
    end in
    let module B = Boundness.Make (G) in
    let module E = B.E in
    let reach = E.reachable_set ~checkpoint:cfg.checkpoint cfg.bounds in
    let g = reach.E.graph in
    (* --------------------------- alphabet census and state collection *)
    let atr = ref Iset.empty in
    let art = ref Iset.empty in
    let sid_seen = Explore.Seen.create () and rid_seen = Explore.Seen.create () in
    let senders = ref [] and receivers = ref [] in
    for i = 0 to E.size g - 1 do
      (* Interned-id equality is comparator equality (S1 checks the hash
         coherence it rests on), so k_t and k_r count distinct ids.  Each
         poll probe is a memo read, since the reach expanded every held
         configuration, and catches emissions the capacity bound
         suppressed.  Channels need no census: every packet in one was
         emitted by the poll of a reached station state. *)
      let sid = E.sid g i and rid = E.rid g i in
      if Explore.Seen.first sid_seen sid then begin
        senders := sid :: !senders;
        match E.step_sender_poll sid with Some p, _ -> atr := Iset.add p !atr | None, _ -> ()
      end;
      if Explore.Seen.first rid_seen rid then begin
        receivers := rid :: !receivers;
        match E.step_receiver_poll rid with
        | Some (Spec.Rsend p), _ -> art := Iset.add p !art
        | (Some Spec.Rdeliver | None), _ -> ()
      end
    done;
    let k_t = List.length !senders in
    let k_r = List.length !receivers in
    let product = k_t * k_r in
    let alpha = Iset.union !atr !art in
    let n_alpha = Iset.cardinal alpha in
    (* ------------------------------------------- H1: header budget *)
    (match P.header_bound with
    | Some k when n_alpha > k ->
        emit ~rule:"H1" ~severity:Diagnostic.Error
          ~witness:("reachable alphabet " ^ alpha_text alpha)
          (spf "declares header_bound = %d but %d distinct packets are reachable" k
             n_alpha)
    | Some k ->
        emit ~rule:"H1" ~severity:Diagnostic.Info
          (spf "header budget certified: %d distinct reachable packets within the declared %d"
             n_alpha k)
    | None when not reach.E.truncated ->
        emit ~rule:"H1" ~severity:Diagnostic.Warning
          ~witness:("reachable alphabet " ^ alpha_text alpha)
          (spf
             "declares unbounded headers, yet the fully explored space uses a finite alphabet of %d"
             n_alpha)
    | None ->
        emit ~rule:"H1" ~severity:Diagnostic.Info
          (spf "unbounded headers declared; %d distinct packets in the truncated explored space"
             n_alpha));
    (* --------------------------------------- E1: input-enabledness *)
    let probe_pkts = Iset.elements alpha @ fault_packets in
    let by cmp state_of a b = cmp (state_of a) (state_of b) in
    List.iter
      (fun sid ->
        let s = E.sender_of sid in
        List.iter (fun p -> ignore (G.on_ack s p)) probe_pkts;
        ignore (G.sender_poll s);
        try ignore (P.on_submit s)
        with e -> record "on_submit" None (Format.asprintf "%a" P.pp_sender s) e)
      (List.sort (by P.compare_sender E.sender_of) !senders);
    List.iter
      (fun rid ->
        let r = E.receiver_of rid in
        List.iter (fun p -> ignore (G.on_data r p)) probe_pkts;
        ignore (G.receiver_poll r))
      (List.sort (by P.compare_receiver E.receiver_of) !receivers);
    let seen_ops = Hashtbl.create 8 in
    let shown = ref 0 in
    List.iter
      (fun (op, packet, state_text, exn_text) ->
        let key = (op, packet) in
        if (not (Hashtbl.mem seen_ops key)) && !shown < max_witnesses then begin
          Hashtbl.add seen_ops key ();
          incr shown;
          let pkt_text =
            match packet with None -> "" | Some p -> spf " on packet %d" p
          in
          emit ~rule:"E1" ~severity:Diagnostic.Error
            ~witness:(spf "%s%s in state %s raised %s" op pkt_text state_text exn_text)
            (spf "%s is partial: the automaton is not input-enabled (%d failure(s) total)"
               op !n_partial)
        end)
      (List.rev !partial);
    (* ------------------------------- B1: Theorem 2.1 certificate *)
    (* The ungated reach above is reused whenever it is phantom-free (the
       registry protocols) — the gated pass then provably visits the same
       set, so boundness costs probes, not a second exploration. *)
    let breport =
      B.measure ~max_probes:cfg.max_probes ~checkpoint:cfg.checkpoint ~reach
        ~explore:cfg.bounds ~probe_bounds:cfg.probe ()
    in
    (match breport.Boundness.boundness with
    | Some b when b > product ->
        emit ~rule:"B1" ~severity:Diagnostic.Error
          ~witness:(spf "measured boundness %d > k_t*k_r = %d*%d = %d" b k_t k_r product)
          "measured boundness exceeds the Theorem 2.1 state-product certificate"
    | Some b ->
        emit ~rule:"B1" ~severity:Diagnostic.Info
          (spf "Theorem 2.1 certificate: boundness <= k_t*k_r = %d*%d = %d (measured %d)"
             k_t k_r product b)
    | None ->
        emit ~rule:"B1" ~severity:Diagnostic.Info
          (spf
             "Theorem 2.1 certificate: boundness <= k_t*k_r = %d (measurement inconclusive, %d probes exhausted)"
             product breport.Boundness.probes_exhausted));
    (* -------------------------- T1: impossibility consistency *)
    (* The reach's phantom scan stands in for a dedicated
       [E.search ~stop_at_phantom:true] pass: [first_phantom] is the very
       move that search stops at (same BFS generation order), and
       [phantom_in_budget] / the node count reproduce its
       [Violation] / [Node_budget] / [No_violation] trichotomy. *)
    (match P.header_bound with
    | Some k when cfg.bounds.Explore.submit_budget > k -> (
        match reach.E.first_phantom with
        | Some len when reach.E.phantom_in_budget ->
            emit ~rule:"T1" ~severity:Diagnostic.Info
              ~witness:(spf "phantom delivery after %d actions" len)
              (spf
                 "impossibility confirmed: %d headers under a %d-submit budget forces a DL1 violation (Theorems 3.1/4.1)"
                 k cfg.bounds.Explore.submit_budget)
        | _ when reach.E.reach_stats.Explore.nodes >= cfg.bounds.Explore.max_nodes -> ()
        | _ when breport.Boundness.boundness <> None ->
            emit ~rule:"T1" ~severity:Diagnostic.Warning
              (spf
                 "declares %d headers under a %d-submit budget yet measures bounded with no DL1 violation in the fully explored space — the configuration Theorems 3.1/4.1 prove impossible; widen the bounds"
                 k cfg.bounds.Explore.submit_budget)
        | _ -> ())
    | _ -> ());
    (* ----------------------- Q1: quiescence / dead configurations *)
    let dead = ref 0 in
    let dead_witness = ref None in
    for id = 0 to E.size g - 1 do
      let pending = E.submitted g id - E.delivered g id in
      if pending > 0 && reach.E.stuck id then begin
        incr dead;
        if !dead_witness = None then
          dead_witness :=
            Some
              (Format.asprintf "sender %a, receiver %a, %d message(s) pending" P.pp_sender
                 (E.sender_of (E.sid g id)) P.pp_receiver
                 (E.receiver_of (E.rid g id))
                 pending)
      end
    done;
    (* Warning, not error: for bounded-header registry protocols a stuck
       configuration is the expected liveness failure mode (the
       alternating bit wedges on a stale ack — the repo's wedge tests
       prove it), exactly as the paper predicts bounded protocols must
       fail somewhere.  [--strict] escalates. *)
    if !dead > 0 then
      emit ~rule:"Q1" ~severity:Diagnostic.Warning ?witness:!dead_witness
        (spf
           "%d reachable configuration(s) stuck with a message pending: no local action enabled, nothing in transit"
           !dead);
    (* Dead automaton states: only decidable when the station's input
       closure is finite within the cap (counter-carrying protocols are
       not; the closure then returns None and the check stays silent).
       A raising poll leaves a station's moves unknown, so once one has
       raised, anywhere, the check stays silent too.  It walks engine
       ids through the step memos.  Packets the engine never interned
       (the fault packets, suppressed poll emissions) step outside the
       memo, so [E.pkts], which the --complete cover iterates, stays as
       the reach left it. *)
    let steps alpha step_id step =
      List.map
        (fun p ->
          let rec find i =
            if i < 0 then fun id -> step id p
            else if Pvec.Index.packet E.pkts i = p then fun id -> step_id id i
            else find (i - 1)
          in
          find (Pvec.Index.size E.pkts - 1))
        (Iset.elements alpha @ fault_packets)
    in
    let acks =
      steps !art E.step_ack_id (fun sid p -> E.intern_sender (G.on_ack (E.sender_of sid) p))
    in
    let datas =
      steps !atr E.step_data_id (fun rid p -> E.intern_receiver (G.on_data (E.receiver_of rid) p))
    in
    let sender_closure =
      unreached_in_closure ~cap:max_probe_states ~reached:sid_seen E.initial.E.sid
        (fun sid push ->
          let _, polled = E.step_sender_poll sid in
          push (E.step_submit sid);
          push polled;
          List.iter (fun ack -> push (ack sid)) acks)
    in
    let receiver_closure =
      unreached_in_closure ~cap:max_probe_states ~reached:rid_seen E.initial.E.rid
        (fun rid push ->
          push (snd (E.step_receiver_poll rid));
          List.iter (fun data -> push (data rid)) datas)
    in
    let report station = function
      | Some n when n > 0 && !polls_raised = 0 ->
          emit ~rule:"Q1" ~severity:Diagnostic.Info
            (spf "%d %s state(s) in the input closure are never reached by the composed system"
               n station)
      | _ -> ()
    in
    report "sender" sender_closure;
    report "receiver" receiver_closure;
    (* ----------------------------------------- S1: spec sanitizer *)
    (* Probes the spec-to-engine contract (comparator reflexivity,
       hash/comparator coherence, step purity) on the instrumented spec,
       so partiality stays E1's finding and never aborts S1. *)
    let module S = Sanitize.Make (G) in
    List.iter
      (fun (f : Sanitize.finding) ->
        emit ~rule:"S1" ~severity:Diagnostic.Error ?witness:f.Sanitize.witness
          (spf "[%s] %s" f.Sanitize.kind f.Sanitize.message))
      (S.run ~max_states:max_probe_states ~fault_packets ());
    (* --------------------- C1: budget-free cover tier (--complete) *)
    (* The bounded verdicts above remain THE verdicts; a converged cover
       fixpoint can only *upgrade* their strength when it corroborates
       them.  Divergence (the hook-less flooding protocols) downgrades
       explicitly; a converged cover that *disagrees* with a bounded
       verdict is itself a warning — one of the two analyses is wrong,
       and both are shipped in this repo.  Unsound saturation hooks can
       therefore never change a verdict, only mislabel its strength. *)
    let bounded = Certificate.Bounded cfg.bounds.Explore.max_nodes in
    let rule_strengths = ref [ ("H1", bounded); ("T1", bounded); ("Q1", bounded) ] in
    let set_strength rule s =
      rule_strengths := List.map (fun (r, s0) -> (r, if r = rule then s else s0)) !rule_strengths
    in
    let cover_summary = ref None in
    if cfg.complete then begin
      let module Cv = Nfc_absint.Cover.Make (G) (E) in
      let st =
        Cv.run ~checkpoint:cfg.checkpoint ~max_nodes:cfg.cover_max_nodes
          ~submit_budget:cfg.bounds.Explore.submit_budget ()
      in
      cover_summary :=
        Some
          {
            Certificate.cover_converged = st.Nfc_absint.Cover.converged;
            cover_size = st.Nfc_absint.Cover.cover_size;
            cover_iterations = st.Nfc_absint.Cover.iterations;
            cover_accelerations = st.Nfc_absint.Cover.accelerations;
            cover_omega_configs = st.Nfc_absint.Cover.omega_configs;
            accel_samples = st.Nfc_absint.Cover.accel_samples;
          };
      if not st.Nfc_absint.Cover.converged then
        emit ~rule:"C1" ~severity:Diagnostic.Info
          (spf
             "cover fixpoint diverged within %d nodes (station state unbounded under ω \
              inputs, no saturation hook) — certificate stays bounded(%d)"
             cfg.cover_max_nodes cfg.bounds.Explore.max_nodes)
      else begin
        let corroborate rule agrees bounded_text cover_text =
          if agrees then set_strength rule Certificate.Complete
          else
            emit ~rule:"C1" ~severity:Diagnostic.Warning
              (spf
                 "converged cover contradicts the bounded %s verdict (bounded: %s; cover: \
                  %s) — one analysis is wrong, strength stays bounded"
                 rule bounded_text cover_text)
        in
        let cover_tr = Iset.of_list st.Nfc_absint.Cover.alphabet_tr in
        let cover_rt = Iset.of_list st.Nfc_absint.Cover.alphabet_rt in
        corroborate "H1"
          (Iset.equal cover_tr !atr && Iset.equal cover_rt !art)
          (spf "alphabet %s / %s" (alpha_text !atr) (alpha_text !art))
          (spf "alphabet %s / %s" (alpha_text cover_tr) (alpha_text cover_rt));
        corroborate "T1"
          (st.Nfc_absint.Cover.phantom_coverable = (reach.E.first_phantom <> None))
          (if reach.E.first_phantom <> None then "phantom reachable" else "no phantom")
          (if st.Nfc_absint.Cover.phantom_coverable then "phantom coverable"
           else "phantom not coverable");
        corroborate "Q1"
          ((st.Nfc_absint.Cover.stuck_controls > 0) = (!dead > 0))
          (spf "%d stuck configuration(s)" !dead)
          (spf "%d stuck control(s)" st.Nfc_absint.Cover.stuck_controls);
        if List.for_all (fun (_, s) -> s = Certificate.Complete) !rule_strengths then
          emit ~rule:"C1" ~severity:Diagnostic.Info
            (spf
               "complete certification: cover fixpoint converged (%d element(s), %d \
                acceleration(s)) and corroborates H1/T1/Q1 for every node budget and \
                channel capacity at submit budget %d"
               st.Nfc_absint.Cover.cover_size st.Nfc_absint.Cover.accelerations
               cfg.bounds.Explore.submit_budget)
      end
    end;
    let strength =
      List.fold_left
        (fun acc (_, s) -> Certificate.weakest acc s)
        Certificate.Complete !rule_strengths
    in
    let certificate =
      {
        Certificate.protocol = P.name;
        declared_header_bound = P.header_bound;
        alphabet_tr = Iset.elements !atr;
        alphabet_rt = Iset.elements !art;
        k_t;
        k_r;
        state_product = product;
        measured_boundness = breport.Boundness.boundness;
        probes_exhausted = breport.Boundness.probes_exhausted;
        configs_explored = reach.E.reach_stats.Explore.nodes;
        truncated = reach.E.truncated;
        strength = (if cfg.complete then strength else bounded);
        rule_strengths = !rule_strengths;
        cover = !cover_summary;
        refine_rounds = None;
        stabilization = None;
      }
    in
    (List.rev !diags, certificate)
end
