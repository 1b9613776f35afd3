(** Self-stabilization analysis: legitimate set, corrupted-start
    convergence distances, and the SS1/SS2 obligations (DESIGN 5.15).

    The legitimate set L is the reachable set of the bounded system (the
    closure obligation is discharged by construction when the sweep
    completes: L is a reachable fixpoint, and recovery moves — everything
    but user submissions — are a subset of the moves L was closed
    under).  Corruption follows the transient-fault model of Dolev-style
    self-stabilization (arXiv 2006.05901), restricted to the protocol's
    own state space: a corrupted start is any product of an observed
    sender state, an observed receiver state, and arbitrary channel
    multisets over the observed packet alphabet within the capacity
    bounds.  Convergence is autonomous — the recovery relation has a
    zero submission budget, so the system must re-enter L without fresh
    user input.

    Station states and the packet alphabet are read off the BFS-ordered
    legitimate graph, so every field of {!report} — including witness
    traces and configuration prints — is a function of the protocol and
    [cfg] alone. *)

module Explore = Nfc_mcheck.Explore
module Pvec = Nfc_mcheck.Pvec
module Spec = Nfc_protocol.Spec
module Action = Nfc_automata.Action
module Json = Nfc_util.Json

type cfg = {
  bounds : Explore.bounds;
      (** legitimate-set sweep bounds; [submit_budget] is zeroed for
          the recovery sweeps *)
  state_cap : int;  (** per-side clamp on station states entering products *)
  max_starts : int;  (** clamp on enumerated corrupted starts *)
  recovery_nodes : int;  (** node budget for each recovery sweep *)
}

let default_cfg =
  {
    bounds =
      {
        Explore.default_bounds with
        capacity_tr = 1;
        capacity_rt = 1;
        submit_budget = 2;
        max_nodes = 100_000;
      };
    state_cap = 48;
    max_starts = 60_000;
    recovery_nodes = 300_000;
  }

type verdict = Pass | Fail | Unknown

let verdict_to_string = function Pass -> "pass" | Fail -> "fail" | Unknown -> "unknown"

(** Result of one multi-seed convergence measurement (shared by the SS1
    corrupted-start analysis and the SS2 duplication-exit analysis). *)
type convergence = {
  seeds_analyzed : int;
  explored : int;  (** recovery sweep size (seeds + their closure) *)
  sweep_truncated : bool;
  converged : int;
  divergent : int;  (** seeds with no path into L within the budget *)
  bound : int;  (** max distance-to-L over converged seeds (0 if none) *)
  witness_start : string option;  (** the max-distance seed, printed *)
  witness : string list;  (** a distance-decreasing move sequence into L *)
  divergent_start : string option;  (** first divergent seed, printed *)
  divergent_stuck : bool;  (** that seed has no recovery moves at all *)
}

type report = {
  protocol : string;
  capacity_tr : int;
  capacity_rt : int;
  submit_budget : int;
  legit_budget : int;
  recovery_budget : int;
  legit_configs : int;
  legit_closed : bool;  (** the legitimate sweep completed (not truncated) *)
  sender_states : int;
  receiver_states : int;
  states_clamped : bool;
  alphabet : int list;  (** packet values observable in legitimate channels *)
  starts_enumerated : int;  (** full corrupted product size *)
  starts_truncated : bool;
  ss1 : verdict;
  ss1_reason : string;
  ss1_convergence : convergence option;  (** [None] only when L is empty *)
  dup_exits : int;  (** duplication successors leaving L *)
  ss2 : verdict;
  ss2_reason : string;
  ss2_convergence : convergence option;  (** the dup-exit re-convergence run *)
}

let analyze ?checkpoint (spec : Spec.t) cfg =
  let module P = (val spec : Spec.S) in
  let module E = Explore.Make (P) in
  if cfg.bounds.Explore.max_nodes < 1 then invalid_arg "Converge.analyze: max_nodes must be >= 1";
  if cfg.recovery_nodes < 1 then invalid_arg "Converge.analyze: recovery_nodes must be >= 1";
  if cfg.state_cap < 1 then invalid_arg "Converge.analyze: state_cap must be >= 1";
  if cfg.max_starts < 1 then invalid_arg "Converge.analyze: max_starts must be >= 1";
  let rbounds =
    { cfg.bounds with Explore.submit_budget = 0; max_nodes = cfg.recovery_nodes }
  in
  (* 1. The legitimate set. *)
  let lreach = E.reachable_set ?checkpoint cfg.bounds in
  let lg = lreach.E.graph in
  let n_legit = E.size lg in
  let legit_closed = not lreach.E.truncated in
  (* Legitimacy lives on the counter-free projection, keyed as the
     configuration's ints with zeroed counters. *)
  let lset = Explore.Table.create () in
  for i = 0 to n_legit - 1 do
    ignore (Explore.Table.add lset (E.sid lg i) (E.rid lg i) (E.tr lg i) (E.rt lg i) 0 0)
  done;
  let legitimate sid rid tr rt = Explore.Table.find lset sid rid tr rt 0 0 >= 0 in
  (* 2. Observed station states (first-occurrence order in the
     deterministic BFS order of the legitimate graph) and the observed
     channel alphabet (value order). *)
  let collect_states id_of =
    let seen = Explore.Seen.create () in
    let out = ref [] and total = ref 0 in
    for i = 0 to n_legit - 1 do
      let id = id_of lg i in
      if Explore.Seen.first seen id then begin
        incr total;
        if !total <= cfg.state_cap then out := id :: !out
      end
    done;
    (List.rev !out, !total)
  in
  let senders, n_senders = collect_states E.sid in
  let receivers, n_receivers = collect_states E.rid in
  let states_clamped = n_senders > cfg.state_cap || n_receivers > cfg.state_cap in
  let alphabet =
    (* Decode each distinct channel id once, not each configuration. *)
    let module Iset = Set.Make (Int) in
    let seen = Explore.Seen.create () in
    let add_channel ch acc =
      if Explore.Seen.first seen ch then
        Pvec.fold (fun id _ acc -> Iset.add (Pvec.Index.packet E.pkts id) acc) (E.chan ch) acc
      else acc
    in
    let acc = ref Iset.empty in
    for i = 0 to n_legit - 1 do
      acc := add_channel (E.tr lg i) (add_channel (E.rt lg i) !acc)
    done;
    Iset.elements !acc
  in
  let alphabet_ids = List.map (fun v -> Pvec.Index.id E.pkts v) alphabet in
  (* 3. Corrupted starts: observed station products x channel multisets
     of cardinality <= capacity over the observed alphabet.  Enumeration
     order (senders, receivers, forward then reverse multisets, each
     depth-first by value order) is deterministic; the clamp keeps a
     deterministic prefix.  Each multiset enters the seeds as its channel
     id. *)
  let multisets cap =
    let ids = Array.of_list alphabet_ids in
    let out = ref [] in
    let rec go i v size =
      out := E.chan_of_pvec v :: !out;
      if size < cap then
        for j = i to Array.length ids - 1 do
          go j (Pvec.add v ids.(j)) (size + 1)
        done
    in
    go 0 Pvec.empty 0;
    List.rev !out
  in
  let msets_tr = multisets cfg.bounds.Explore.capacity_tr in
  let msets_rt = multisets cfg.bounds.Explore.capacity_rt in
  let starts_enumerated =
    List.length senders * List.length receivers * List.length msets_tr * List.length msets_rt
  in
  let seeds =
    let out = ref [] and count = ref 0 in
    (try
       List.iter
         (fun sid ->
           List.iter
             (fun rid ->
               List.iter
                 (fun tr ->
                   List.iter
                     (fun rt ->
                       if !count >= cfg.max_starts then raise Exit;
                       incr count;
                       out := { E.sid; rid; tr; rt; submitted = 0; delivered = 0 } :: !out)
                     msets_rt)
                 msets_tr)
             receivers)
         senders
     with Exit -> ());
    List.rev !out
  in
  let starts_truncated = starts_enumerated > List.length seeds in
  let pp_config (c : E.config) =
    let pp_chan ppf pkts =
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
        (fun ppf (v, n) -> if n = 1 then Format.fprintf ppf "%d" v else Format.fprintf ppf "%dx%d" v n)
        ppf pkts
    in
    Format.asprintf "sender=%a receiver=%a tr=[%a] rt=[%a]" P.pp_sender (E.sender_of c.E.sid)
      P.pp_receiver (E.receiver_of c.E.rid) pp_chan (E.packets_tr c) pp_chan (E.packets_rt c)
  in
  (* One multi-seed convergence measurement: forward recovery sweep from
     the seeds, keeping predecessors, then distance-to-L by the kernel's
     backward BFS from the legitimate configurations over the explored
     graph.  Distances are relative to the explored subgraph — sound as
     convergence witnesses, upper bounds as distances; divergence is sound
     only when the sweep was not truncated. *)
  let measure seeds =
    let n_seeds = List.length seeds in
    let g =
      E.explore ?checkpoint ~preds:true ~cap:rbounds.Explore.max_nodes ~stop:max_int ~seeds rbounds
    in
    let n = E.size g in
    let dist =
      E.distances_to g (fun i -> legitimate (E.sid g i) (E.rid g i) (E.tr g i) (E.rt g i))
    in
    (* Seeds occupy the first [min n_seeds n] slots of the BFS list, in
       enumeration order. *)
    let n_seeded = min n_seeds n in
    let converged = ref 0 and divergent = ref 0 in
    let bound = ref 0 and argmax = ref (-1) and first_div = ref (-1) in
    for i = 0 to n_seeded - 1 do
      if dist.(i) = max_int then begin
        incr divergent;
        if !first_div < 0 then first_div := i
      end
      else begin
        incr converged;
        if dist.(i) > !bound then begin
          bound := dist.(i);
          argmax := i
        end
      end
    done;
    let witness =
      if !argmax < 0 then []
      else begin
        let steps = ref [] in
        let i = ref !argmax in
        (try
           while dist.(!i) > 0 do
             let next = ref None in
             E.iter_successors rbounds (E.node g !i) (fun a c' ->
                 match !next with
                 | Some _ -> ()
                 | None -> (
                     match E.find g c' with
                     | Some j when dist.(j) = dist.(!i) - 1 -> next := Some (a, j)
                     | _ -> ()));
             match !next with
             | Some (a, j) ->
                 steps :=
                   (match a with Some a -> Action.to_string a | None -> "tick") :: !steps;
                 i := j
             | None -> raise Exit (* unreachable for finite distances *)
           done
         with Exit -> ());
        List.rev !steps
      end
    in
    let stuck i =
      let any = ref false in
      E.iter_successors rbounds (E.node g i) (fun _ _ -> any := true);
      not !any
    in
    {
      seeds_analyzed = n_seeded;
      explored = n;
      sweep_truncated = E.truncated g;
      converged = !converged;
      divergent = !divergent;
      bound = !bound;
      witness_start = (if !argmax >= 0 then Some (pp_config (E.node g !argmax)) else None);
      witness;
      divergent_start = (if !first_div >= 0 then Some (pp_config (E.node g !first_div)) else None);
      divergent_stuck = (if !first_div >= 0 then stuck !first_div else false);
    }
  in
  (* 4. SS1: closure + convergence of every corrupted start. *)
  let ss1_conv = if seeds = [] then None else Some (measure seeds) in
  let ss1, ss1_reason =
    match ss1_conv with
    | None -> (Unknown, "no corrupted starts enumerable (empty legitimate set)")
    | Some cv ->
        if not legit_closed then
          ( Fail,
            Printf.sprintf
              "legitimate set did not close within %d nodes (station state grows without \
               bound); %d of %d corrupted starts diverge from the explored set%s"
              cfg.bounds.Explore.max_nodes cv.divergent cv.seeds_analyzed
              (if cv.divergent_stuck then ", the first of them with no recovery move at all"
               else "") )
        else if cv.divergent > 0 && not cv.sweep_truncated then
          ( Fail,
            Printf.sprintf "%d of %d corrupted starts cannot reach the legitimate set"
              cv.divergent cv.seeds_analyzed )
        else if cv.divergent > 0 then
          ( Unknown,
            Printf.sprintf
              "%d corrupted starts unconverged within the %d-node recovery budget" cv.divergent
              cfg.recovery_nodes )
        else if starts_truncated || states_clamped then
          ( Unknown,
            Printf.sprintf
              "all %d analyzed corrupted starts converge (max distance %d) but the corrupted \
               product was clamped (%d enumerable)"
              cv.seeds_analyzed cv.bound starts_enumerated )
        else
          ( Pass,
            Printf.sprintf
              "closed legitimate set of %d configurations; all %d corrupted starts converge \
               within %d moves"
              n_legit cv.seeds_analyzed cv.bound )
  in
  (* 5. SS2: convergence preserved under duplication.  A duplication
     move redelivers an in-transit packet without consuming it; applied
     inside L it can exit L (the extra receipt is not part of any
     legitimate run).  SS2 requires every such exit to re-converge
     autonomously.  Duplications only add edges to the recovery
     relation, and added edges can only shorten distances — so given
     SS1, the one new obligation is exactly the re-convergence of the
     exit states. *)
  let dup_exit_seeds =
    if ss1 <> Pass then []
    else begin
      let seen = Explore.Table.create () in
      let out = ref [] in
      for i = 0 to n_legit - 1 do
        let sid = E.sid lg i and rid = E.rid lg i and tr = E.tr lg i and rt = E.rt lg i in
        let consider sid rid =
          if
            (not (legitimate sid rid tr rt))
            && Explore.Table.find seen sid rid tr rt 0 0 < 0
          then begin
            ignore (Explore.Table.add seen sid rid tr rt 0 0);
            out := { E.sid; rid; tr; rt; submitted = 0; delivered = 0 } :: !out
          end
        in
        List.iter
          (fun (v, _) ->
            let rid' = E.step_data rid v in
            if rid' <> rid then consider sid rid')
          (E.chan_packets tr);
        List.iter
          (fun (v, _) ->
            let sid' = E.step_ack sid v in
            if sid' <> sid then consider sid' rid)
          (E.chan_packets rt)
      done;
      List.rev !out
    end
  in
  let ss2_conv = if dup_exit_seeds = [] then None else Some (measure dup_exit_seeds) in
  let ss2, ss2_reason =
    match ss1 with
    | Fail -> (Fail, "fault-free convergence already fails (SS1)")
    | Unknown -> (Unknown, "SS1 undetermined, duplication analysis not attempted")
    | Pass -> (
        match ss2_conv with
        | None ->
            (Pass, "the legitimate set is closed under duplicate delivery (no exit states)")
        | Some cv ->
            if cv.divergent > 0 && not cv.sweep_truncated then
              ( Fail,
                Printf.sprintf
                  "%d of %d duplication exits cannot re-enter the legitimate set" cv.divergent
                  cv.seeds_analyzed )
            else if cv.divergent > 0 then
              ( Unknown,
                Printf.sprintf
                  "%d duplication exits unconverged within the %d-node recovery budget"
                  cv.divergent cfg.recovery_nodes )
            else
              ( Pass,
                Printf.sprintf
                  "all %d duplication exits re-converge within %d moves" cv.seeds_analyzed
                  cv.bound ))
  in
  {
    protocol = P.name;
    capacity_tr = cfg.bounds.Explore.capacity_tr;
    capacity_rt = cfg.bounds.Explore.capacity_rt;
    submit_budget = cfg.bounds.Explore.submit_budget;
    legit_budget = cfg.bounds.Explore.max_nodes;
    recovery_budget = cfg.recovery_nodes;
    legit_configs = n_legit;
    legit_closed;
    sender_states = n_senders;
    receiver_states = n_receivers;
    states_clamped;
    alphabet;
    starts_enumerated;
    starts_truncated;
    ss1;
    ss1_reason;
    ss1_convergence = ss1_conv;
    dup_exits = List.length dup_exit_seeds;
    ss2;
    ss2_reason;
    ss2_convergence = ss2_conv;
  }

let convergence_bound r =
  match (r.ss1, r.ss1_convergence) with Pass, Some cv -> Some cv.bound | _ -> None

let ss2_bound r =
  match (r.ss2, r.ss2_convergence) with
  | Pass, Some cv -> Some cv.bound
  | Pass, None -> Some 0
  | _ -> None

let conv_to_json cv =
  Json.Obj
    [
      ("seeds", Json.Int cv.seeds_analyzed);
      ("explored", Json.Int cv.explored);
      ("truncated", Json.Bool cv.sweep_truncated);
      ("converged", Json.Int cv.converged);
      ("divergent", Json.Int cv.divergent);
      ("bound", Json.Int cv.bound);
      ("witness_start", Json.opt (fun s -> Json.String s) cv.witness_start);
      ("witness", Json.List (List.map (fun s -> Json.String s) cv.witness));
      ("divergent_start", Json.opt (fun s -> Json.String s) cv.divergent_start);
      ("divergent_stuck", Json.Bool cv.divergent_stuck);
    ]

let to_json r =
  Json.Obj
    [
      ("protocol", Json.String r.protocol);
      ("capacity_tr", Json.Int r.capacity_tr);
      ("capacity_rt", Json.Int r.capacity_rt);
      ("submit_budget", Json.Int r.submit_budget);
      ("legit_budget", Json.Int r.legit_budget);
      ("recovery_budget", Json.Int r.recovery_budget);
      ("legitimate_configs", Json.Int r.legit_configs);
      ("legitimate_closed", Json.Bool r.legit_closed);
      ("sender_states", Json.Int r.sender_states);
      ("receiver_states", Json.Int r.receiver_states);
      ("states_clamped", Json.Bool r.states_clamped);
      ("alphabet", Json.List (List.map (fun v -> Json.Int v) r.alphabet));
      ("corrupted_starts", Json.Int r.starts_enumerated);
      ("starts_truncated", Json.Bool r.starts_truncated);
      ("ss1", Json.String (verdict_to_string r.ss1));
      ("ss1_reason", Json.String r.ss1_reason);
      ("ss1_convergence", Json.opt conv_to_json r.ss1_convergence);
      ("convergence_bound", Json.opt (fun b -> Json.Int b) (convergence_bound r));
      ("dup_exits", Json.Int r.dup_exits);
      ("ss2", Json.String (verdict_to_string r.ss2));
      ("ss2_reason", Json.String r.ss2_reason);
      ("ss2_convergence", Json.opt conv_to_json r.ss2_convergence);
      ("ss2_bound", Json.opt (fun b -> Json.Int b) (ss2_bound r));
    ]

let pp ppf r =
  Format.fprintf ppf "@[<v>%s: stabilization over capacity %d/%d, %d submits@," r.protocol
    r.capacity_tr r.capacity_rt r.submit_budget;
  Format.fprintf ppf "legitimate set: %d configurations (%s)@," r.legit_configs
    (if r.legit_closed then "closed" else "NOT closed within budget");
  Format.fprintf ppf "corrupted starts: %d enumerated (%d sender x %d receiver states%s)%s@,"
    r.starts_enumerated r.sender_states r.receiver_states
    (if r.states_clamped then ", clamped" else "")
    (if r.starts_truncated then " [truncated]" else "");
  (match r.ss1_convergence with
  | Some cv ->
      Format.fprintf ppf "recovery sweep: %d configurations%s; %d converged, %d divergent@,"
        cv.explored
        (if cv.sweep_truncated then " [truncated]" else "")
        cv.converged cv.divergent
  | None -> ());
  Format.fprintf ppf "SS1 %s: %s@," (verdict_to_string r.ss1) r.ss1_reason;
  (match (r.ss1, r.ss1_convergence) with
  | Pass, Some cv ->
      (match cv.witness_start with
      | Some s -> Format.fprintf ppf "worst corrupted start (distance %d): %s@," cv.bound s
      | None -> ());
      if cv.witness <> [] then begin
        Format.fprintf ppf "recovery witness:@,";
        List.iteri (fun i step -> Format.fprintf ppf "  %2d. %s@," (i + 1) step) cv.witness
      end
  | _, Some cv -> (
      match cv.divergent_start with
      | Some s ->
          Format.fprintf ppf "divergent corrupted start%s: %s@,"
            (if cv.divergent_stuck then " (stuck: no recovery move)" else "")
            s
      | None -> ())
  | _, None -> ());
  Format.fprintf ppf "SS2 %s: %s" (verdict_to_string r.ss2) r.ss2_reason
