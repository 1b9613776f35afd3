(* The tree-based engine the hashed engine replaced, retained verbatim as
   the differential-testing oracle and benchmark baseline.

   Configurations carry their states and Multiset channels directly; the
   visited set is a balanced tree ordered by the state comparators, so
   every membership test walks O(log n) nodes each paying up to four
   multiset comparisons.  {!Explore} must agree with this module on every
   statistic, verdict and measured boundness — test/test_engine.ml checks
   that for the whole registry. *)

open Nfc_automata
module M = Nfc_util.Multiset.Int
module Spec = Nfc_protocol.Spec

module Make (P : Spec.S) = struct
  type config = {
    sender : P.sender;
    receiver : P.receiver;
    tr : M.t;
    rt : M.t;
    submitted : int;
    delivered : int;
  }

  module Cfg = struct
    type t = config

    let compare a b =
      let c = compare a.submitted b.submitted in
      if c <> 0 then c
      else
        let c = compare a.delivered b.delivered in
        if c <> 0 then c
        else
          let c = P.compare_sender a.sender b.sender in
          if c <> 0 then c
          else
            let c = P.compare_receiver a.receiver b.receiver in
            if c <> 0 then c
            else
              let c = M.compare a.tr b.tr in
              if c <> 0 then c else M.compare a.rt b.rt
  end

  module Cset = Set.Make (Cfg)

  let initial =
    {
      sender = P.sender_init;
      receiver = P.receiver_init;
      tr = M.empty;
      rt = M.empty;
      submitted = 0;
      delivered = 0;
    }

  let successors (bounds : Explore.bounds) c =
    let moves = ref [] in
    let push act c' = moves := (act, c') :: !moves in
    if c.submitted < bounds.Explore.submit_budget then
      push (Some (Action.Send_msg c.submitted))
        { c with sender = P.on_submit c.sender; submitted = c.submitted + 1 };
    (match P.sender_poll c.sender with
    | Some pkt, s' ->
        if M.cardinal c.tr < bounds.Explore.capacity_tr then
          push
            (Some (Action.Send_pkt (Action.T_to_r, pkt)))
            { c with sender = s'; tr = M.add pkt c.tr }
    | None, s' -> if P.compare_sender s' c.sender <> 0 then push None { c with sender = s' });
    (match P.receiver_poll c.receiver with
    | Some Spec.Rdeliver, r' ->
        push
          (Some (Action.Receive_msg c.delivered))
          { c with receiver = r'; delivered = c.delivered + 1 }
    | Some (Spec.Rsend pkt), r' ->
        if M.cardinal c.rt < bounds.Explore.capacity_rt then
          push
            (Some (Action.Send_pkt (Action.R_to_t, pkt)))
            { c with receiver = r'; rt = M.add pkt c.rt }
    | None, r' -> if P.compare_receiver r' c.receiver <> 0 then push None { c with receiver = r' });
    List.iter
      (fun pkt ->
        match M.remove_one pkt c.tr with
        | Some tr' ->
            push
              (Some (Action.Receive_pkt (Action.T_to_r, pkt)))
              { c with tr = tr'; receiver = P.on_data c.receiver pkt };
            (* Same lazy-drop POR gate as {!Explore.iter_successors}: under
               [por], drops are generated only at channel capacity. *)
            if
              bounds.Explore.allow_drop
              && ((not bounds.Explore.por) || M.cardinal c.tr >= bounds.Explore.capacity_tr)
            then push (Some (Action.Drop_pkt (Action.T_to_r, pkt))) { c with tr = tr' }
        | None -> ())
      (M.support c.tr);
    List.iter
      (fun pkt ->
        match M.remove_one pkt c.rt with
        | Some rt' ->
            push
              (Some (Action.Receive_pkt (Action.R_to_t, pkt)))
              { c with rt = rt'; sender = P.on_ack c.sender pkt };
            if
              bounds.Explore.allow_drop
              && ((not bounds.Explore.por) || M.cardinal c.rt >= bounds.Explore.capacity_rt)
            then push (Some (Action.Drop_pkt (Action.R_to_t, pkt))) { c with rt = rt' }
        | None -> ())
      (M.support c.rt);
    List.rev !moves

  type reach = { configs : config list; truncated : bool; reach_stats : Explore.stats }

  let reachable_set (bounds : Explore.bounds) =
    let module Sset = Set.Make (struct
      type t = P.sender

      let compare = P.compare_sender
    end) in
    let module Rset = Set.Make (struct
      type t = P.receiver

      let compare = P.compare_receiver
    end) in
    let visited = ref Cset.empty in
    let order = ref [] in
    let n_visited = ref 0 in
    let senders = ref Sset.empty in
    let receivers = ref Rset.empty in
    let max_depth = ref 0 in
    let truncated = ref false in
    let queue = Queue.create () in
    let visit cfg depth =
      if not (Cset.mem cfg !visited) then
        if !n_visited >= bounds.Explore.max_nodes then truncated := true
        else begin
          visited := Cset.add cfg !visited;
          incr n_visited;
          order := cfg :: !order;
          senders := Sset.add cfg.sender !senders;
          receivers := Rset.add cfg.receiver !receivers;
          max_depth := max !max_depth depth;
          Queue.push (cfg, depth) queue
        end
    in
    visit initial 0;
    while not (Queue.is_empty queue) do
      let cfg, depth = Queue.pop queue in
      List.iter (fun (_, cfg') -> visit cfg' (depth + 1)) (successors bounds cfg)
    done;
    {
      configs = List.rev !order;
      truncated = !truncated;
      reach_stats =
        {
          Explore.nodes = !n_visited;
          sender_states = Sset.cardinal !senders;
          receiver_states = Rset.cardinal !receivers;
          max_depth = !max_depth;
        };
    }

  let search ?(stop_at_phantom = true) (bounds : Explore.bounds) =
    let module Sset = Set.Make (struct
      type t = P.sender

      let compare = P.compare_sender
    end) in
    let module Rset = Set.Make (struct
      type t = P.receiver

      let compare = P.compare_receiver
    end) in
    let visited = ref Cset.empty in
    let n_visited = ref 0 in
    let senders = ref Sset.empty in
    let receivers = ref Rset.empty in
    let max_depth = ref 0 in
    let queue = Queue.create () in
    let nodes : (config * int * Action.t option * int) array ref = ref [||] in
    let n_nodes = ref 0 in
    let add_node entry =
      if !n_nodes >= Array.length !nodes then begin
        let len = max 1024 (2 * Array.length !nodes) in
        let bigger = Array.make len entry in
        Array.blit !nodes 0 bigger 0 !n_nodes;
        nodes := bigger
      end;
      !nodes.(!n_nodes) <- entry;
      incr n_nodes;
      !n_nodes - 1
    in
    let visit cfg parent act depth =
      if not (Cset.mem cfg !visited) then begin
        visited := Cset.add cfg !visited;
        incr n_visited;
        senders := Sset.add cfg.sender !senders;
        receivers := Rset.add cfg.receiver !receivers;
        max_depth := max !max_depth depth;
        let idx = add_node (cfg, parent, act, depth) in
        Queue.push idx queue
      end
    in
    let path_to idx =
      let rec go idx acc =
        if idx < 0 then acc
        else
          let _, parent, act, _ = !nodes.(idx) in
          let acc = match act with None -> acc | Some a -> a :: acc in
          go parent acc
      in
      go idx []
    in
    visit initial (-1) None 0;
    let result = ref None in
    (try
       while not (Queue.is_empty queue) do
         if !n_visited >= bounds.Explore.max_nodes then raise Exit;
         let idx = Queue.pop queue in
         let cfg, _, _, depth = !nodes.(idx) in
         List.iter
           (fun (act, cfg') ->
             if stop_at_phantom && cfg'.delivered > cfg'.submitted then begin
               let prefix = path_to idx in
               let final = match act with Some a -> [ a ] | None -> [] in
               result := Some (prefix @ final);
               raise Exit
             end;
             visit cfg' idx act (depth + 1))
           (successors bounds cfg)
       done
     with Exit -> ());
    let stats =
      {
        Explore.nodes = !n_visited;
        sender_states = Sset.cardinal !senders;
        receiver_states = Rset.cardinal !receivers;
        max_depth = !max_depth;
      }
    in
    match !result with
    | Some trace -> Explore.Violation trace
    | None ->
        if !n_visited >= bounds.Explore.max_nodes then Explore.Node_budget stats
        else Explore.No_violation stats

  (* ---- Boundness measurement (the old Boundness.Make, verbatim) ---- *)

  (* Reachability under gated delivery: a message may only be delivered
     when one is actually pending. *)
  let reachable_gated (bounds : Explore.bounds) =
    let visited = ref Cset.empty in
    let n_visited = ref 0 in
    let queue = Queue.create () in
    let visit c =
      if (not (Cset.mem c !visited)) && !n_visited < bounds.Explore.max_nodes then begin
        visited := Cset.add c !visited;
        incr n_visited;
        Queue.push c queue
      end
    in
    visit initial;
    while not (Queue.is_empty queue) do
      let c = Queue.pop queue in
      if c.submitted < bounds.Explore.submit_budget then
        visit { c with sender = P.on_submit c.sender; submitted = c.submitted + 1 };
      (match P.sender_poll c.sender with
      | Some pkt, s' ->
          if M.cardinal c.tr < bounds.Explore.capacity_tr then
            visit { c with sender = s'; tr = M.add pkt c.tr }
      | None, s' -> if P.compare_sender s' c.sender <> 0 then visit { c with sender = s' });
      (match P.receiver_poll c.receiver with
      | Some Spec.Rdeliver, r' ->
          if c.delivered < c.submitted then
            visit { c with receiver = r'; delivered = c.delivered + 1 }
      | Some (Spec.Rsend pkt), r' ->
          if M.cardinal c.rt < bounds.Explore.capacity_rt then
            visit { c with receiver = r'; rt = M.add pkt c.rt }
      | None, r' ->
          if P.compare_receiver r' c.receiver <> 0 then visit { c with receiver = r' });
      List.iter
        (fun pkt ->
          match M.remove_one pkt c.tr with
          | Some tr' ->
              visit { c with tr = tr'; receiver = P.on_data c.receiver pkt };
              if
                bounds.Explore.allow_drop
                && ((not bounds.Explore.por)
                   || M.cardinal c.tr >= bounds.Explore.capacity_tr)
              then visit { c with tr = tr' }
          | None -> ())
        (M.support c.tr);
      List.iter
        (fun pkt ->
          match M.remove_one pkt c.rt with
          | Some rt' ->
              visit { c with rt = rt'; sender = P.on_ack c.sender pkt };
              if
                bounds.Explore.allow_drop
                && ((not bounds.Explore.por)
                   || M.cardinal c.rt >= bounds.Explore.capacity_rt)
              then visit { c with rt = rt' }
          | None -> ())
        (M.support c.rt)
    done;
    !visited

  type probe_state = {
    psender : P.sender;
    preceiver : P.receiver;
    ptr : M.t;
    prt : M.t;
  }

  let compare_probe a b =
    let c = P.compare_sender a.psender b.psender in
    if c <> 0 then c
    else
      let c = P.compare_receiver a.preceiver b.preceiver in
      if c <> 0 then c
      else
        let c = M.compare a.ptr b.ptr in
        if c <> 0 then c else M.compare a.prt b.prt

  module Pset = Set.Make (struct
    type t = probe_state

    let compare = compare_probe
  end)

  let probe (pb : Boundness.probe_bounds) (c : config) =
    let start = { psender = c.sender; preceiver = c.receiver; ptr = M.empty; prt = M.empty } in
    let dq : (int * probe_state) Nfc_util.Deque.t ref = ref Nfc_util.Deque.empty in
    let push_front x = dq := Nfc_util.Deque.push_front x !dq in
    let push_back x = dq := Nfc_util.Deque.push_back x !dq in
    let visited = ref Pset.empty in
    let n_visited = ref 0 in
    let result = ref None in
    push_front (0, start);
    (try
       while not (Nfc_util.Deque.is_empty !dq) do
         if !n_visited >= pb.Boundness.max_nodes then raise Exit;
         match Nfc_util.Deque.pop_front !dq with
         | None -> raise Exit
         | Some ((cost, st), rest) ->
             dq := rest;
             if cost > pb.Boundness.max_cost then raise Exit;
             if not (Pset.mem st !visited) then begin
               visited := Pset.add st !visited;
               incr n_visited;
               (match P.receiver_poll st.preceiver with
               | Some Spec.Rdeliver, _ ->
                   result := Some cost;
                   raise Exit
               | Some (Spec.Rsend pkt), r' ->
                   push_front (cost, { st with preceiver = r'; prt = M.add pkt st.prt })
               | None, r' ->
                   if P.compare_receiver r' st.preceiver <> 0 then
                     push_front (cost, { st with preceiver = r' }));
               (match P.sender_poll st.psender with
               | Some pkt, s' ->
                   push_back (cost + 1, { st with psender = s'; ptr = M.add pkt st.ptr })
               | None, s' ->
                   if P.compare_sender s' st.psender <> 0 then
                     push_front (cost, { st with psender = s' }));
               List.iter
                 (fun pkt ->
                   match M.remove_one pkt st.ptr with
                   | Some tr' ->
                       push_front
                         (cost, { st with ptr = tr'; preceiver = P.on_data st.preceiver pkt })
                   | None -> ())
                 (M.support st.ptr);
               List.iter
                 (fun pkt ->
                   match M.remove_one pkt st.prt with
                   | Some rt' ->
                       push_front
                         (cost, { st with prt = rt'; psender = P.on_ack st.psender pkt })
                   | None -> ())
                 (M.support st.prt)
             end
       done
     with Exit -> ());
    !result

  let measure ?max_probes ~(explore : Explore.bounds) ~(probe_bounds : Boundness.probe_bounds)
      () =
    let configs = reachable_gated explore in
    let module Sset = Set.Make (struct
      type t = P.sender

      let compare = P.compare_sender
    end) in
    let module Rset = Set.Make (struct
      type t = P.receiver

      let compare = P.compare_receiver
    end) in
    let senders = Cset.fold (fun c acc -> Sset.add c.sender acc) configs Sset.empty in
    let receivers = Cset.fold (fun c acc -> Rset.add c.receiver acc) configs Rset.empty in
    let semi_valid = Cset.filter (fun c -> c.submitted = c.delivered + 1) configs in
    let boundness = ref (Some 0) in
    let exhausted = ref 0 in
    let budget = ref (match max_probes with None -> max_int | Some n -> n) in
    let skipped = ref 0 in
    Cset.iter
      (fun c ->
        if !budget <= 0 then incr skipped
        else begin
          decr budget;
          match probe probe_bounds c with
          | Some cost -> (
              match !boundness with
              | Some b -> boundness := Some (max b cost)
              | None -> ())
          | None ->
              incr exhausted;
              boundness := None
        end)
      semi_valid;
    {
      Boundness.protocol = P.name;
      k_t = Sset.cardinal senders;
      k_r = Rset.cardinal receivers;
      state_product = Sset.cardinal senders * Rset.cardinal receivers;
      configs_explored = Cset.cardinal configs;
      semi_valid_configs = Cset.cardinal semi_valid;
      boundness = !boundness;
      probes_exhausted = !exhausted;
      probes_skipped = !skipped;
      por = explore.Explore.por;
    }
end

let find_phantom (proto : Spec.t) bounds =
  let module P = (val proto) in
  let module R = Make (P) in
  R.search ~stop_at_phantom:true bounds

let reachable (proto : Spec.t) bounds =
  let module P = (val proto) in
  let module R = Make (P) in
  match R.search ~stop_at_phantom:false bounds with
  | Explore.Violation _ -> assert false
  | Explore.No_violation s | Explore.Node_budget s -> s

let reachable_set_stats (proto : Spec.t) bounds =
  let module P = (val proto) in
  let module R = Make (P) in
  let reach = R.reachable_set bounds in
  (reach.R.reach_stats, reach.R.truncated)

let reachable_order (proto : Spec.t) bounds =
  let module P = (val proto) in
  let module R = Make (P) in
  let bindings m = List.sort compare (M.fold (fun p n acc -> (p, n) :: acc) m []) in
  List.map
    (fun (c : R.config) ->
      ( Format.asprintf "%a" P.pp_sender c.R.sender,
        Format.asprintf "%a" P.pp_receiver c.R.receiver,
        bindings c.R.tr,
        bindings c.R.rt,
        c.R.submitted,
        c.R.delivered ))
    (R.reachable_set bounds).R.configs

let measure_boundness ?max_probes (proto : Spec.t) ~(explore : Explore.bounds)
    ~(probe : Boundness.probe_bounds) =
  let module P = (val proto) in
  let module R = Make (P) in
  R.measure ?max_probes ~explore ~probe_bounds:probe ()
