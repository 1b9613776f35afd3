open Nfc_automata
module Spec = Nfc_protocol.Spec

type bounds = {
  capacity_tr : int;
  capacity_rt : int;
  submit_budget : int;
  max_nodes : int;
  allow_drop : bool;
  por : bool;
}

let default_bounds =
  {
    capacity_tr = 3;
    capacity_rt = 3;
    submit_budget = 3;
    max_nodes = 200_000;
    allow_drop = true;
    por = false;
  }

let bounds_key b =
  Printf.sprintf "c%d:%d/s%d/n%d/d%b/p%b" b.capacity_tr b.capacity_rt b.submit_budget
    b.max_nodes b.allow_drop b.por

type stats = {
  nodes : int;
  sender_states : int;
  receiver_states : int;
  max_depth : int;
}

type outcome = Violation of Execution.t | No_violation of stats | Node_budget of stats
type wedge_outcome = Wedged of Execution.t * stats | No_wedge of stats

let pp_wedge_outcome ppf = function
  | Wedged (t, s) ->
      Format.fprintf ppf
        "@[<v>WEDGED after %d actions (no continuation delivers; %d configurations):@,%a@]"
        (List.length t) s.nodes Execution.pp t
  | No_wedge s ->
      Format.fprintf ppf "no wedge: every pending configuration can still deliver (%d configurations)"
        s.nodes

let pp_outcome ppf = function
  | Violation t ->
      Format.fprintf ppf "@[<v>VIOLATION (%d actions):@,%a@]" (List.length t) Execution.pp t
  | No_violation s ->
      Format.fprintf ppf "no violation in %d configurations (k_t=%d, k_r=%d, depth<=%d)"
        s.nodes s.sender_states s.receiver_states s.max_depth
  | Node_budget s ->
      Format.fprintf ppf
        "no violation within node budget (%d configurations, k_t=%d, k_r=%d, depth<=%d)"
        s.nodes s.sender_states s.receiver_states s.max_depth

(* Generic state interner: dense ids in first-sight order.  With a hash
   hook the table is hash-bucketed and the comparator only breaks
   collisions; without one, a comparator-keyed balanced map stands in
   (always safe, O(log k) per lookup). *)
let intern_hashed (type a) (hash : a -> int) (equal : a -> a -> bool) : a -> int =
  let tbl : (int, (a * int) list) Hashtbl.t = Hashtbl.create 512 in
  let n = ref 0 in
  fun v ->
    let h = hash v in
    let bucket = match Hashtbl.find_opt tbl h with Some b -> b | None -> [] in
    match List.find_opt (fun (w, _) -> equal w v) bucket with
    | Some (_, id) -> id
    | None ->
        let id = !n in
        incr n;
        Hashtbl.replace tbl h ((v, id) :: bucket);
        id

module Make (P : Spec.S) = struct
  (* Each [Make] instantiation is one engine run with its own mutable
     intern tables; create engines inside the job that uses them and never
     share one across domains. *)

  module Smap = Map.Make (struct
    type t = P.sender

    let compare = P.compare_sender
  end)

  module Rmap = Map.Make (struct
    type t = P.receiver

    let compare = P.compare_receiver
  end)

  let intern_mapped (type a) (module M : Map.S with type key = a) : a -> int =
    let m = ref M.empty in
    let n = ref 0 in
    fun v ->
      match M.find_opt v !m with
      | Some id -> id
      | None ->
          let id = !n in
          incr n;
          m := M.add v id !m;
          id

  let intern_sender =
    match P.hash_sender with
    | Some h -> intern_hashed h (fun a b -> P.compare_sender a b = 0)
    | None -> intern_mapped (module Smap)

  let intern_receiver =
    match P.hash_receiver with
    | Some h -> intern_hashed h (fun a b -> P.compare_receiver a b = 0)
    | None -> intern_mapped (module Rmap)

  let pkts = Pvec.Index.create ()

  type config = {
    sender : P.sender;
    sid : int;
    receiver : P.receiver;
    rid : int;
    tr : Pvec.t;
    rt : Pvec.t;
    submitted : int;
    delivered : int;
  }

  (* Transition memo tables keyed on interned ids.  Spec transition
     functions are pure, so each distinct (state, input) pair is computed
     — and its result state interned — exactly once; afterwards a
     successor state costs one small-int table probe instead of a
     protocol call plus a structural hash.  (For instrumented specs that
     record exceptions, e.g. the linter's partiality probe, this means
     each distinct failing pair is recorded once rather than once per
     visit.) *)
  let memo tbl key f =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
        let v = f () in
        Hashtbl.add tbl key v;
        v

  let submit_memo : (int, P.sender * int) Hashtbl.t = Hashtbl.create 256
  let spoll_memo : (int, int option * P.sender * int) Hashtbl.t = Hashtbl.create 256
  let rpoll_memo : (int, Spec.remit option * P.receiver * int) Hashtbl.t = Hashtbl.create 256
  let ack_memo : (int * int, P.sender * int) Hashtbl.t = Hashtbl.create 512
  let data_memo : (int * int, P.receiver * int) Hashtbl.t = Hashtbl.create 512

  (* The id-keyed steps are exposed (alongside the interners and the
     packet index) so sibling analyses over the same interned state space —
     the coverability engine of {!Nfc_absint.Cover} — share these memo
     tables instead of re-running protocol code. *)
  let step_submit s sid =
    memo submit_memo sid (fun () ->
        let s' = P.on_submit s in
        (s', intern_sender s'))

  let step_sender_poll s sid =
    memo spoll_memo sid (fun () ->
        let emit, s' = P.sender_poll s in
        (emit, s', intern_sender s'))

  let step_receiver_poll r rid =
    memo rpoll_memo rid (fun () ->
        let emit, r' = P.receiver_poll r in
        (emit, r', intern_receiver r'))

  let step_ack s sid pkt =
    memo ack_memo (sid, pkt) (fun () ->
        let s' = P.on_ack s pkt in
        (s', intern_sender s'))

  let step_data r rid pkt =
    memo data_memo (rid, pkt) (fun () ->
        let r' = P.on_data r pkt in
        (r', intern_receiver r'))

  let on_submit c = step_submit c.sender c.sid
  let sender_poll c = step_sender_poll c.sender c.sid
  let receiver_poll c = step_receiver_poll c.receiver c.rid
  let on_ack c pkt = step_ack c.sender c.sid pkt
  let on_data c pkt = step_data c.receiver c.rid pkt

  let initial =
    {
      sender = P.sender_init;
      sid = intern_sender P.sender_init;
      receiver = P.receiver_init;
      rid = intern_receiver P.receiver_init;
      tr = Pvec.empty;
      rt = Pvec.empty;
      submitted = 0;
      delivered = 0;
    }

  let assoc_of v =
    List.sort Stdlib.compare
      (Pvec.fold (fun id c acc -> (Pvec.Index.packet pkts id, c) :: acc) v [])

  let packets_tr c = assoc_of c.tr
  let packets_rt c = assoc_of c.rt

  (* The canonical comparator over configurations — the tree-based
     engine's visited-set order, kept for consumers that need a
     BFS-independent total order (boundness probes sample the first
     [max_probes] semi-valid configurations in this order). *)
  let compare_config a b =
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
            (* Sorted (packet, count) association lists compare exactly as
               [Multiset.Int.compare] (bindings in key order) did. *)
            let c = Stdlib.compare (assoc_of a.tr) (assoc_of b.tr) in
            if c <> 0 then c else Stdlib.compare (assoc_of a.rt) (assoc_of b.rt)

  (* O(1) visited-set identity: interned state ids, packed counters, and
     canonical count vectors.  The interners already fell back to the
     comparators on hash collision, so id equality *is* comparator
     equality. *)
  module Chash = struct
    type t = config

    let equal a b =
      a.submitted = b.submitted && a.delivered = b.delivered && a.sid = b.sid
      && a.rid = b.rid && Pvec.equal a.tr b.tr && Pvec.equal a.rt b.rt

    let hash c =
      let h = (c.submitted * 31) + c.delivered in
      let h = (h * 1000003) lxor c.sid in
      let h = (h * 1000003) lxor c.rid in
      let h = (h * 1000003) lxor Pvec.hash c.tr in
      let h = (h * 1000003) lxor Pvec.hash c.rt in
      h land max_int
  end

  module Ctbl = Hashtbl.Make (Chash)

  (* Channel moves on packet [id]: its delivery out of [c]'s channel, and
     its drop when [drop] allows one.  Defined here, not inline in
     [iter_successors], so the per-expansion closures capture four words
     rather than five: that one word per closure moved the stab sweep's
     peak RSS (stab-arq cap 2 plus stop-and-wait, 2-core x86 host) from
     177 to 209 MB through the GC's pacing. *)
  let deliver_tr drop c push id =
    match Pvec.remove_one c.tr id with
    | Some tr' ->
        let pkt = Pvec.Index.packet pkts id in
        let r', rid' = on_data c pkt in
        push
          (Some (Action.Receive_pkt (Action.T_to_r, pkt)))
          { c with receiver = r'; rid = rid'; tr = tr' };
        if drop then push (Some (Action.Drop_pkt (Action.T_to_r, pkt))) { c with tr = tr' }
    | None -> ()

  let deliver_rt drop c push id =
    match Pvec.remove_one c.rt id with
    | Some rt' ->
        let pkt = Pvec.Index.packet pkts id in
        let s', sid' = on_ack c pkt in
        push
          (Some (Action.Receive_pkt (Action.R_to_t, pkt)))
          { c with sender = s'; sid = sid'; rt = rt' };
        if drop then push (Some (Action.Drop_pkt (Action.R_to_t, pkt))) { c with rt = rt' }
    | None -> ()

  (* Successors with the action that labels the move ([None] = silent).
     [deliver_valid_only] gates message delivery on a message actually
     pending — the boundness semantics, which never explores phantom
     branches.  Channel moves are enumerated in increasing packet-value
     order (see {!Pvec.Index.iter_by_value}), so BFS visits configurations
     in exactly the order the tree-based engine did.

     Partial-order reduction ([bounds.por]): over a multiset channel a
     drop commutes with every other move — Drop(d,p); m and m; Drop(d,p)
     reach the same configuration whenever both orders are enabled — and
     deferring a drop only grows the channel, so the only configurations
     a *lazy* dropper cannot reach are those an eager drop unlocked by
     freeing capacity.  Generating Drop moves only when the channel is at
     capacity therefore preserves exactly the station-state/counter
     projections (phantom reachability, packet alphabet, boundness probe
     verdicts); see DESIGN §5.13 for the argument and the Q1 caveat. *)
  let iter_successors ?(deliver_valid_only = false) bounds c push =
    (* User submission. *)
    if c.submitted < bounds.submit_budget then begin
      let s', sid' = on_submit c in
      push (Some (Action.Send_msg c.submitted))
        { c with sender = s'; sid = sid'; submitted = c.submitted + 1 }
    end;
    (* Sender poll: emission or silent tick. *)
    (let emit, s', sid' = sender_poll c in
     match emit with
     | Some pkt ->
         if Pvec.cardinal c.tr < bounds.capacity_tr then
           push
             (Some (Action.Send_pkt (Action.T_to_r, pkt)))
             { c with sender = s'; sid = sid'; tr = Pvec.add c.tr (Pvec.Index.id pkts pkt) }
     | None ->
         (* Interned-id equality is comparator equality, so this is the old
            [P.compare_sender s' c.sender <> 0] silent-tick test. *)
         if sid' <> c.sid then push None { c with sender = s'; sid = sid' });
    (* Receiver poll: delivery, reverse send, or silent tick. *)
    (let emit, r', rid' = receiver_poll c in
     match emit with
     | Some Spec.Rdeliver ->
         if (not deliver_valid_only) || c.delivered < c.submitted then
           push
             (Some (Action.Receive_msg c.delivered))
             { c with receiver = r'; rid = rid'; delivered = c.delivered + 1 }
     | Some (Spec.Rsend pkt) ->
         if Pvec.cardinal c.rt < bounds.capacity_rt then
           push
             (Some (Action.Send_pkt (Action.R_to_t, pkt)))
             { c with receiver = r'; rid = rid'; rt = Pvec.add c.rt (Pvec.Index.id pkts pkt) }
     | None -> if rid' <> c.rid then push None { c with receiver = r'; rid = rid' });
    (* Adversarial channel: deliver any in-transit packet, either direction.
       Drops are unconditional normally, lazy (at-capacity only) under POR. *)
    let drop_tr =
      bounds.allow_drop && ((not bounds.por) || Pvec.cardinal c.tr >= bounds.capacity_tr)
    in
    let drop_rt =
      bounds.allow_drop && ((not bounds.por) || Pvec.cardinal c.rt >= bounds.capacity_rt)
    in
    Pvec.Index.iter_by_value pkts (fun id -> deliver_tr drop_tr c push id);
    Pvec.Index.iter_by_value pkts (fun id -> deliver_rt drop_rt c push id)

  let successors ?deliver_valid_only bounds c =
    let moves = ref [] in
    iter_successors ?deliver_valid_only bounds c (fun act c' ->
        moves := (act, c') :: !moves);
    List.rev !moves

  (* Visited-table sizing: scale with the node budget (the table's true
     eventual population) instead of a fixed 4096, capped so absurd
     budgets don't pre-allocate gigabytes; [size_hint] overrides when the
     caller knows better (e.g. re-running a protocol whose reach is
     known). *)
  let visited_size ?size_hint bounds =
    match size_hint with
    | Some n -> max 16 n
    | None -> max 1024 (min bounds.max_nodes 1_048_576)

  (* Station-state tallies hold distinct *states*, not configurations:
     scale mildly with the visited size. *)
  let state_tbl_size sz = max 256 (min 4096 (sz / 64))

  let default_checkpoint () = ()

  type reach = {
    configs : config list;
    truncated : bool;
    reach_stats : stats;
    first_phantom : int option;
    phantom_in_budget : bool;
  }

  (* The reachable set itself, in BFS order, for consumers that need the
     configurations and not just a counterexample search: the linter walks
     it to certify header budgets, probe input-enabledness and detect dead
     configurations; boundness measurement reuses it with
     [~deliver_valid_only:true].  [from_configs] is the general form, seeded
     from a caller-given configuration list (the self-stabilization tier's
     corrupted starts, {!Nfc_stab.Converge}): seeds are visited at depth 0
     in caller order, deduplicated; [reachable_set] seeds [initial].

     The sweep also scans for phantom deliveries as it generates
     successors.  [first_phantom] is the action count of the first move
     (in BFS generation order — exactly the move {!search} stops at) that
     produces a configuration with [delivered > submitted], [None] when no
     expansion anywhere produced one.  [first_phantom = None] certifies
     that the ungated and delivery-gated successor graphs coincide on this
     exploration: every delivery taken had a message pending, so a gated
     traversal would make the identical moves — {!Boundness} exploits this
     to skip its own gated pass.  [phantom_in_budget] tells whether the
     phantom move was generated before the point where {!search} would
     have exhausted its node budget, i.e. whether [search] would have
     returned [Violation] rather than [Node_budget]. *)
  let from_configs ?deliver_valid_only ?size_hint ?(checkpoint = default_checkpoint) ~seeds
      bounds =
    let sz = visited_size ?size_hint bounds in
    let visited = Ctbl.create sz in
    let senders = Hashtbl.create (state_tbl_size sz) in
    let receivers = Hashtbl.create (state_tbl_size sz) in
    let order = ref [] in
    let n_visited = ref 0 in
    let max_depth = ref 0 in
    let truncated = ref false in
    let first_phantom = ref None in
    let phantom_in_budget = ref false in
    let scan_in_budget = ref true in
    let ticks = ref 0 in
    let queue : (config * int * int) Queue.t = Queue.create () in
    let visit cfg depth acts =
      if not (Ctbl.mem visited cfg) then
        if !n_visited >= bounds.max_nodes then truncated := true
        else begin
          Ctbl.add visited cfg ();
          incr n_visited;
          order := cfg :: !order;
          Hashtbl.replace senders cfg.sid ();
          Hashtbl.replace receivers cfg.rid ();
          if depth > !max_depth then max_depth := depth;
          Queue.push (cfg, depth, acts) queue
        end
    in
    List.iter (fun c -> visit c 0 0) seeds;
    while not (Queue.is_empty queue) do
      let cfg, depth, acts = Queue.pop queue in
      incr ticks;
      if !ticks land 2047 = 0 then checkpoint ();
      (* [search] exits at the first dequeue past the node budget; phantoms
         generated beyond that point are real but budget-invisible. *)
      if !n_visited >= bounds.max_nodes then scan_in_budget := false;
      iter_successors ?deliver_valid_only bounds cfg (fun act cfg' ->
          let acts' = acts + (match act with Some _ -> 1 | None -> 0) in
          if !first_phantom = None && cfg'.delivered > cfg'.submitted then begin
            first_phantom := Some acts';
            phantom_in_budget := !scan_in_budget
          end;
          visit cfg' (depth + 1) acts')
    done;
    {
      configs = List.rev !order;
      truncated = !truncated;
      reach_stats =
        {
          nodes = !n_visited;
          sender_states = Hashtbl.length senders;
          receiver_states = Hashtbl.length receivers;
          max_depth = !max_depth;
        };
      first_phantom = !first_phantom;
      phantom_in_budget = !phantom_in_budget;
    }

  let reachable_set ?deliver_valid_only ?size_hint ?checkpoint bounds =
    from_configs ?deliver_valid_only ?size_hint ?checkpoint ~seeds:[ initial ] bounds

  type node = { cfg : config; parent : int; act : Action.t option; depth : int }

  let search ?(stop_at_phantom = true) ?size_hint ?(checkpoint = default_checkpoint) bounds =
    let nodes : node array ref =
      ref (Array.make 1024 { cfg = initial; parent = -1; act = None; depth = 0 })
    in
    let n_nodes = ref 0 in
    let add_node node =
      if !n_nodes >= Array.length !nodes then begin
        let bigger = Array.make (2 * Array.length !nodes) node in
        Array.blit !nodes 0 bigger 0 !n_nodes;
        nodes := bigger
      end;
      !nodes.(!n_nodes) <- node;
      incr n_nodes;
      !n_nodes - 1
    in
    let sz = visited_size ?size_hint bounds in
    let visited = Ctbl.create sz in
    let senders = Hashtbl.create (state_tbl_size sz) in
    let receivers = Hashtbl.create (state_tbl_size sz) in
    let n_visited = ref 0 in
    let max_depth = ref 0 in
    let ticks = ref 0 in
    let queue = Queue.create () in
    let visit cfg parent act depth =
      if not (Ctbl.mem visited cfg) then begin
        Ctbl.add visited cfg ();
        incr n_visited;
        Hashtbl.replace senders cfg.sid ();
        Hashtbl.replace receivers cfg.rid ();
        if depth > !max_depth then max_depth := depth;
        let idx = add_node { cfg; parent; act; depth } in
        Queue.push idx queue
      end
    in
    let path_to idx =
      let rec go idx acc =
        if idx < 0 then acc
        else
          let node = !nodes.(idx) in
          let acc = match node.act with None -> acc | Some a -> a :: acc in
          go node.parent acc
      in
      go idx []
    in
    visit initial (-1) None 0;
    let result = ref None in
    (try
       while not (Queue.is_empty queue) do
         if !n_visited >= bounds.max_nodes then raise Exit;
         let idx = Queue.pop queue in
         incr ticks;
         if !ticks land 2047 = 0 then checkpoint ();
         let node = !nodes.(idx) in
         iter_successors bounds node.cfg (fun act cfg' ->
             (* Phantom delivery: more receive_msg than send_msg. *)
             if stop_at_phantom && cfg'.delivered > cfg'.submitted then begin
               let prefix = path_to idx in
               let final = match act with Some a -> [ a ] | None -> [] in
               result := Some (prefix @ final);
               raise Exit
             end;
             visit cfg' idx act (node.depth + 1))
       done
     with Exit -> ());
    let stats =
      {
        nodes = !n_visited;
        sender_states = Hashtbl.length senders;
        receiver_states = Hashtbl.length receivers;
        max_depth = !max_depth;
      }
    in
    match !result with
    | Some trace -> Violation trace
    | None -> if !n_visited >= bounds.max_nodes then Node_budget stats else No_violation stats

  type replay_outcome =
    | Replay_refuted of Execution.t * config * stats
    | Replay_upheld of stats * bool

  (* Concrete replay of a state predicate, used by the refinement layer
     to decide whether an abstract witness is real.  BFS over the gated
     ([deliver_valid_only] defaults to [true], matching the boundness
     semantics the static tier certifies) successor graph, checking
     [monitor] on every configuration in BFS generation order — so a
     refutation comes with a shortest witness trace.  [Replay_upheld (_, truncated)]
     with [truncated = true] means the node budget was exhausted before
     the frontier drained: the predicate held on everything explored but
     is not certified. *)
  let replay_monitor ?(deliver_valid_only = true) ?size_hint
      ?(checkpoint = default_checkpoint) ~(monitor : config -> bool) bounds =
    let nodes : node array ref =
      ref (Array.make 1024 { cfg = initial; parent = -1; act = None; depth = 0 })
    in
    let n_nodes = ref 0 in
    let add_node node =
      if !n_nodes >= Array.length !nodes then begin
        let bigger = Array.make (2 * Array.length !nodes) node in
        Array.blit !nodes 0 bigger 0 !n_nodes;
        nodes := bigger
      end;
      !nodes.(!n_nodes) <- node;
      incr n_nodes;
      !n_nodes - 1
    in
    let sz = visited_size ?size_hint bounds in
    let visited = Ctbl.create sz in
    let senders = Hashtbl.create (state_tbl_size sz) in
    let receivers = Hashtbl.create (state_tbl_size sz) in
    let n_visited = ref 0 in
    let max_depth = ref 0 in
    let ticks = ref 0 in
    let truncated = ref false in
    let queue = Queue.create () in
    let visit cfg parent act depth =
      if not (Ctbl.mem visited cfg) then begin
        Ctbl.add visited cfg ();
        incr n_visited;
        Hashtbl.replace senders cfg.sid ();
        Hashtbl.replace receivers cfg.rid ();
        if depth > !max_depth then max_depth := depth;
        let idx = add_node { cfg; parent; act; depth } in
        Queue.push idx queue
      end
    in
    let path_to idx =
      let rec go idx acc =
        if idx < 0 then acc
        else
          let node = !nodes.(idx) in
          let acc = match node.act with None -> acc | Some a -> a :: acc in
          go node.parent acc
      in
      go idx []
    in
    let result = ref None in
    visit initial (-1) None 0;
    if not (monitor initial) then result := Some ([], initial);
    (try
       if Option.is_some !result then raise Exit;
       while not (Queue.is_empty queue) do
         if !n_visited >= bounds.max_nodes then begin
           truncated := true;
           raise Exit
         end;
         let idx = Queue.pop queue in
         incr ticks;
         if !ticks land 2047 = 0 then checkpoint ();
         let node = !nodes.(idx) in
         iter_successors ~deliver_valid_only bounds node.cfg (fun act cfg' ->
             if (not (Ctbl.mem visited cfg')) && not (monitor cfg') then begin
               let prefix = path_to idx in
               let final = match act with Some a -> [ a ] | None -> [] in
               result := Some (prefix @ final, cfg');
               raise Exit
             end;
             visit cfg' idx act (node.depth + 1))
       done
     with Exit -> ());
    let stats =
      {
        nodes = !n_visited;
        sender_states = Hashtbl.length senders;
        receiver_states = Hashtbl.length receivers;
        max_depth = !max_depth;
      }
    in
    match !result with
    | Some (trace, cfg) -> Replay_refuted (trace, cfg, stats)
    | None -> Replay_upheld (stats, !truncated)

  (* Liveness: explore the graph fully (within budget), then propagate
     "can eventually deliver" backwards.  A semi-valid configuration not
     reached by the propagation is wedged.  Unexpanded (frontier) nodes
     are conservatively assumed able to deliver.

     Runs POR-off regardless of [bounds.por]: lazy dropping preserves
     phantom reachability and all station-state projections, but *not*
     the wedged-configuration analysis — a wedge reachable only through
     an early (sub-capacity) drop would be missed, and conversely POR's
     sparser move relation could make a configuration look wedged whose
     escape is an early drop.  See DESIGN §5.13. *)
  let find_wedge_search ?size_hint ?(checkpoint = default_checkpoint) bounds =
    let bounds = { bounds with por = false } in
    let nodes = ref [||] in
    let n_nodes = ref 0 in
    let sz = visited_size ?size_hint bounds in
    let index = Ctbl.create sz in
    let parents = ref [||] in
    let parent_act = ref [||] in
    let preds : int list array ref = ref [||] in
    let expanded = ref [||] in
    let delivery_enabled = ref [||] in
    let grow () =
      let len = max 1024 (2 * Array.length !nodes) in
      let resize a mk =
        let bigger = Array.make len mk in
        Array.blit a 0 bigger 0 !n_nodes;
        bigger
      in
      nodes := resize !nodes initial;
      parents := resize !parents (-1);
      parent_act := resize !parent_act None;
      preds := resize !preds [];
      expanded := resize !expanded false;
      delivery_enabled := resize !delivery_enabled false
    in
    let add cfg parent act =
      match Ctbl.find_opt index cfg with
      | Some id ->
          if parent >= 0 then !preds.(id) <- parent :: !preds.(id);
          None
      | None ->
          if !n_nodes >= Array.length !nodes then grow ();
          let id = !n_nodes in
          incr n_nodes;
          !nodes.(id) <- cfg;
          !parents.(id) <- parent;
          !parent_act.(id) <- act;
          if parent >= 0 then !preds.(id) <- parent :: !preds.(id);
          Ctbl.add index cfg id;
          Some id
    in
    let ticks = ref 0 in
    let queue = Queue.create () in
    (match add initial (-1) None with Some id -> Queue.push id queue | None -> ());
    (try
       while not (Queue.is_empty queue) do
         if !n_nodes >= bounds.max_nodes then raise Exit;
         let id = Queue.pop queue in
         incr ticks;
         if !ticks land 2047 = 0 then checkpoint ();
         !expanded.(id) <- true;
         iter_successors bounds !nodes.(id) (fun act cfg' ->
             (match act with
             | Some (Action.Receive_msg _) -> !delivery_enabled.(id) <- true
             | _ -> ());
             match add cfg' id act with
             | Some id' -> Queue.push id' queue
             | None -> ())
       done
     with Exit -> ());
    (* Backward propagation of "good" (can eventually deliver). *)
    let good = Array.make !n_nodes false in
    let work = Queue.create () in
    for id = 0 to !n_nodes - 1 do
      if !delivery_enabled.(id) || not !expanded.(id) then begin
        good.(id) <- true;
        Queue.push id work
      end
    done;
    while not (Queue.is_empty work) do
      let id = Queue.pop work in
      List.iter
        (fun p ->
          if not good.(p) then begin
            good.(p) <- true;
            Queue.push p work
          end)
        !preds.(id)
    done;
    (* Shortest wedged semi-valid configuration = first in BFS order. *)
    let wedged = ref None in
    (try
       for id = 0 to !n_nodes - 1 do
         let c = !nodes.(id) in
         if (not good.(id)) && c.submitted > c.delivered && !expanded.(id) then begin
           wedged := Some id;
           raise Exit
         end
       done
     with Exit -> ());
    let stats = { nodes = !n_nodes; sender_states = 0; receiver_states = 0; max_depth = 0 } in
    match !wedged with
    | None -> No_wedge stats
    | Some id ->
        let rec path id acc =
          if id < 0 then acc
          else
            let acc = match !parent_act.(id) with None -> acc | Some a -> a :: acc in
            path !parents.(id) acc
        in
        Wedged (path id [], stats)
end

let find_phantom (proto : Spec.t) bounds =
  let module P = (val proto) in
  let module E = Make (P) in
  E.search ~stop_at_phantom:true bounds

let reachable (proto : Spec.t) bounds =
  let module P = (val proto) in
  let module E = Make (P) in
  match E.search ~stop_at_phantom:false bounds with
  | Violation _ -> assert false
  | No_violation s | Node_budget s -> s

let find_wedge (proto : Spec.t) bounds =
  let module P = (val proto) in
  let module E = Make (P) in
  E.find_wedge_search bounds
