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

  (* The explored graph.  Ids are dense and in BFS order, so the queue is
     the id range [expanded, count) and "expanded" is [id < expanded].
     [acts] counts the labelled moves on the BFS-tree path to each id;
     parent links and predecessor lists are allocated only when asked
     for (empty arrays otherwise). *)
  type graph = {
    mutable nodes : config array;
    mutable count : int;
    mutable expanded : int;
    index : int Ctbl.t;
    mutable acts : int array;
    keep_parents : bool;
    mutable parent : int array;
    mutable label : Action.t option array;
    keep_preds : bool;
    mutable preds : int list array;
    senders : (int, unit) Hashtbl.t;
    receivers : (int, unit) Hashtbl.t;
    mutable max_depth : int;
    mutable truncated : bool;
  }

  (* The arrays start small and double: many explorations (small specs
     in the service, refinement replays) hold a few dozen
     configurations, and an array past 256 words is allocated in the
     major heap.  With a 1024 start the serve-mixed benchmark's p90
     latency read 3% and 14% above the parent's in two batches of
     three runs; with 64 it reads the same. *)
  let create_graph ~parents ~preds sz =
    let len = 64 in
    {
      nodes = Array.make len initial;
      count = 0;
      expanded = 0;
      index = Ctbl.create sz;
      acts = Array.make len 0;
      keep_parents = parents;
      parent = (if parents then Array.make len (-1) else [||]);
      label = (if parents then Array.make len None else [||]);
      keep_preds = preds;
      preds = (if preds then Array.make len [] else [||]);
      senders = Hashtbl.create (state_tbl_size sz);
      receivers = Hashtbl.create (state_tbl_size sz);
      max_depth = 0;
      truncated = false;
    }

  let grow g =
    let len = 2 * Array.length g.nodes in
    let resize a fill =
      if Array.length a = 0 then a
      else begin
        let b = Array.make len fill in
        Array.blit a 0 b 0 g.count;
        b
      end
    in
    g.nodes <- resize g.nodes initial;
    g.acts <- resize g.acts 0;
    g.parent <- resize g.parent (-1);
    g.label <- resize g.label None;
    g.preds <- resize g.preds []

  let insert g ~cap src act depth c =
    if g.count >= cap then g.truncated <- true
    else begin
      if g.count = Array.length g.nodes then grow g;
      let id = g.count in
      g.count <- id + 1;
      g.nodes.(id) <- c;
      Ctbl.add g.index c id;
      g.acts.(id) <- (if src < 0 then 0 else g.acts.(src) + Bool.to_int (Option.is_some act));
      if g.keep_parents then begin
        g.parent.(id) <- src;
        g.label.(id) <- act
      end;
      if g.keep_preds && src >= 0 then g.preds.(id) <- [ src ];
      Hashtbl.replace g.senders c.sid ();
      Hashtbl.replace g.receivers c.rid ();
      if depth > g.max_depth then g.max_depth <- depth
    end

  (* [c] reached from [src] ([-1] for a seed): a predecessor is recorded
     whether or not [c] is new.  Without predecessor lists a hit needs no
     id, so the lookup is the exception-free [mem]. *)
  let visit g ~cap src act depth c =
    if not g.keep_preds then begin
      if not (Ctbl.mem g.index c) then insert g ~cap src act depth c
    end
    else
      match Ctbl.find g.index c with
      | id -> if src >= 0 then g.preds.(id) <- src :: g.preds.(id)
      | exception Not_found -> insert g ~cap src act depth c

  exception Stop

  (* The one breadth-first loop.  Two budget rules, each an integer:
     [cap] rejects new configurations once [cap] are held (setting
     [truncated]) but drains the queue, so every held configuration is
     expanded; [stop] ends the search at the first dequeue that finds
     [stop] or more configurations held (setting [truncated] when the
     queue was not empty), so the last expansion may overshoot.
     [on_edge g src act c] sees every move in generation order, before
     [c] is inserted, and stops the search by returning [true]. *)
  let explore ?deliver_valid_only ?size_hint ?(checkpoint = ignore) ?(parents = false)
      ?(preds = false) ?(on_edge = fun _ _ _ _ -> false) ~cap ~stop ~seeds bounds =
    let g = create_graph ~parents ~preds (visited_size ?size_hint bounds) in
    List.iter (visit g ~cap (-1) None 0) seeds;
    let depth = ref 0 and level_end = ref g.count in
    let push act c =
      let src = g.expanded - 1 in
      if on_edge g src act c then raise_notrace Stop;
      visit g ~cap src act (!depth + 1) c
    in
    (try
       while g.expanded < g.count do
         if g.count >= stop then begin
           g.truncated <- true;
           raise_notrace Stop
         end;
         let src = g.expanded in
         if src = !level_end then begin
           incr depth;
           level_end := g.count
         end;
         g.expanded <- src + 1;
         if (src + 1) land 2047 = 0 then checkpoint ();
         iter_successors ?deliver_valid_only bounds g.nodes.(src) push
       done
     with Stop -> ());
    g

  let size g = g.count
  let node g id = g.nodes.(id)
  let find g c = Ctbl.find_opt g.index c
  let truncated g = g.truncated

  let graph_stats g =
    {
      nodes = g.count;
      sender_states = Hashtbl.length g.senders;
      receiver_states = Hashtbl.length g.receivers;
      max_depth = g.max_depth;
    }

  let path_to g id =
    let rec go id acc =
      if id < 0 then acc
      else go g.parent.(id) (match g.label.(id) with None -> acc | Some a -> a :: acc)
    in
    go id []

  (* Multi-source backward BFS over the predecessor lists: the distance
     from each id to the nearest [source] id ([max_int] when none is
     reachable within the graph). *)
  let distances_to g source =
    let dist = Array.make g.count max_int in
    let q = Queue.create () in
    for id = 0 to g.count - 1 do
      if source id then begin
        dist.(id) <- 0;
        Queue.add id q
      end
    done;
    while not (Queue.is_empty q) do
      let j = Queue.pop q in
      List.iter
        (fun i ->
          if dist.(i) = max_int then begin
            dist.(i) <- dist.(j) + 1;
            Queue.add i q
          end)
        g.preds.(j)
    done;
    dist

  let final act = match act with Some a -> [ a ] | None -> []

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
     [~deliver_valid_only:true].  Seeds are visited at depth 0 in caller
     order, deduplicated; [reachable_set] seeds [initial].

     The sweep also scans for phantom deliveries as it generates
     successors.  [first_phantom] is the action count of the first move
     (in BFS generation order — exactly the move {!search} stops at) that
     produces a configuration with [delivered > submitted].  [search]
     stops at the first dequeue past the node budget, so
     [phantom_in_budget] records whether the move's source was dequeued
     with fewer than [max_nodes] configurations held: its first move is
     seen before any of its children is inserted. *)
  let from_configs ?deliver_valid_only ?size_hint ?checkpoint ~seeds bounds =
    let first_phantom = ref None and phantom_in_budget = ref false in
    let scanned = ref (-1) and in_budget = ref true in
    let on_edge g src act c =
      if !first_phantom = None then begin
        if src <> !scanned then begin
          scanned := src;
          in_budget := g.count < bounds.max_nodes
        end;
        if c.delivered > c.submitted then begin
          first_phantom := Some (g.acts.(src) + Bool.to_int (Option.is_some act));
          phantom_in_budget := !in_budget
        end
      end;
      false
    in
    let g =
      explore ?deliver_valid_only ?size_hint ?checkpoint ~on_edge ~cap:bounds.max_nodes
        ~stop:max_int ~seeds bounds
    in
    let rec configs id acc = if id < 0 then acc else configs (id - 1) (g.nodes.(id) :: acc) in
    {
      configs = configs (g.count - 1) [];
      truncated = g.truncated;
      reach_stats = graph_stats g;
      first_phantom = !first_phantom;
      phantom_in_budget = !phantom_in_budget;
    }

  let reachable_set ?deliver_valid_only ?size_hint ?checkpoint bounds =
    from_configs ?deliver_valid_only ?size_hint ?checkpoint ~seeds:[ initial ] bounds

  let search ?(stop_at_phantom = true) ?size_hint ?checkpoint bounds =
    let violation = ref None in
    let on_edge g src act c =
      (* Phantom delivery: more receive_msg than send_msg. *)
      stop_at_phantom && c.delivered > c.submitted
      && begin
           violation := Some (path_to g src @ final act);
           true
         end
    in
    let g =
      explore ?size_hint ?checkpoint ~parents:stop_at_phantom ~on_edge ~cap:max_int
        ~stop:bounds.max_nodes ~seeds:[ initial ] bounds
    in
    match !violation with
    | Some trace -> Violation trace
    | None ->
        if g.count >= bounds.max_nodes then Node_budget (graph_stats g)
        else No_violation (graph_stats g)

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
  let replay_monitor ?(deliver_valid_only = true) ?size_hint ?checkpoint
      ~(monitor : config -> bool) bounds =
    if not (monitor initial) then
      Replay_refuted
        ([], initial, { nodes = 1; sender_states = 1; receiver_states = 1; max_depth = 0 })
    else begin
      let refuted = ref None in
      let on_edge g src act c =
        (not (Ctbl.mem g.index c))
        && (not (monitor c))
        && begin
             refuted := Some (path_to g src @ final act, c);
             true
           end
      in
      let g =
        explore ~deliver_valid_only ?size_hint ?checkpoint ~parents:true ~on_edge ~cap:max_int
          ~stop:bounds.max_nodes ~seeds:[ initial ] bounds
      in
      match !refuted with
      | Some (trace, c) -> Replay_refuted (trace, c, graph_stats g)
      | None -> Replay_upheld (graph_stats g, g.truncated)
    end

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
  let find_wedge_search ?size_hint ?checkpoint bounds =
    let bounds = { bounds with por = false } in
    let deliverers = ref [] in
    let on_edge _ src act _ =
      (match act with Some (Action.Receive_msg _) -> deliverers := src :: !deliverers | _ -> ());
      false
    in
    let g =
      explore ?size_hint ?checkpoint ~parents:true ~preds:true ~on_edge ~cap:max_int
        ~stop:bounds.max_nodes ~seeds:[ initial ] bounds
    in
    let delivers = Array.make g.count false in
    List.iter (fun id -> delivers.(id) <- true) !deliverers;
    let dist = distances_to g (fun id -> delivers.(id) || id >= g.expanded) in
    (* Shortest wedged semi-valid configuration = first in BFS order. *)
    let rec wedged id =
      if id >= g.expanded then None
      else
        let c = g.nodes.(id) in
        if dist.(id) = max_int && c.submitted > c.delivered then Some id else wedged (id + 1)
    in
    match wedged 0 with
    | None -> No_wedge (graph_stats g)
    | Some id -> Wedged (path_to g id, graph_stats g)
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
