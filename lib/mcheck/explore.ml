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

  (* Grow the array in [a] so that index [i] is valid, doubling; new
     slots hold [fill]. *)
  let reserve a i fill =
    let old = !a in
    if i >= Array.length old then begin
      let b = Array.make (max (i + 1) (2 * Array.length old)) fill in
      Array.blit old 0 b 0 (Array.length old);
      a := b
    end

  (* [row rows i j fill]: row [i] of [rows], grown to cover index [j].
     Rows are allocated on first use and sized to the packet alphabet
     seen so far, not eagerly: refine and serve instantiate many small
     engines. *)
  let row rows i j fill =
    reserve rows i [||];
    let r = !rows.(i) in
    if j < Array.length r then r
    else begin
      let r' = Array.make (max (j + 1) (Pvec.Index.size pkts)) fill in
      Array.blit r 0 r' 0 (Array.length r);
      !rows.(i) <- r';
      r'
    end

  (* Channel contents interned into dense ids.  Under the capacity
     bounds there are a few hundred distinct multisets, so a
     configuration stores two small ints and every channel move is a
     memo read: [add_rows.(ch).(p)] is the id of [ch] plus one packet
     [p], [remove_rows.(ch).(p)] the id of [ch] minus one [p] ([-1] when
     [p] is absent, [-2] not yet computed). *)
  module Ptbl = Hashtbl.Make (struct
    type t = Pvec.t

    let equal = Pvec.equal
    let hash = Pvec.hash
  end)

  let chan_ids : int Ptbl.t = Ptbl.create 64
  let chans = ref (Array.make 16 Pvec.empty)
  let cards = ref (Array.make 16 0)
  let add_rows : int array array ref = ref (Array.make 16 [||])
  let remove_rows : int array array ref = ref (Array.make 16 [||])

  let chan_of_pvec v =
    match Ptbl.find_opt chan_ids v with
    | Some ch -> ch
    | None ->
        let ch = Ptbl.length chan_ids in
        Ptbl.add chan_ids v ch;
        reserve chans ch Pvec.empty;
        !chans.(ch) <- v;
        reserve cards ch 0;
        !cards.(ch) <- Pvec.cardinal v;
        ch

  let chan ch = !chans.(ch)
  let chan_card ch = !cards.(ch)
  let chan_empty = chan_of_pvec Pvec.empty

  let chan_add ch p =
    let rows = !add_rows in
    let r = if ch < Array.length rows then rows.(ch) else [||] in
    if p < Array.length r && r.(p) >= 0 then r.(p)
    else begin
      let ch' = chan_of_pvec (Pvec.add (chan ch) p) in
      (row add_rows ch p (-1)).(p) <- ch';
      ch'
    end

  let chan_remove ch p =
    let rows = !remove_rows in
    let r = if ch < Array.length rows then rows.(ch) else [||] in
    if p < Array.length r && r.(p) > -2 then r.(p)
    else begin
      let ch' =
        match Pvec.remove_one (chan ch) p with Some v -> chan_of_pvec v | None -> -1
      in
      (row remove_rows ch p (-2)).(p) <- ch';
      ch'
    end

  type config = {
    sender : P.sender;
    sid : int;
    receiver : P.receiver;
    rid : int;
    tr : int;
    rt : int;
    submitted : int;
    delivered : int;
  }

  (* Transition memos: dense arrays indexed by interned station id (and,
     for inputs, rows indexed by packet id).  Spec transition functions
     are pure, so each distinct (state, input) pair is computed — and its
     result state interned — exactly once; afterwards a successor state
     costs two array reads and returns the stored tuple, allocating
     nothing.  An entry whose id is [-1] is not yet computed.  (For
     instrumented specs that record exceptions, e.g. the linter's
     partiality probe, each distinct failing pair is recorded once rather
     than once per visit.) *)
  let no_s = (P.sender_init, -1)
  let no_r = (P.receiver_init, -1)
  let no_spoll = (None, P.sender_init, -1)
  let no_rpoll = (None, P.receiver_init, -1)
  let submit_memo = ref (Array.make 16 no_s)
  let spoll_memo = ref (Array.make 16 no_spoll)
  let rpoll_memo = ref (Array.make 16 no_rpoll)
  let ack_memo : (P.sender * int) array array ref = ref (Array.make 16 [||])
  let data_memo : (P.receiver * int) array array ref = ref (Array.make 16 [||])

  let store memo i none v =
    reserve memo i none;
    !memo.(i) <- v;
    v

  (* The id-keyed steps are exposed (alongside the interners and the
     packet index) so sibling analyses over the same interned state space —
     the coverability engine of {!Nfc_absint.Cover} — share these memo
     tables instead of re-running protocol code. *)
  let step_submit s sid =
    let m = !submit_memo in
    if sid < Array.length m && snd m.(sid) >= 0 then m.(sid)
    else
      let s' = P.on_submit s in
      store submit_memo sid no_s (s', intern_sender s')

  let step_sender_poll s sid =
    let m = !spoll_memo in
    match if sid < Array.length m then m.(sid) else no_spoll with
    | (_, _, id) as v when id >= 0 -> v
    | _ ->
        let emit, s' = P.sender_poll s in
        store spoll_memo sid no_spoll (emit, s', intern_sender s')

  let step_receiver_poll r rid =
    let m = !rpoll_memo in
    match if rid < Array.length m then m.(rid) else no_rpoll with
    | (_, _, id) as v when id >= 0 -> v
    | _ ->
        let emit, r' = P.receiver_poll r in
        store rpoll_memo rid no_rpoll (emit, r', intern_receiver r')

  let step_ack_id s sid p =
    let rows = !ack_memo in
    let r = if sid < Array.length rows then rows.(sid) else [||] in
    if p < Array.length r && snd r.(p) >= 0 then r.(p)
    else begin
      let s' = P.on_ack s (Pvec.Index.packet pkts p) in
      let v = (s', intern_sender s') in
      (row ack_memo sid p no_s).(p) <- v;
      v
    end

  let step_data_id r rid p =
    let rows = !data_memo in
    let m = if rid < Array.length rows then rows.(rid) else [||] in
    if p < Array.length m && snd m.(p) >= 0 then m.(p)
    else begin
      let r' = P.on_data r (Pvec.Index.packet pkts p) in
      let v = (r', intern_receiver r') in
      (row data_memo rid p no_r).(p) <- v;
      v
    end

  let step_ack s sid pkt = step_ack_id s sid (Pvec.Index.id pkts pkt)
  let step_data r rid pkt = step_data_id r rid (Pvec.Index.id pkts pkt)

  (* Move labels are shared, not rebuilt per edge: per packet id the six
     channel labels, per counter value the message labels. *)
  type labels = {
    send_tr : Action.t option;
    send_rt : Action.t option;
    recv_tr : Action.t option;
    recv_rt : Action.t option;
    drop_tr : Action.t option;
    drop_rt : Action.t option;
  }

  let pkt_labels = ref [||]

  let labels p =
    let ls = !pkt_labels in
    if p < Array.length ls then ls.(p)
    else begin
      let make p =
        let v = Pvec.Index.packet pkts p in
        Action.
          {
            send_tr = Some (Send_pkt (T_to_r, v));
            send_rt = Some (Send_pkt (R_to_t, v));
            recv_tr = Some (Receive_pkt (T_to_r, v));
            recv_rt = Some (Receive_pkt (R_to_t, v));
            drop_tr = Some (Drop_pkt (T_to_r, v));
            drop_rt = Some (Drop_pkt (R_to_t, v));
          }
      in
      pkt_labels :=
        Array.init (Pvec.Index.size pkts) (fun i -> if i < Array.length ls then ls.(i) else make i);
      !pkt_labels.(p)
    end

  let msg_label memo act n =
    let m = !memo in
    match if n < Array.length m then m.(n) else None with
    | Some _ as l -> l
    | None -> store memo n None (Some (act n))

  let send_msg_labels = ref [||]
  let receive_msg_labels = ref [||]

  (* Interned id of the packet a station's poll emits, filled on the
     first emission that fits the channel — the moment the packet was
     always first interned, so packet ids keep their discovery order.
     [-1]: not yet known. *)
  let spoll_pkt = ref [||]
  let rpoll_pkt = ref [||]

  let emitted memo id pkt =
    let m = !memo in
    if id < Array.length m && m.(id) >= 0 then m.(id)
    else store memo id (-1) (Pvec.Index.id pkts pkt)

  let initial =
    {
      sender = P.sender_init;
      sid = intern_sender P.sender_init;
      receiver = P.receiver_init;
      rid = intern_receiver P.receiver_init;
      tr = chan_empty;
      rt = chan_empty;
      submitted = 0;
      delivered = 0;
    }

  let assoc_of ch =
    List.sort Stdlib.compare
      (Pvec.fold (fun id c acc -> (Pvec.Index.packet pkts id, c) :: acc) (chan ch) [])

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

  (* O(1) visited-set identity: six int compares.  The interners fall
     back to the comparators on hash collision, so state-id equality
     *is* comparator equality, and channel ids are canonical. *)
  module Chash = struct
    type t = config

    let equal a b =
      a.tr = b.tr && a.rt = b.rt && a.sid = b.sid && a.rid = b.rid
      && a.submitted = b.submitted && a.delivered = b.delivered

    (* Multiply-xor mixing, then a fold of the high bits into the low
       ones: [Hashtbl] buckets on the low bits, and every input here is
       a small int. *)
    let hash c =
      let h = (c.submitted * 31) + c.delivered in
      let h = (h * 1000003) lxor c.sid in
      let h = (h * 1000003) lxor c.rid in
      let h = (h * 1000003) lxor c.tr in
      let h = (h * 1000003) lxor c.rt in
      let h = h * 0x2545F4914F6CDD1D in
      (h lxor (h lsr 29)) land max_int
  end

  module Ctbl = Hashtbl.Make (Chash)

  (* Successors with the action that labels the move ([None] = silent).
     [deliver_valid_only] gates message delivery on a message actually
     pending — the boundness semantics, which never explores phantom
     branches.  Channel moves are enumerated in increasing packet-value
     order (see {!Pvec.Index.nth_by_value}), so BFS visits configurations
     in exactly the order the tree-based engine did.  Beyond the
     successor records, the loop allocates nothing: steps, channel moves
     and labels are memo reads.

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
      let s', sid' = step_submit c.sender c.sid in
      push
        (msg_label send_msg_labels (fun n -> Action.Send_msg n) c.submitted)
        { c with sender = s'; sid = sid'; submitted = c.submitted + 1 }
    end;
    (* Sender poll: emission or silent tick. *)
    (let emit, s', sid' = step_sender_poll c.sender c.sid in
     match emit with
     | Some pkt ->
         if chan_card c.tr < bounds.capacity_tr then begin
           let p = emitted spoll_pkt c.sid pkt in
           push (labels p).send_tr { c with sender = s'; sid = sid'; tr = chan_add c.tr p }
         end
     | None ->
         (* Interned-id equality is comparator equality, so this is the old
            [P.compare_sender s' c.sender <> 0] silent-tick test. *)
         if sid' <> c.sid then push None { c with sender = s'; sid = sid' });
    (* Receiver poll: delivery, reverse send, or silent tick. *)
    (let emit, r', rid' = step_receiver_poll c.receiver c.rid in
     match emit with
     | Some Spec.Rdeliver ->
         if (not deliver_valid_only) || c.delivered < c.submitted then
           push
             (msg_label receive_msg_labels (fun n -> Action.Receive_msg n) c.delivered)
             { c with receiver = r'; rid = rid'; delivered = c.delivered + 1 }
     | Some (Spec.Rsend pkt) ->
         if chan_card c.rt < bounds.capacity_rt then begin
           let p = emitted rpoll_pkt c.rid pkt in
           push (labels p).send_rt { c with receiver = r'; rid = rid'; rt = chan_add c.rt p }
         end
     | None -> if rid' <> c.rid then push None { c with receiver = r'; rid = rid' });
    (* Adversarial channel: deliver any in-transit packet, either direction.
       Drops are unconditional normally, lazy (at-capacity only) under POR. *)
    let n = Pvec.Index.size pkts in
    if chan_card c.tr > 0 then begin
      let drop =
        bounds.allow_drop && ((not bounds.por) || chan_card c.tr >= bounds.capacity_tr)
      in
      for i = 0 to n - 1 do
        let p = Pvec.Index.nth_by_value pkts i in
        let tr' = chan_remove c.tr p in
        if tr' >= 0 then begin
          let r', rid' = step_data_id c.receiver c.rid p in
          push (labels p).recv_tr { c with receiver = r'; rid = rid'; tr = tr' };
          if drop then push (labels p).drop_tr { c with tr = tr' }
        end
      done
    end;
    if chan_card c.rt > 0 then begin
      let drop =
        bounds.allow_drop && ((not bounds.por) || chan_card c.rt >= bounds.capacity_rt)
      in
      for i = 0 to n - 1 do
        let p = Pvec.Index.nth_by_value pkts i in
        let rt' = chan_remove c.rt p in
        if rt' >= 0 then begin
          let s', sid' = step_ack_id c.sender c.sid p in
          push (labels p).recv_rt { c with sender = s'; sid = sid'; rt = rt' };
          if drop then push (labels p).drop_rt { c with rt = rt' }
        end
      done
    end

  (* Visited-table sizing: scale with the node budget (the table's true
     eventual population) instead of a fixed 4096, capped so absurd
     budgets don't pre-allocate gigabytes; [size_hint] overrides when the
     caller knows better (e.g. re-running a protocol whose reach is
     known). *)
  let visited_size ?size_hint bounds =
    match size_hint with
    | Some n -> max 16 n
    | None -> max 1024 (min bounds.max_nodes 1_048_576)

  (* Append-only int sequence in 64-int chunks: small blocks come from
     the GC's size-classed pools, which the next exploration reuses,
     where one big array per sweep is a fresh malloc each time.  Holding
     the stab-sweep benchmark's edges (stab-arq cap 2 plus stop-and-wait,
     2-core x86 host), chunks peaked at 135 MB resident, one doubling
     array at 180 MB and cons lists at 171 MB. *)
  module Ivec = struct
    let bits = 6
    let mask = (1 lsl bits) - 1

    type t = { mutable chunks : int array array; mutable len : int }

    let create () = { chunks = [||]; len = 0 }

    let push v x =
      let c = v.len lsr bits in
      if v.len land mask = 0 then begin
        if c = Array.length v.chunks then begin
          let cs = Array.make (max 8 (2 * c)) [||] in
          Array.blit v.chunks 0 cs 0 c;
          v.chunks <- cs
        end;
        v.chunks.(c) <- Array.make (mask + 1) 0
      end;
      v.chunks.(c).(v.len land mask) <- x;
      v.len <- v.len + 1

    let get v i = v.chunks.(i lsr bits).(i land mask)
    let set v i x = v.chunks.(i lsr bits).(i land mask) <- x

    let make n x =
      let v = create () in
      for _ = 1 to n do
        push v x
      done;
      v
  end

  (* Distinct station states seen, as a byte per interned id. *)
  type tally = { mutable seen : Bytes.t; mutable distinct : int }

  let tally t id =
    if id >= Bytes.length t.seen then begin
      let b = Bytes.make (max (id + 1) (2 * Bytes.length t.seen)) '\000' in
      Bytes.blit t.seen 0 b 0 (Bytes.length t.seen);
      t.seen <- b
    end;
    if Bytes.unsafe_get t.seen id = '\000' then begin
      Bytes.unsafe_set t.seen id '\001';
      t.distinct <- t.distinct + 1
    end

  (* The explored graph.  Ids are dense and in BFS order, so the queue is
     the id range [expanded, count) and "expanded" is [id < expanded].
     [acts] counts the labelled moves on the BFS-tree path to each id;
     parent links and edges are allocated only when asked for (empty
     arrays otherwise).  Edges are kept as flat int arrays, not lists: a
     configuration is expanded once and in id order, so the targets of
     [src]'s moves are [edges.(first_edge.(src)) ..], up to the next
     source's first edge. *)
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
    mutable first_edge : int array;
    edges : Ivec.t;
    senders : tally;
    receivers : tally;
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
      first_edge = (if preds then Array.make len 0 else [||]);
      edges = Ivec.create ();
      senders = { seen = Bytes.make 64 '\000'; distinct = 0 };
      receivers = { seen = Bytes.make 64 '\000'; distinct = 0 };
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
    g.first_edge <- resize g.first_edge 0

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
      if g.keep_preds && src >= 0 then Ivec.push g.edges id;
      tally g.senders c.sid;
      tally g.receivers c.rid;
      if depth > g.max_depth then g.max_depth <- depth
    end

  (* [c] reached from [src] ([-1] for a seed): an edge is recorded
     whether or not [c] is new.  Without edges a hit needs no id, so the
     lookup is the exception-free [mem]. *)
  let visit g ~cap src act depth c =
    if not g.keep_preds then begin
      if not (Ctbl.mem g.index c) then insert g ~cap src act depth c
    end
    else
      match Ctbl.find g.index c with
      | id -> if src >= 0 then Ivec.push g.edges id
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
         if g.keep_preds then g.first_edge.(src) <- g.edges.Ivec.len;
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
      sender_states = g.senders.distinct;
      receiver_states = g.receivers.distinct;
      max_depth = g.max_depth;
    }

  let path_to g id =
    let rec go id acc =
      if id < 0 then acc
      else go g.parent.(id) (match g.label.(id) with None -> acc | Some a -> a :: acc)
    in
    go id []

  (* Multi-source backward BFS: the distance from each id to the nearest
     [source] id ([max_int] when none is reachable within the graph).
     The forward edges are first turned around into predecessor ranges
     ([preds.(start.(j)) ..] up to [start.(j + 1)]) by a counting sort. *)
  let distances_to g source =
    let n = g.count and m = g.edges.Ivec.len in
    let start = Array.make (n + 1) 0 in
    for k = 0 to m - 1 do
      let j = Ivec.get g.edges k in
      start.(j + 1) <- start.(j + 1) + 1
    done;
    for j = 1 to n do
      start.(j) <- start.(j) + start.(j - 1)
    done;
    let fill = Array.sub start 0 n in
    let preds = Ivec.make m 0 in
    for src = 0 to g.expanded - 1 do
      let last = if src + 1 < g.expanded then g.first_edge.(src + 1) else m in
      for k = g.first_edge.(src) to last - 1 do
        let j = Ivec.get g.edges k in
        Ivec.set preds fill.(j) src;
        fill.(j) <- fill.(j) + 1
      done
    done;
    let dist = Array.make n max_int in
    let queue = Array.make n 0 and head = ref 0 and tail = ref 0 in
    for id = 0 to n - 1 do
      if source id then begin
        dist.(id) <- 0;
        queue.(!tail) <- id;
        incr tail
      end
    done;
    while !head < !tail do
      let j = queue.(!head) in
      incr head;
      for k = start.(j) to start.(j + 1) - 1 do
        let i = Ivec.get preds k in
        if dist.(i) = max_int then begin
          dist.(i) <- dist.(j) + 1;
          queue.(!tail) <- i;
          incr tail
        end
      done
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
     seen before any of its children is inserted.

     [on_edge src act c] sees every move in generation order.  The cap
     rule drains the queue, so it sees all moves of every held
     configuration. *)
  let from_configs ?deliver_valid_only ?size_hint ?checkpoint ?(on_edge = fun _ _ _ -> ())
      ~seeds bounds =
    let first_phantom = ref None and phantom_in_budget = ref false in
    let scanned = ref (-1) and in_budget = ref true in
    let on_edge g src act c =
      on_edge src act c;
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

  let reachable_set ?deliver_valid_only ?size_hint ?checkpoint ?on_edge bounds =
    from_configs ?deliver_valid_only ?size_hint ?checkpoint ?on_edge ~seeds:[ initial ] bounds

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
