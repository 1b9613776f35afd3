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

(* The visited set of every exploration: configurations stored as their
   six ints under dense ids in insertion order, indexed by an
   open-addressed [int array] with linear probing.  The table starts at
   64 slots and doubles when more than half full, rehashing ints only,
   so an exploration pays for the configurations it holds, not for its
   node budget.

   A slot word is [(tag lsl 32) lor id], or [-1] when empty.  The id
   fills the low 32 bits; the tag is the hash's bits 33-62, which no
   slot index uses (an index is at most 33 bits, as ids stop at 2^32).
   A probe reads a stored configuration only where a slot's tag equals
   its own, so slots of other configurations on its path cost one word
   each, not a cache-missing read of a chunk.  A tag match still
   compares all six ints: distinct configurations can share a tag, so
   the tag only ever rules a slot out.

   The ints sit in chunks of 16 configurations (96 words): blocks that
   small come from the GC's size-classed pools, which the next
   exploration reuses.  One flat doubling array raised the stab-sweep
   benchmark's peak RSS from 135 to 154 MB (2-core x86 host). *)
module Table = struct
  let bits = 4
  let mask = (1 lsl bits) - 1
  let width = 6
  let min_slots = 64
  let id_bits = 32
  let id_mask = (1 lsl id_bits) - 1

  type t = {
    mutable chunks : int array array;
    mutable count : int;
    mutable slots : int array;  (* tagged ids, [-1] when empty; a power of two long *)
  }

  let create () = { chunks = [||]; count = 0; slots = Array.make min_slots (-1) }
  let length t = t.count

  (* Multiply-xor mixing, then a fold of the high bits into the low ones:
     the slot is the low bits, and every input here is a small int. *)
  let hash a b c d e f =
    let h = (e * 31) + f in
    let h = (h * 1000003) lxor a in
    let h = (h * 1000003) lxor b in
    let h = (h * 1000003) lxor c in
    let h = (h * 1000003) lxor d in
    let h = h * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)

  (* 30 bits; an empty slot's [-1 lsr id_bits] is 31 ones, never a tag. *)
  let tag_of h = h lsr (id_bits + 1)
  let get t id k = t.chunks.(id lsr bits).(((id land mask) * width) + k)

  (* The id stored equal to [(a, .., f)], whose hash is [h], or [lnot]
     of the empty slot where it would go. *)
  let probe t h a b c d e f =
    let tag = tag_of h in
    let slots = t.slots in
    let m = Array.length slots - 1 in
    let i = ref (h land m) and r = ref min_int in
    while !r = min_int do
      let w = slots.(!i) in
      if
        w lsr id_bits = tag
        &&
        let id = w land id_mask in
        let ch = t.chunks.(id lsr bits) and o = (id land mask) * width in
        ch.(o) = a
        && ch.(o + 1) = b
        && ch.(o + 2) = c
        && ch.(o + 3) = d
        && ch.(o + 4) = e
        && ch.(o + 5) = f
      then r := w land id_mask
      else if w < 0 then r := lnot !i
      else i := (!i + 1) land m
    done;
    !r

  let find t a b c d e f =
    let r = probe t (hash a b c d e f) a b c d e f in
    if r >= 0 then r else -1

  let rehash t =
    let len = 2 * Array.length t.slots in
    let slots = Array.make len (-1) and m = len - 1 in
    for id = 0 to t.count - 1 do
      let ch = t.chunks.(id lsr bits) and o = (id land mask) * width in
      let h = hash ch.(o) ch.(o + 1) ch.(o + 2) ch.(o + 3) ch.(o + 4) ch.(o + 5) in
      let i = ref (h land m) in
      while slots.(!i) >= 0 do
        i := (!i + 1) land m
      done;
      slots.(!i) <- (tag_of h lsl id_bits) lor id
    done;
    t.slots <- slots

  (* Store [(a, .., f)], whose hash is [h], under the next id in [slot],
     which {!probe} found empty; chunks a {!clear} left behind are
     written over. *)
  let insert t slot h a b c d e f =
    let id = t.count in
    if id > id_mask then
      invalid_arg "Explore.Table.insert: 2^32 configurations, the most a slot word can index";
    let ci = id lsr bits in
    if ci = Array.length t.chunks then begin
      let cs = Array.make (max 8 (2 * ci)) [||] in
      Array.blit t.chunks 0 cs 0 ci;
      t.chunks <- cs
    end;
    if Array.length t.chunks.(ci) = 0 then t.chunks.(ci) <- Array.make ((mask + 1) * width) 0;
    let ch = t.chunks.(ci) and o = (id land mask) * width in
    ch.(o) <- a;
    ch.(o + 1) <- b;
    ch.(o + 2) <- c;
    ch.(o + 3) <- d;
    ch.(o + 4) <- e;
    ch.(o + 5) <- f;
    t.count <- id + 1;
    t.slots.(slot) <- (tag_of h lsl id_bits) lor id;
    if 2 * t.count > Array.length t.slots then rehash t;
    id

  let add t a b c d e f =
    let h = hash a b c d e f in
    let r = probe t h a b c d e f in
    if r >= 0 then r else insert t (lnot r) h a b c d e f

  (* Empty the table for reuse, back at its starting size. *)
  let clear t =
    t.count <- 0;
    if Array.length t.slots > min_slots then t.slots <- Array.make min_slots (-1)
    else Array.fill t.slots 0 min_slots (-1)
end

(* Marks over dense ids, a byte each, grown by doubling: the id spaces
   here are small and dense, so a byte map beats a hash set. *)
module Seen = struct
  type t = { mutable marks : Bytes.t }

  let create () = { marks = Bytes.make 64 '\000' }

  let first t id =
    if id >= Bytes.length t.marks then begin
      let b = Bytes.make (max (id + 1) (2 * Bytes.length t.marks)) '\000' in
      Bytes.blit t.marks 0 b 0 (Bytes.length t.marks);
      t.marks <- b
    end;
    Bytes.unsafe_get t.marks id = '\000'
    && begin
         Bytes.unsafe_set t.marks id '\001';
         true
       end
end

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

  (* Each interner also keeps its states by id: an id is the only handle
     on a station state, and protocol code and printers read the value
     back ([sender_of]). *)
  let with_states (type a) (intern : a -> int) : (a -> int) * (int -> a) =
    let states = ref [||] and n = ref 0 in
    ( (fun v ->
        let id = intern v in
        if id = !n then begin
          reserve states id v;
          !states.(id) <- v;
          incr n
        end;
        id),
      fun id -> !states.(id) )

  let intern_sender, sender_of =
    with_states
      (match P.hash_sender with
      | Some h -> intern_hashed h (fun a b -> P.compare_sender a b = 0)
      | None -> intern_mapped (module Smap))

  let intern_receiver, receiver_of =
    with_states
      (match P.hash_receiver with
      | Some h -> intern_hashed h (fun a b -> P.compare_receiver a b = 0)
      | None -> intern_mapped (module Rmap))

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
    sid : int;
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
     costs two array reads and allocates nothing.  A submit, ack or data
     entry is the post-state's id, [-1] when not yet computed; a poll
     entry pairs the emission with it.  (For instrumented specs that
     record exceptions, e.g. the linter's partiality probe, each distinct
     failing pair is recorded once rather than once per visit.) *)
  let no_poll = (None, -1)
  let submit_memo = ref (Array.make 16 (-1))
  let spoll_memo = ref (Array.make 16 no_poll)
  let rpoll_memo = ref (Array.make 16 no_poll)
  let ack_memo : int array array ref = ref (Array.make 16 [||])
  let data_memo : int array array ref = ref (Array.make 16 [||])

  let store memo i none v =
    reserve memo i none;
    !memo.(i) <- v;
    v

  (* The id-keyed steps are exposed (alongside the interners and the
     packet index) so sibling analyses over the same interned state space —
     the coverability engine of {!Nfc_absint.Cover} — share these memo
     tables instead of re-running protocol code. *)
  let step_submit sid =
    let m = !submit_memo in
    if sid < Array.length m && m.(sid) >= 0 then m.(sid)
    else store submit_memo sid (-1) (intern_sender (P.on_submit (sender_of sid)))

  let step_sender_poll sid =
    let m = !spoll_memo in
    match if sid < Array.length m then m.(sid) else no_poll with
    | (_, id) as v when id >= 0 -> v
    | _ ->
        let emit, s' = P.sender_poll (sender_of sid) in
        store spoll_memo sid no_poll (emit, intern_sender s')

  let step_receiver_poll rid =
    let m = !rpoll_memo in
    match if rid < Array.length m then m.(rid) else no_poll with
    | (_, id) as v when id >= 0 -> v
    | _ ->
        let emit, r' = P.receiver_poll (receiver_of rid) in
        store rpoll_memo rid no_poll (emit, intern_receiver r')

  (* [step_input memo step intern of_id id p]: the memoised input step
     of station [id] on packet id [p]. *)
  let step_input memo step intern of_id id p =
    let rows = !memo in
    let r = if id < Array.length rows then rows.(id) else [||] in
    if p < Array.length r && r.(p) >= 0 then r.(p)
    else begin
      let id' = intern (step (of_id id) (Pvec.Index.packet pkts p)) in
      (row memo id p (-1)).(p) <- id';
      id'
    end

  let step_ack_id sid p = step_input ack_memo P.on_ack intern_sender sender_of sid p
  let step_data_id rid p = step_input data_memo P.on_data intern_receiver receiver_of rid p
  let step_ack sid pkt = step_ack_id sid (Pvec.Index.id pkts pkt)
  let step_data rid pkt = step_data_id rid (Pvec.Index.id pkts pkt)

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
      sid = intern_sender P.sender_init;
      rid = intern_receiver P.receiver_init;
      tr = chan_empty;
      rt = chan_empty;
      submitted = 0;
      delivered = 0;
    }

  let chan_packets ch =
    List.sort Stdlib.compare
      (Pvec.fold (fun id c acc -> (Pvec.Index.packet pkts id, c) :: acc) (chan ch) [])

  let packets_tr c = chan_packets c.tr
  let packets_rt c = chan_packets c.rt

  (* The kernel itself never builds a record; records exist only where
     the API hands configurations out. *)
  let config_of sid rid tr rt submitted delivered = { sid; rid; tr; rt; submitted; delivered }

  (* Successors with the action that labels the move ([None] = silent),
     each passed to [push] as the six ints of its configuration.
     [deliver_valid_only] gates message delivery on a message actually
     pending — the boundness semantics, which never explores phantom
     branches.  Channel moves are enumerated in increasing packet-value
     order (see {!Pvec.Index.nth_by_value}), so BFS visits configurations
     in exactly the order the tree-based engine did.  The loop allocates
     nothing: steps, channel moves and labels are memo reads. *)
  let iter_succ ?(deliver_valid_only = false) bounds sid rid tr rt sub del push =
    (* User submission. *)
    if sub < bounds.submit_budget then begin
      push
        (msg_label send_msg_labels (fun n -> Action.Send_msg n) sub)
        (step_submit sid) rid tr rt (sub + 1) del
    end;
    (* Sender poll: emission or silent tick. *)
    (let emit, sid' = step_sender_poll sid in
     match emit with
     | Some pkt ->
         if chan_card tr < bounds.capacity_tr then begin
           let p = emitted spoll_pkt sid pkt in
           push (labels p).send_tr sid' rid (chan_add tr p) rt sub del
         end
     | None ->
         (* Interned-id equality is comparator equality, so this is the
            silent-tick test [P.compare_sender s' s <> 0]. *)
         if sid' <> sid then push None sid' rid tr rt sub del);
    (* Receiver poll: delivery, reverse send, or silent tick. *)
    (let emit, rid' = step_receiver_poll rid in
     match emit with
     | Some Spec.Rdeliver ->
         if (not deliver_valid_only) || del < sub then
           push
             (msg_label receive_msg_labels (fun n -> Action.Receive_msg n) del)
             sid rid' tr rt sub (del + 1)
     | Some (Spec.Rsend pkt) ->
         if chan_card rt < bounds.capacity_rt then begin
           let p = emitted rpoll_pkt rid pkt in
           push (labels p).send_rt sid rid' tr (chan_add rt p) sub del
         end
     | None -> if rid' <> rid then push None sid rid' tr rt sub del);
    (* Adversarial channel: deliver any in-transit packet, either
       direction, or drop it when [allow_drop] holds. *)
    let n = Pvec.Index.size pkts in
    if chan_card tr > 0 then begin
      for i = 0 to n - 1 do
        let p = Pvec.Index.nth_by_value pkts i in
        let tr' = chan_remove tr p in
        if tr' >= 0 then begin
          push (labels p).recv_tr sid (step_data_id rid p) tr' rt sub del;
          if bounds.allow_drop then push (labels p).drop_tr sid rid tr' rt sub del
        end
      done
    end;
    if chan_card rt > 0 then begin
      for i = 0 to n - 1 do
        let p = Pvec.Index.nth_by_value pkts i in
        let rt' = chan_remove rt p in
        if rt' >= 0 then begin
          push (labels p).recv_rt (step_ack_id sid p) rid tr rt' sub del;
          if bounds.allow_drop then push (labels p).drop_rt sid rid tr rt' sub del
        end
      done
    end

  let iter_successors ?deliver_valid_only bounds c push =
    iter_succ ?deliver_valid_only bounds c.sid c.rid c.tr c.rt c.submitted c.delivered
      (fun act sid rid tr rt sub del -> push act (config_of sid rid tr rt sub del))

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

  (* The explored graph.  Ids are dense and in BFS order — the visited
     table's own insertion order — so the queue is the id range
     [expanded, count) and "expanded" is [id < expanded].  [acts] counts
     the labelled moves on the BFS-tree path to each id; parent links and
     edges are allocated only when asked for (empty arrays otherwise).
     Edges are kept as flat int arrays, not lists: a configuration is
     expanded once and in id order, so the targets of [src]'s moves are
     [edges.(first_edge.(src)) ..], up to the next source's first edge. *)
  type graph = {
    visited : Table.t;
    mutable expanded : int;
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
  let create_graph ~parents ~preds =
    let len = 64 in
    {
      visited = Table.create ();
      expanded = 0;
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
    let len = 2 * Array.length g.acts in
    let resize a fill =
      if Array.length a = 0 then a
      else begin
        let b = Array.make len fill in
        Array.blit a 0 b 0 (Array.length a);
        b
      end
    in
    g.acts <- resize g.acts 0;
    g.parent <- resize g.parent (-1);
    g.label <- resize g.label None;
    g.first_edge <- resize g.first_edge 0

  (* [sid .. del] reached from [src] ([-1] for a seed): an edge is
     recorded whether or not it is new. *)
  let visit g ~cap src act depth sid rid tr rt sub del =
    let h = Table.hash sid rid tr rt sub del in
    let r = Table.probe g.visited h sid rid tr rt sub del in
    if r >= 0 then begin
      if g.keep_preds && src >= 0 then Ivec.push g.edges r
    end
    else if Table.length g.visited >= cap then g.truncated <- true
    else begin
      let id = Table.length g.visited in
      if id = Array.length g.acts then grow g;
      ignore (Table.insert g.visited (lnot r) h sid rid tr rt sub del);
      g.acts.(id) <- (if src < 0 then 0 else g.acts.(src) + Bool.to_int (Option.is_some act));
      if g.keep_parents then begin
        g.parent.(id) <- src;
        g.label.(id) <- act
      end;
      if g.keep_preds && src >= 0 then Ivec.push g.edges id;
      tally g.senders sid;
      tally g.receivers rid;
      if depth > g.max_depth then g.max_depth <- depth
    end

  exception Stop

  (* The one breadth-first loop.  Two budget rules, each an integer:
     [cap] rejects new configurations once [cap] are held (setting
     [truncated]) but drains the queue, so every held configuration is
     expanded; [stop] ends the search at the first dequeue that finds
     [stop] or more configurations held (setting [truncated] when the
     queue was not empty), so the last expansion may overshoot.
     [on_edge g src act sid rid tr rt sub del] sees every move in
     generation order, before its target is inserted, and stops the
     search by returning [true].

     With [counters] off the graph is the quotient by the two message
     counters: seeds and move targets are held with both at 0.  That is
     a bisimulation only when no move reads them — no submission
     budget, no delivery gate — so the precondition is checked here.
     [push] is chosen once per call, so a counter-carrying sweep pays
     nothing per move for the option. *)
  let explore ?deliver_valid_only ?(counters = true) ?(checkpoint = ignore) ?(parents = false)
      ?(preds = false) ?(on_edge = fun _ _ _ _ _ _ _ _ _ -> false) ~cap ~stop ~seeds bounds =
    if (not counters) && (bounds.submit_budget > 0 || deliver_valid_only = Some true) then
      invalid_arg "Explore.explore: ~counters:false needs submit_budget = 0 and ungated delivery";
    let g = create_graph ~parents ~preds in
    let t = g.visited in
    List.iter
      (fun c ->
        if counters then visit g ~cap (-1) None 0 c.sid c.rid c.tr c.rt c.submitted c.delivered
        else visit g ~cap (-1) None 0 c.sid c.rid c.tr c.rt 0 0)
      seeds;
    let depth = ref 0 and level_end = ref (Table.length t) in
    let push =
      if counters then (fun act sid rid tr rt sub del ->
        let src = g.expanded - 1 in
        if on_edge g src act sid rid tr rt sub del then raise_notrace Stop;
        visit g ~cap src act (!depth + 1) sid rid tr rt sub del)
      else fun act sid rid tr rt _ _ ->
        let src = g.expanded - 1 in
        if on_edge g src act sid rid tr rt 0 0 then raise_notrace Stop;
        visit g ~cap src act (!depth + 1) sid rid tr rt 0 0
    in
    (try
       while g.expanded < Table.length t do
         if Table.length t >= stop then begin
           g.truncated <- true;
           raise_notrace Stop
         end;
         let src = g.expanded in
         if src = !level_end then begin
           incr depth;
           level_end := Table.length t
         end;
         g.expanded <- src + 1;
         if g.keep_preds then g.first_edge.(src) <- g.edges.Ivec.len;
         if (src + 1) land 2047 = 0 then checkpoint ();
         iter_succ ?deliver_valid_only bounds (Table.get t src 0) (Table.get t src 1)
           (Table.get t src 2) (Table.get t src 3) (Table.get t src 4) (Table.get t src 5) push
       done
     with Stop -> ());
    g

  let size g = Table.length g.visited
  let sid g id = Table.get g.visited id 0
  let rid g id = Table.get g.visited id 1
  let tr g id = Table.get g.visited id 2
  let rt g id = Table.get g.visited id 3
  let submitted g id = Table.get g.visited id 4
  let delivered g id = Table.get g.visited id 5

  let node g id =
    config_of (sid g id) (rid g id) (tr g id) (rt g id) (submitted g id) (delivered g id)

  let find g c =
    match Table.find g.visited c.sid c.rid c.tr c.rt c.submitted c.delivered with
    | -1 -> None
    | id -> Some id

  let truncated g = g.truncated

  let graph_stats g =
    {
      nodes = size g;
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
    let n = size g and m = g.edges.Ivec.len in
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

  (* Forward BFS from the [seeds] ids over the delivery-gated moves whose
     targets [g] holds, on ints alone: [Table.find] maps a move to its id
     and a byte per id marks the visited.  The ungated sweep that built
     [g] expanded every held configuration (the cap rule), so each gated
     move here is one it already made: every memo read is filled, and the
     walk interns nothing. *)
  let gated_closure ?(checkpoint = ignore) g bounds seeds =
    let n = size g in
    if g.expanded < n then invalid_arg "Explore.gated_closure: graph not fully expanded";
    let mark = Bytes.make n '\000' in
    let queue = Array.make n 0 and head = ref 0 and tail = ref 0 in
    let add id =
      if id >= 0 && Bytes.unsafe_get mark id = '\000' then begin
        Bytes.unsafe_set mark id '\001';
        queue.(!tail) <- id;
        incr tail
      end
    in
    List.iter add seeds;
    let t = g.visited in
    let push _ sid rid tr rt sub del = add (Table.find t sid rid tr rt sub del) in
    while !head < !tail do
      let src = queue.(!head) in
      incr head;
      if !head land 2047 = 0 then checkpoint ();
      iter_succ ~deliver_valid_only:true bounds (Table.get t src 0) (Table.get t src 1)
        (Table.get t src 2) (Table.get t src 3) (Table.get t src 4) (Table.get t src 5) push
    done;
    Array.sub queue 0 !tail

  let final act = match act with Some a -> [ a ] | None -> []

  type reach = {
    graph : graph;
    truncated : bool;
    reach_stats : stats;
    first_phantom : int option;
    phantom_in_budget : bool;
    stuck : int -> bool;
  }

  (* The reachable set itself, in BFS order, for consumers that need the
     configurations and not just a counterexample search: the linter walks
     it to certify header budgets, probe input-enabledness and detect dead
     configurations; boundness measurement reuses it with
     [~deliver_valid_only:true].  Seeds are visited at depth 0 in caller
     order, deduplicated; [reachable_set] seeds [initial].

     Two scans ride on the sweep, on the successors' ints.  The phantom
     scan: [first_phantom] is the action count of the first move (in BFS
     generation order — exactly the move {!search} stops at) that
     produces a configuration with [delivered > submitted].  [search]
     stops at the first dequeue past the node budget, so
     [phantom_in_budget] records whether the move's source was dequeued
     with fewer than [max_nodes] configurations held: its first move is
     seen before any of its children is inserted.  The progress scan
     marks each id that has a move other than a user submission; the cap
     rule drains the queue, so every held configuration's moves are
     seen, and [stuck id] is exact. *)
  let from_configs ?deliver_valid_only ?checkpoint ~seeds bounds =
    let first_phantom = ref None and phantom_in_budget = ref false in
    let scanned = ref (-1) and in_budget = ref true in
    let progress = ref (Bytes.make 64 '\000') in
    let on_edge g src act _ _ _ _ sub del =
      (match act with
      | Some (Action.Send_msg _) -> ()
      | _ ->
          let b = !progress in
          if src >= Bytes.length b then begin
            progress := Bytes.make (max (src + 1) (2 * Bytes.length b)) '\000';
            Bytes.blit b 0 !progress 0 (Bytes.length b)
          end;
          Bytes.unsafe_set !progress src '\001');
      if !first_phantom = None then begin
        if src <> !scanned then begin
          scanned := src;
          in_budget := size g < bounds.max_nodes
        end;
        if del > sub then begin
          first_phantom := Some (g.acts.(src) + Bool.to_int (Option.is_some act));
          phantom_in_budget := !in_budget
        end
      end;
      false
    in
    let g =
      explore ?deliver_valid_only ?checkpoint ~on_edge ~cap:bounds.max_nodes ~stop:max_int ~seeds
        bounds
    in
    let progress = !progress in
    {
      graph = g;
      truncated = g.truncated;
      reach_stats = graph_stats g;
      first_phantom = !first_phantom;
      phantom_in_budget = !phantom_in_budget;
      stuck = (fun id -> id >= Bytes.length progress || Bytes.get progress id = '\000');
    }

  let reachable_set ?deliver_valid_only ?checkpoint bounds =
    from_configs ?deliver_valid_only ?checkpoint ~seeds:[ initial ] bounds

  let configs r = List.init (size r.graph) (node r.graph)

  let search ?(stop_at_phantom = true) ?checkpoint bounds =
    let violation = ref None in
    let on_edge g src act _ _ _ _ sub del =
      (* Phantom delivery: more receive_msg than send_msg. *)
      stop_at_phantom && del > sub
      && begin
           violation := Some (path_to g src @ final act);
           true
         end
    in
    let g =
      explore ?checkpoint ~parents:stop_at_phantom ~on_edge ~cap:max_int ~stop:bounds.max_nodes
        ~seeds:[ initial ] bounds
    in
    match !violation with
    | Some trace -> Violation trace
    | None ->
        if size g >= bounds.max_nodes then Node_budget (graph_stats g)
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
  let replay_monitor ?(deliver_valid_only = true) ?checkpoint ~(monitor : config -> bool) bounds =
    if not (monitor initial) then
      Replay_refuted
        ([], initial, { nodes = 1; sender_states = 1; receiver_states = 1; max_depth = 0 })
    else begin
      let refuted = ref None in
      let on_edge g src act sid rid tr rt sub del =
        Table.find g.visited sid rid tr rt sub del < 0
        &&
        let c = config_of sid rid tr rt sub del in
        (not (monitor c))
        && begin
             refuted := Some (path_to g src @ final act, c);
             true
           end
      in
      let g =
        explore ~deliver_valid_only ?checkpoint ~parents:true ~on_edge ~cap:max_int
          ~stop:bounds.max_nodes ~seeds:[ initial ] bounds
      in
      match !refuted with
      | Some (trace, c) -> Replay_refuted (trace, c, graph_stats g)
      | None -> Replay_upheld (graph_stats g, g.truncated)
    end

  (* Liveness: explore the graph fully (within budget), then propagate
     "can eventually deliver" backwards.  A semi-valid configuration not
     reached by the propagation is wedged.  Unexpanded (frontier) nodes
     are conservatively assumed able to deliver. *)
  let find_wedge_search ?checkpoint bounds =
    let deliverers = ref [] in
    let on_edge _ src act _ _ _ _ _ _ =
      (match act with Some (Action.Receive_msg _) -> deliverers := src :: !deliverers | _ -> ());
      false
    in
    let g =
      explore ?checkpoint ~parents:true ~preds:true ~on_edge ~cap:max_int ~stop:bounds.max_nodes
        ~seeds:[ initial ] bounds
    in
    let delivers = Array.make (size g) false in
    List.iter (fun id -> delivers.(id) <- true) !deliverers;
    let dist = distances_to g (fun id -> delivers.(id) || id >= g.expanded) in
    (* Shortest wedged semi-valid configuration = first in BFS order. *)
    let rec wedged id =
      if id >= g.expanded then None
      else if dist.(id) = max_int && submitted g id > delivered g id then Some id
      else wedged (id + 1)
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
