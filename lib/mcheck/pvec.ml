(* Interned packet-count vectors: the channel-multiset representation of
   the hashed state-space engine.

   An [Index.t] interns a run's reachable packet alphabet into dense ids
   in discovery order; a [t] is an immutable count-per-id vector with the
   cardinal cached and trailing zeros trimmed, so structurally equal
   vectors are the unique representation of a multiset and equality/hash
   are O(alphabet) int scans instead of balanced-map walks
   ({!Nfc_util.Multiset}).  The alphabet under lint/mcheck bounds is a
   handful of headers, so "O(alphabet)" is effectively O(1). *)

module Index = struct
  type t = {
    ids : (int, int) Hashtbl.t;  (* packet value -> dense id *)
    mutable packets : int array;  (* dense id -> packet value *)
    mutable by_value : int array;  (* ids sorted by packet value *)
    mutable n : int;
  }

  let create () =
    { ids = Hashtbl.create 32; packets = Array.make 8 0; by_value = [||]; n = 0 }

  let size t = t.n

  let id t packet =
    match Hashtbl.find_opt t.ids packet with
    | Some id -> id
    | None ->
        let id = t.n in
        Hashtbl.add t.ids packet id;
        if id >= Array.length t.packets then begin
          let bigger = Array.make (2 * Array.length t.packets) 0 in
          Array.blit t.packets 0 bigger 0 id;
          t.packets <- bigger
        end;
        t.packets.(id) <- packet;
        t.n <- id + 1;
        (* Keep the value-ordered view: sorted insertion, O(alphabet) on
           the rare event of a never-seen packet. *)
        let bv = Array.make t.n id in
        let rec place i j =
          (* i walks the old array, j the new; insert [id] before the
             first larger packet value. *)
          if i < Array.length t.by_value then
            if t.packets.(t.by_value.(i)) < packet then begin
              bv.(j) <- t.by_value.(i);
              place (i + 1) (j + 1)
            end
            else begin
              bv.(j) <- id;
              Array.blit t.by_value i bv (j + 1) (Array.length t.by_value - i)
            end
          else bv.(j) <- id
        in
        place 0 0;
        t.by_value <- bv;
        id

  let packet t id = t.packets.(id)

  (* Interned ids in increasing packet-value order: lets the engine
     enumerate channel moves in exactly the order the Multiset-backed
     engine did (its [support] was value-sorted), preserving BFS order. *)
  let iter_by_value t f = Array.iter f t.by_value
end

type t = { counts : int array; card : int }

let empty = { counts = [||]; card = 0 }
let cardinal t = t.card
let count t id = if id < Array.length t.counts then t.counts.(id) else 0

let add t id =
  let len = max (id + 1) (Array.length t.counts) in
  let counts = Array.make len 0 in
  Array.blit t.counts 0 counts 0 (Array.length t.counts);
  counts.(id) <- counts.(id) + 1;
  { counts; card = t.card + 1 }

let remove_one t id =
  if count t id = 0 then None
  else begin
    (* Trim trailing zeros so the representation stays canonical. *)
    let len = ref (Array.length t.counts) in
    if id = !len - 1 && t.counts.(id) = 1 then begin
      decr len;
      while !len > 0 && t.counts.(!len - 1) = 0 do
        decr len
      done
    end;
    let counts = Array.sub t.counts 0 !len in
    if id < !len then counts.(id) <- counts.(id) - 1;
    Some { counts; card = t.card - 1 }
  end

let equal a b =
  a.card = b.card
  && Array.length a.counts = Array.length b.counts
  && (let ok = ref true in
      Array.iteri (fun i c -> if c <> b.counts.(i) then ok := false) a.counts;
      !ok)

let hash t =
  let h = ref (t.card + 1) in
  Array.iter (fun c -> h := (!h * 1000003) + c) t.counts;
  !h land max_int

let fold f t acc =
  let acc = ref acc in
  Array.iteri (fun id c -> if c > 0 then acc := f id c !acc) t.counts;
  !acc

let to_array t = Array.copy t.counts
