(* Spans recorded from the benchmark's side, around calls into the
   program's public functions.  Spans of one op share its id; each span
   carries the Gc.quick_stat deltas of its interval.  Everything stays
   in memory until the run ends, when {!per_op} folds the spans into the
   layer table. *)

type span = {
  op : int;
  name : string;
  seconds : float;
  minor_words : float;
  major_collections : int;
}

type t = {
  mutable spans : span list;
  counts : (string, float) Hashtbl.t;
  mutable ops : int;
  lock : Mutex.t;  (** client threads of the serve workload record concurrently *)
}

let create () = { spans = []; counts = Hashtbl.create 16; ops = 0; lock = Mutex.create () }

(* Start a new op; returns its id. *)
let next_op t =
  Mutex.protect t.lock (fun () ->
      t.ops <- t.ops + 1;
      t.ops)

let span t ~op name f =
  let g0 = Gc.quick_stat () in
  let r, seconds = Clock.time f in
  let g1 = Gc.quick_stat () in
  let s =
    {
      op;
      name;
      seconds;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    }
  in
  Mutex.protect t.lock (fun () -> t.spans <- s :: t.spans);
  r

(* A count attributed to the current op ([name] summed over the run). *)
let count t name v =
  Mutex.protect t.lock (fun () ->
      Hashtbl.replace t.counts name (v +. Option.value ~default:0. (Hashtbl.find_opt t.counts name)))

let fold t name f = List.fold_left (fun acc s -> if s.name = name then acc +. f s else acc) 0. t.spans
let per_op t v = if t.ops = 0 then 0. else v /. float_of_int t.ops

(* Mean per op of a span's milliseconds / a count. *)
let ms t name = per_op t (fold t name (fun s -> s.seconds *. 1000.))
let minor_mwords t name = per_op t (fold t name (fun s -> s.minor_words /. 1e6))
let majors t name = per_op t (fold t name (fun s -> float_of_int s.major_collections))
let counted t name = Option.value ~default:0. (Hashtbl.find_opt t.counts name)
let mean_count t name = per_op t (counted t name)
