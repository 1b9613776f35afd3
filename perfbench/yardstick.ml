(* The yardstick: a fixed unit of work timed next to the workload, so
   every gated timing can be expressed in yardsticks rather than in
   seconds.  A host that runs slower for a while (frequency scaling,
   steal time, a neighbour thrashing the shared cache) slows the
   yardstick and the workload alike, and the ratio cancels the drift.

   Stdlib only, on purpose: no change to the program under test can
   move it.  The work is hash-table lookups and in-place updates over
   pseudo-random int keys in a Stdlib Hashtbl of 2^15 bindings (about
   2 MB) — the verifier's visited-set access pattern.  It allocates
   nothing once the table exists, so a sample never waits on the
   garbage collector, whose pauses depend on the heap the workload
   left behind and, in the service workload, on its other domains. *)

let keys = 1 lsl 15
let probes = 250_000

let next x = (x * 1103515245 + 12345) land 0x3FFF_FFFF

(* Built on first use, which is before the workload's set-up. *)
let table =
  lazy
    (let tbl = Hashtbl.create keys in
     let x = ref 1 in
     for i = 1 to keys do
       x := next !x;
       Hashtbl.replace tbl (!x land ((2 * keys) - 1)) i
     done;
     tbl)

let work () =
  let tbl = Lazy.force table in
  let x = ref 0x2545_F491 and acc = ref 0 in
  for i = 1 to probes do
    x := next !x;
    let k = !x land ((2 * keys) - 1) in
    match Hashtbl.find tbl k with
    | v ->
        acc := !acc + v;
        (* Present key: Hashtbl.replace rewrites the binding in place. *)
        Hashtbl.replace tbl k v
    | exception Not_found -> acc := !acc + (i land 1)
  done;
  !acc

(* The checksum of one unit; every sample must reproduce it. *)
let expected = ref None

(* One timed sample, in seconds. *)
let sample () =
  let sum, s = Clock.time work in
  (match !expected with
  | None -> expected := Some sum
  | Some e -> if sum <> e then failwith "yardstick checksum mismatch");
  s
