(* Monotonic time, in seconds, from the same clock bechamel uses. *)

let now () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, since t0)
