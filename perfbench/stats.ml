(* Order statistics over float samples. *)

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile q xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      let f = pos -. float_of_int i in
      if i + 1 >= n then a.(n - 1) else a.(i) +. (f *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* Inter-quartile distance as a share of the median. *)
let iqr_rel xs = (quantile 0.75 xs -. quantile 0.25 xs) /. median xs

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))
