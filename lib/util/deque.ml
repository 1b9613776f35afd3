(* Invariant: [front] holds the first elements in order, [back] holds the
   last elements in reverse order; [len] caches the total length. *)
type 'a t = { front : 'a list; back : 'a list; len : int }

let empty = { front = []; back = []; len = 0 }
let is_empty t = t.len = 0
let length t = t.len
let push_back x t = { t with back = x :: t.back; len = t.len + 1 }
let push_front x t = { t with front = x :: t.front; len = t.len + 1 }

let pop_front t =
  match t.front with
  | x :: front -> Some (x, { t with front; len = t.len - 1 })
  | [] -> (
      match List.rev t.back with
      | [] -> None
      | x :: front -> Some (x, { front; back = []; len = t.len - 1 }))

let pop_back t =
  match t.back with
  | x :: back -> Some (x, { t with back; len = t.len - 1 })
  | [] -> (
      match List.rev t.front with
      | [] -> None
      | x :: back -> Some (x, { front = []; back; len = t.len - 1 }))

let peek_front t =
  match t.front with
  | x :: _ -> Some x
  | [] -> ( match List.rev t.back with [] -> None | x :: _ -> Some x)

let peek_back t =
  match t.back with
  | x :: _ -> Some x
  | [] -> ( match List.rev t.front with [] -> None | x :: _ -> Some x)

let to_list t = t.front @ List.rev t.back
let of_list l = { front = l; back = []; len = List.length l }

let remove_first p t =
  let rec go acc = function
    | [] -> None
    | x :: rest -> if p x then Some (x, List.rev_append acc rest) else go (x :: acc) rest
  in
  match go [] (to_list t) with
  | None -> None
  | Some (x, l) -> Some (x, { front = l; back = []; len = t.len - 1 })

let filter p t =
  let l = List.filter p (to_list t) in
  { front = l; back = []; len = List.length l }

let fold f acc t = List.fold_left f acc (to_list t)

(* [back] is the tail of the sequence reversed, so it folds from the
   right to keep front-to-back order without building the list. *)
let hash t =
  let mix h x = (h * 31) + Hashtbl.hash x in
  List.fold_right (fun x h -> mix h x) t.back (List.fold_left mix t.len t.front)
let exists p t = List.exists p t.front || List.exists p t.back
