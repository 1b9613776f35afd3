(* The abstract domain of the spec-level interpreter: per-slot values are
   booleans with a may-be-true/may-be-false pair, integers as
   {!Nfc_pdl.Itv} intervals (upper bound possibly ω, lower bound possibly
   -ω), and queues as ω-extended multiset upper bounds on the queued
   packet values ([Nfc_absint.Opvec], so the ω encoding and the join
   coincide with the coverability tier's channel domain).

   The interval arithmetic and guard narrowing are the PDL checker's own
   ([Itv] and [Check.narrow_guard] live in nfc_pdl, below both), so the containment the checker
   proves is exactly what this interpreter assumes when it clamps a
   post-state to the declared ranges. *)

module Check = Nfc_pdl.Check
module Ast = Nfc_pdl.Ast
module Itv = Nfc_pdl.Itv
module Opvec = Nfc_absint.Opvec

(* Read by clients that test a state product or bound for ω. *)
let omega = Itv.omega

(* ---- may-booleans --------------------------------------------------- *)

type bv = { can_t : bool; can_f : bool }

let bv_of_bool b = { can_t = b; can_f = not b }
let bv_top = { can_t = true; can_f = true }
let bv_join a b = { can_t = a.can_t || b.can_t; can_f = a.can_f || b.can_f }
let bv_not b = { can_t = b.can_f; can_f = b.can_t }
let bv_size b = (if b.can_t then 1 else 0) + if b.can_f then 1 else 0

let pp_bv ppf b =
  Fmt.string ppf
    (match (b.can_t, b.can_f) with
    | true, true -> "⊤"
    | true, false -> "true"
    | false, true -> "false"
    | false, false -> "⊥")

(* ---- abstract slot values and environments -------------------------- *)

type aval = Abool of bv | Aint of Itv.t | Aqueue of Opvec.t

(* [binder] is the interval of the packet parameter bound by the active
   [on <family>(x)] clause; [Itv.top] outside such clauses (the checker
   rejects stray binder references, so the value is never read there). *)
type env = { vals : aval array; binder : Itv.t }

let aval_equal a b =
  match (a, b) with
  | Abool x, Abool y -> x = y
  | Aint x, Aint y -> x = y
  | Aqueue x, Aqueue y -> Opvec.equal x y
  | _ -> false

let env_equal a b =
  Array.length a.vals = Array.length b.vals
  && Array.for_all2 aval_equal a.vals b.vals

(* ---- expression evaluation ------------------------------------------ *)

type v = Vi of Itv.t | Vb of bv

(* The checker types every expression, so the coercions below are total
   on checked specs; the fallbacks keep the evaluator defensive rather
   than partial. *)
let as_iv = function Vi iv -> iv | Vb _ -> Itv.top
let as_bv = function Vb b -> b | Vi _ -> bv_top

let cmp_bv (op : Ast.binop) (a : Itv.t) (b : Itv.t) : bv =
  let overlap = a.lo <= b.hi && b.lo <= a.hi in
  match op with
  | Ast.Eq ->
      { can_t = overlap; can_f = not (Itv.is_point a && Itv.is_point b && a.lo = b.lo) }
  | Ast.Ne ->
      { can_t = not (Itv.is_point a && Itv.is_point b && a.lo = b.lo); can_f = overlap }
  | Ast.Lt -> { can_t = a.lo < b.hi; can_f = a.hi >= b.lo }
  | Ast.Le -> { can_t = a.lo <= b.hi; can_f = a.hi > b.lo }
  | Ast.Gt -> { can_t = a.hi > b.lo; can_f = a.lo <= b.hi }
  | Ast.Ge -> { can_t = a.hi >= b.lo; can_f = a.lo < b.hi }
  | _ -> bv_top

let rec eval (e : env) (c : Check.cexpr) : v =
  match c with
  | Check.Cint n -> Vi (Itv.point n)
  | Check.Cbool b -> Vb (bv_of_bool b)
  | Check.Cslot i -> (
      match e.vals.(i) with
      | Abool b -> Vb b
      | Aint iv -> Vi iv
      | Aqueue _ -> Vi Itv.top (* checker rejects queue reads *))
  | Check.Cbinder -> Vi e.binder
  | Check.Cbudget -> Vi { Itv.lo = 0; hi = Itv.omega }
  | Check.Cun (Ast.Neg, x) -> Vi (Itv.neg (as_iv (eval e x)))
  | Check.Cun (Ast.Not, x) -> Vb (bv_not (as_bv (eval e x)))
  | Check.Cbin (op, x, y) -> (
      match op with
      | Ast.Add -> Vi (Itv.add (as_iv (eval e x)) (as_iv (eval e y)))
      | Ast.Sub -> Vi (Itv.sub (as_iv (eval e x)) (as_iv (eval e y)))
      | Ast.Mul -> Vi (Itv.mul (as_iv (eval e x)) (as_iv (eval e y)))
      | Ast.And ->
          let a = as_bv (eval e x) and b = as_bv (eval e y) in
          Vb { can_t = a.can_t && b.can_t; can_f = a.can_f || b.can_f }
      | Ast.Or ->
          let a = as_bv (eval e x) and b = as_bv (eval e y) in
          Vb { can_t = a.can_t || b.can_t; can_f = a.can_f && b.can_f }
      | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
          Vb (cmp_bv op (as_iv (eval e x)) (as_iv (eval e y))))

(* ---- guard refinement ----------------------------------------------- *)

(* Refine [e] under guard [g] assumed true; [None] when the guard cannot
   hold on any state described by [e].  Integer slots and the binder
   narrow through the checker's own rule ([Check.narrow_guard]), so from
   an env inside the checker's declared box this is never less precise
   than the checker.  On top of it, every node is feasibility-checked
   with the may-boolean evaluator, and a bare boolean slot (or its
   negation) is fixed to the value the guard requires. *)
let refine (e : env) (g : Check.cexpr) : env option =
  let set_bool e i b =
    match e.vals.(i) with
    | Abool _ ->
        let vals = Array.copy e.vals in
        vals.(i) <- Abool (bv_of_bool b);
        Some { e with vals }
    | _ -> Some e
  in
  Check.narrow_guard e g
    ~value_of:(fun e c -> as_iv (eval e c))
    ~target:(fun e t ->
      match t with
      | Check.Cslot i -> (
          match e.vals.(i) with
          | Aint iv ->
              Some
                ( iv,
                  fun iv' ->
                    let vals = Array.copy e.vals in
                    vals.(i) <- Aint iv';
                    { e with vals } )
          | _ -> None)
      | Check.Cbinder -> Some (e.binder, fun b' -> { e with binder = b' })
      | _ -> None)
    ~feasible:(fun e g -> (as_bv (eval e g)).can_t)
    ~other:(fun e g ->
      match g with
      | Check.Cslot i -> set_bool e i true
      | Check.Cun (Ast.Not, Check.Cslot i) -> set_bool e i false
      | _ -> Some e)

let refine_opt (e : env) (g : Check.cexpr option) : env option =
  match g with None -> Some e | Some g -> refine e g

(* ---- join / widening over environments ------------------------------ *)

(* [ceilings.(i)] is slot [i]'s widening target (declared range for
   [Krange], [0,ω] for counters); queues widen through
   [Opvec.accelerate].  Returns the joined env and whether it differs
   from [into]. *)
let join_env ~widen ~(ceilings : Itv.t array) ~(into : env) (from : env) :
    env * bool =
  let changed = ref false in
  let vals =
    Array.mapi
      (fun i old ->
        let v =
          match (old, from.vals.(i)) with
          | Abool a, Abool b -> Abool (bv_join a b)
          | Aint a, Aint b ->
              let j = Itv.join a b in
              let j =
                if widen && j <> a then Itv.widen ~ceiling:ceilings.(i) ~prev:a j
                else j
              in
              Aint j
          | Aqueue a, Aqueue b ->
              let j = Opvec.join a b in
              let j =
                if widen && not (Opvec.equal j a) then Opvec.accelerate ~prev:a j
                else j
              in
              Aqueue j
          | a, _ -> a (* kinds are fixed per slot; unreachable *)
        in
        if not (aval_equal v old) then changed := true;
        v)
      into.vals
  in
  ({ into with vals }, !changed)
