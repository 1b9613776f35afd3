(* ω-encoded integer intervals: see itv.mli for the semantics.  Every
   endpoint computation rounds outward and saturates at ±ω, so no
   operation here ever wraps. *)

let omega = max_int
let neg_omega = -max_int

type t = { lo : int; hi : int }

let point n = { lo = n; hi = n }
let top = { lo = neg_omega; hi = omega }
let is_point iv = iv.lo = iv.hi && iv.lo <> omega && iv.lo <> neg_omega

(* Exact sum of two values in [-ω, ω], clamped to [-ω, ω]. *)
let clamp_add a b =
  if a > 0 && b > omega - a then omega
  else if a < 0 && b < neg_omega - a then neg_omega
  else a + b

(* Endpoint sums: -ω is -∞ for a lower bound and ω is +∞ for an upper
   one; the opposite infinity as an endpoint is a finite (saturated)
   bound and sums exactly. *)
let add a b =
  {
    lo = (if a.lo = neg_omega || b.lo = neg_omega then neg_omega else clamp_add a.lo b.lo);
    hi = (if a.hi = omega || b.hi = omega then omega else clamp_add a.hi b.hi);
  }

let neg a = { lo = -a.hi; hi = -a.lo }
let sub a b = add a (neg b)

(* Extended product with 0 * ω = 0.  A finite operand of magnitude ω
   times any non-zero value saturates anyway, so reading every ±ω as an
   infinity here is exact. *)
let mul_bound a b =
  if a = 0 || b = 0 then 0
  else
    let pos = a > 0 = (b > 0) in
    if a = omega || a = neg_omega || b = omega || b = neg_omega || abs a > omega / abs b
    then if pos then omega else neg_omega
    else a * b

let mul a b =
  let c1 = mul_bound a.lo b.lo
  and c2 = mul_bound a.lo b.hi
  and c3 = mul_bound a.hi b.lo
  and c4 = mul_bound a.hi b.hi in
  { lo = min (min c1 c2) (min c3 c4); hi = max (max c1 c2) (max c3 c4) }

let meet a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let join a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

(* Widening against [ceiling] (the slot's widening target): a growing
   bound jumps straight to the target's bound (ω for counters, the
   declared range end for range slots), so the chain stabilises after one
   jump per side.  The jump rounds OUTWARD past the join — a target
   tighter than the join (a refinement-installed split point that turned
   out too low) never truncates it, so soundness does not depend on the
   target being an invariant; a too-low target merely degrades to exact
   iteration past the split point (bounded by the round cap). *)
let widen ~ceiling ~prev next =
  {
    lo = (if next.lo < prev.lo then min ceiling.lo next.lo else next.lo);
    hi = (if next.hi > prev.hi then max ceiling.hi next.hi else next.hi);
  }

(* The two halves of the refinement partition.  Refinement analyses the
   lower half as the widening target and lets the fixpoint prove the
   upper half unreachable. *)
let split iv c =
  if c < iv.lo || c >= iv.hi then None
  else Some ({ iv with hi = c }, { iv with lo = c + 1 })

let size iv =
  if iv.hi = omega || iv.lo = neg_omega then omega
  else clamp_add (clamp_add iv.hi (-iv.lo)) 1

(* ---- guard narrowing ------------------------------------------------ *)

let narrow (op : Ast.binop) iv r =
  match op with
  | Ast.Eq -> meet iv (point r)
  | Ast.Lt -> meet iv { lo = neg_omega; hi = clamp_add r (-1) }
  | Ast.Le -> meet iv { lo = neg_omega; hi = r }
  | Ast.Gt -> meet iv { lo = clamp_add r 1; hi = omega }
  | Ast.Ge -> meet iv { lo = r; hi = omega }
  | _ -> Some iv (* Ne and non-comparisons: no narrowing *)

let flip = function
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le
  | op -> op

let pp_bound ppf n =
  if n = omega then Fmt.string ppf "ω"
  else if n = neg_omega then Fmt.string ppf "-ω"
  else Fmt.int ppf n

let pp ppf iv =
  if is_point iv then pp_bound ppf iv.lo
  else Fmt.pf ppf "[%a,%a]" pp_bound iv.lo pp_bound iv.hi
