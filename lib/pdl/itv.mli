(** ω-encoded integer intervals — the one interval domain shared by the
    PDL checker's range-containment pass ({!Check}), the spec-level
    abstract interpreter ([Nfc_specint]) and its refinement loop
    ([Nfc_refine]).

    An interval [{lo; hi}] denotes the mathematical integers [n] with
    [lo <= n <= hi], where [hi = omega] reads as +∞ and [lo = neg_omega]
    as -∞.  ω is [max_int] (the same encoding as
    [Nfc_absint.Opvec.omega]); [-ω] is its negation, so [min_int] is
    never a bound.  Both are plain ints, so the usual comparisons order
    them correctly.

    Arithmetic saturates instead of wrapping: whenever the exact result
    of an endpoint computation leaves [[-ω, ω]], it is clamped to ±ω.
    Hence, for any [x] in [a] and [y] in [b], the exact [x + y] lies in
    [add a b] when it is in [[-ω, ω]], and [add a b] reaches ω (resp.
    -ω) on the side where it is not; likewise for [sub] and [mul].
    Concrete native-int evaluation can only wrap where these results
    reach ±ω; a declared range never contains ±ω, so proving an
    expression inside one also proves it never wraps. *)

type t = { lo : int; hi : int }
(** Invariant: [lo <= hi].  Empty intervals are never values; emptiness
    is [None] from {!meet}, {!narrow} and {!split}. *)

val omega : int
val neg_omega : int
val point : int -> t

val top : t
(** [[-ω, ω]]. *)

val is_point : t -> bool
(** A single finite value (neither endpoint is ±ω). *)

val add : t -> t -> t
val neg : t -> t
val sub : t -> t -> t

val mul : t -> t -> t
(** Corner products, ±ω treated as infinities with [0 * ω = 0] (an
    operand that is exactly 0 stays 0 however large the other side). *)

val meet : t -> t -> t option
val join : t -> t -> t

val widen : ceiling:t -> prev:t -> t -> t
(** [widen ~ceiling ~prev next]: a bound of [next] that grew past [prev]
    jumps to [ceiling]'s bound, rounding outward past [next] — a ceiling
    tighter than [next] never truncates it, so the result
    over-approximates [next] whatever the ceiling. *)

val split : t -> int -> (t * t) option
(** [split iv c] = [([lo, c], [c+1, hi])]; [None] when [c] does not cut
    the interior ([c < lo] or [c >= hi]). *)

val size : t -> int
(** Number of values, ω when unbounded or too many to count. *)

val narrow : Ast.binop -> t -> int -> t option
(** [narrow op iv r]: [iv] restricted to the values [v] with [v op r]
    ([Eq], [Lt], [Le], [Gt], [Ge]); [None] when none remain.  Every
    other operator leaves [iv] unchanged. *)

val flip : Ast.binop -> Ast.binop
(** Mirror a comparison: [r op v] holds iff [v (flip op) r]. *)

val pp : t Fmt.t
(** A finite point as its value, otherwise [[lo,hi]] with ω/-ω. *)
