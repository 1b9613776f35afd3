(* Static checking and elaboration: a parsed {!Ast.spec} becomes a
   [checked] spec — constants folded, packet families laid out over a
   contiguous integer alphabet, identifiers resolved to station slots,
   every expression typed — or a list of located errors.

   Beyond resolution and typing, two analyses run per clause:

   - Range containment (errors).  Interval analysis over the station's
     declared bounds, refined by the clause's guard conjuncts, proves that
     every assignment keeps a range variable inside its declared range and
     every counter non-negative, and that every emitted or pushed packet
     argument lies inside its family's parameter range.  What cannot be
     proved is rejected: compiled specs never take a state outside its
     declared space, which is what makes the derived state hooks
     (compare/hash/space-bits) sound by construction.

   - Guard exhaustiveness (warnings).  The bounded variables of a station
     span a small finite valuation space; enumerating it (with counters
     sampled at 0, 1, 2 and around compared literals, and queues at
     empty/non-empty) finds [on]/[poll] clauses whose guard no valuation
     satisfies, and clauses shadowed on every valuation by an earlier
     clause of the same trigger — both almost always spec bugs, neither
     affecting compilability. *)

(* Slot-resolved, const-folded expression. *)
type cexpr =
  | Cint of int
  | Cbool of bool
  | Cslot of int
  | Cbinder
  | Cbudget
  | Cun of Ast.unop * cexpr
  | Cbin of Ast.binop * cexpr * cexpr

type vkind =
  | Kbool of bool  (* initial value *)
  | Krange of int * int * int  (* lo, hi, initial *)
  | Kcounter of int * cexpr option  (* initial, saturate cap over budget *)
  | Kqueue of cexpr option  (* saturate length over budget *)

type slot = { sname : string; kind : vkind }

type cfamily = {
  cfname : string;
  base : int;  (* first packet value of the family *)
  plo : int;  (* parameter range (plo = phi = 0 for parameterless) *)
  phi : int;
  has_param : bool;
}

type cemit = CEsend of cfamily * cexpr option | CEsend_from of int | CEdeliver

type caction =
  | CAset of int * [ `Assign | `Add | `Sub ] * cexpr
  | CApush of int * cfamily * cexpr option

type ctrigger = CTsubmit | CTpacket of cfamily

type cclause = {
  trig : ctrigger option;  (* [None] = poll clause *)
  guard : cexpr option;
  emit : cemit option;
  acts : caction list;
  cspan : Diag.span;  (* the source clause, for located spec-level findings *)
}

type cstation = { slots : slot array; on_clauses : cclause list; poll_clauses : cclause list }

type checked = {
  cname : string;
  cdescribe : string;
  cfamilies : cfamily list;
  total_headers : int;
  csender : cstation;
  creceiver : cstation;
  cprotospan : Diag.span;  (* the protocol declaration, anchoring spec-level findings *)
}

(* Hard caps that keep a hostile spec from allocating absurd alphabets or
   valuation spaces; generous for any protocol in the paper's class. *)
let max_headers = 64
let max_range_span = 4096
let max_consts_abs = 1 lsl 30

exception Fail of Diag.t list

let fail span msg = raise (Fail [ Diag.error span msg ])

(* ------------------------------------------------------ constant folding *)

let rec fold_const consts (e : Ast.expr) : int =
  match e with
  | Ast.Int (n, _) -> n
  | Ast.Bool (_, sp) -> fail sp "expected an integer constant expression, found a boolean"
  | Ast.Ident (x, sp) -> (
      match List.assoc_opt x consts with
      | Some v -> v
      | None ->
          fail sp
            (Printf.sprintf "unknown constant %S (only consts may appear here)" x))
  | Ast.Unop (Ast.Neg, a, _) -> -fold_const consts a
  | Ast.Unop (Ast.Not, _, sp) -> fail sp "boolean operator in an integer constant expression"
  | Ast.Binop (op, a, b, sp) ->
      (* Folded through the saturating interval arithmetic, so an
         overflowing intermediate surfaces here instead of wrapping. *)
      let va = Itv.point (fold_const consts a) and vb = Itv.point (fold_const consts b) in
      let r =
        match op with
        | Ast.Add -> Itv.add va vb
        | Ast.Sub -> Itv.sub va vb
        | Ast.Mul -> Itv.mul va vb
        | _ -> fail sp "comparison or boolean operator in an integer constant expression"
      in
      if Itv.is_point r && abs r.lo <= max_consts_abs then r.lo
      else fail sp "constant expression overflows"

(* ---------------------------------------------------------- typed resolve *)

type namespace = {
  consts : (string * int) list;
  slot_of : string -> int option;
  slots : slot array;
  binder : string option;  (* the packet binder in scope, if any *)
  allow_budget : bool;
}

type ety = Ebool | Eint

let slot_type (s : slot) ~span =
  match s.kind with
  | Kbool _ -> Ebool
  | Krange _ | Kcounter _ -> Eint
  | Kqueue _ ->
      fail span
        (Printf.sprintf "queue %S cannot appear in an expression (queues are only \
                         pushed to and sent from)" s.sname)

let rec resolve ns (e : Ast.expr) : cexpr * ety =
  match e with
  | Ast.Int (n, _) -> (Cint n, Eint)
  | Ast.Bool (b, _) -> (Cbool b, Ebool)
  | Ast.Ident ("budget", sp) ->
      if ns.allow_budget then (Cbudget, Eint)
      else fail sp "\"budget\" is only available in saturate expressions"
  | Ast.Ident (x, sp) -> (
      if ns.binder = Some x then (Cbinder, Eint)
      else
        match ns.slot_of x with
        | Some i -> (Cslot i, slot_type ns.slots.(i) ~span:sp)
        | None -> (
            match List.assoc_opt x ns.consts with
            | Some v -> (Cint v, Eint)
            | None -> fail sp (Printf.sprintf "unknown identifier %S" x)))
  | Ast.Unop (Ast.Neg, a, _) ->
      let ca = resolve_ty ns a Eint in
      (Cun (Ast.Neg, ca), Eint)
  | Ast.Unop (Ast.Not, a, _) ->
      let ca = resolve_ty ns a Ebool in
      (Cun (Ast.Not, ca), Ebool)
  | Ast.Binop (op, a, b, _) -> (
      match op with
      | Ast.Add | Ast.Sub | Ast.Mul ->
          (Cbin (op, resolve_ty ns a Eint, resolve_ty ns b Eint), Eint)
      | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
          (Cbin (op, resolve_ty ns a Eint, resolve_ty ns b Eint), Ebool)
      | Ast.And | Ast.Or ->
          (Cbin (op, resolve_ty ns a Ebool, resolve_ty ns b Ebool), Ebool))

and resolve_ty ns e want =
  let ce, ty = resolve ns e in
  if ty = want then ce
  else
    fail (Ast.expr_span e)
      (Printf.sprintf "this expression is %s but %s was expected"
         (match ty with Ebool -> "boolean" | Eint -> "an integer")
         (match want with Ebool -> "boolean" | Eint -> "an integer"))

(* ------------------------------------------------------ interval analysis *)

(* The abstract state: one {!Itv.t} per int-valued slot (bools and queues
   are not tracked), plus the binder's interval. *)
type aenv = { ivs : Itv.t array; binder_iv : Itv.t }

let init_aenv (slots : slot array) ~binder_range =
  let ivs =
    Array.map
      (fun s ->
        match s.kind with
        | Krange (lo, hi, _) -> { Itv.lo; hi }
        | Kcounter _ -> { Itv.lo = 0; hi = Itv.omega }
        | Kbool _ | Kqueue _ -> Itv.top)
      slots
  in
  { ivs; binder_iv = { Itv.lo = fst binder_range; hi = snd binder_range } }

let rec interval_of (a : aenv) (e : cexpr) : Itv.t =
  match e with
  | Cint n -> Itv.point n
  | Cbool _ -> Itv.top
  | Cslot i -> a.ivs.(i)
  | Cbinder -> a.binder_iv
  | Cbudget -> { Itv.lo = 0; hi = Itv.omega }
  | Cun (Ast.Neg, x) -> Itv.neg (interval_of a x)
  | Cun (Ast.Not, _) -> Itv.top
  | Cbin (Ast.Add, x, y) -> Itv.add (interval_of a x) (interval_of a y)
  | Cbin (Ast.Sub, x, y) -> Itv.sub (interval_of a x) (interval_of a y)
  | Cbin (Ast.Mul, x, y) -> Itv.mul (interval_of a x) (interval_of a y)
  | Cbin (_, _, _) -> Itv.top

(* The one guard-narrowing rule, shared with the spec-level interpreter
   ([Nfc_specint.Dom.refine]) so both narrow alike.  [narrow_guard] walks
   the top-level conjuncts of [g] over an abstract state ['env]: a
   comparison [l OP r] narrows each side that [target] names (its
   interval and a setter) against the other side, when [value_of] gives
   that other side a single value.  Sound because only conjuncts refine
   (a disjunct proves nothing on its own).  [feasible] is asked first at
   every node ([None] when it says no); every node that is neither a
   conjunction nor a comparison goes to [other].  [None] when the guard
   holds on no state of [env]. *)
let rec narrow_guard ~value_of ~target ?(feasible = fun _ _ -> true)
    ?(other = fun env _ -> Some env) env g =
  let side env t op rigid =
    let r = value_of env rigid in
    if not (Itv.is_point r) then Some env
    else
      match target env t with
      | Some (iv, set) -> Option.map set (Itv.narrow op iv r.Itv.lo)
      | None -> Some env
  in
  if not (feasible env g) then None
  else
    match g with
    | Cbin (Ast.And, x, y) ->
        Option.bind (narrow_guard ~value_of ~target ~feasible ~other env x) (fun env ->
            narrow_guard ~value_of ~target ~feasible ~other env y)
    | Cbin ((Ast.Eq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, l, r) ->
        Option.bind (side env l op r) (fun env -> side env r (Itv.flip op) l)
    | _ -> other env g

(* The checker's instance: slots and the binder are the targets. *)
let refine (a : aenv) (g : cexpr) : aenv option =
  narrow_guard a g ~value_of:interval_of ~target:(fun a t ->
      match t with
      | Cslot i ->
          Some
            ( a.ivs.(i),
              fun itv ->
                let ivs = Array.copy a.ivs in
                ivs.(i) <- itv;
                { a with ivs } )
      | Cbinder -> Some (a.binder_iv, fun itv -> { a with binder_iv = itv })
      | _ -> None)

let refine_opt a = function None -> Some a | Some g -> refine a g

(* Declared ranges lie strictly inside ±ω (a bound of ±ω reads as
   unbounded and fails the span checks), so an interval reaching ±ω —
   where native evaluation may have wrapped — is never contained. *)
let within (itv : Itv.t) ~lo ~hi = itv.lo >= lo && itv.hi <= hi

(* Counters are unbounded above, so [within] cannot catch their
   overflow.  A sub-computation whose interval lies entirely at or
   beyond ±ω overflows (or lands exactly on max_int) on every state:
   a counter write containing one is refused.  Overflow that is only
   possible — [c * 2] once [c] has doubled 62 times — is not. *)
let rec certainly_overflows (a : aenv) (e : cexpr) =
  match e with
  | Cun (Ast.Neg, x) -> certainly_overflows a x
  | Cbin ((Ast.Add | Ast.Sub | Ast.Mul), x, y) ->
      let v = interval_of a e in
      v.lo = Itv.omega || v.hi = Itv.neg_omega || certainly_overflows a x
      || certainly_overflows a y
  | _ -> false

(* ------------------------------------------------- clause-level checking *)

(* [aenv] is [None] on a clause whose guard is infeasible: containment
   then holds vacuously, but the structural checks still apply. *)
let check_packet_arg aenv (fam : cfamily) (arg : cexpr option) span =
  match (fam.has_param, arg) with
  | false, Some _ ->
      fail span (Printf.sprintf "packet family %S takes no parameter" fam.cfname)
  | true, None ->
      fail span (Printf.sprintf "packet family %S requires a parameter" fam.cfname)
  | false, None -> ()
  | true, Some ce -> (
      match aenv with
      | Some a when not (within (interval_of a ce) ~lo:fam.plo ~hi:fam.phi) ->
          fail span
            (Printf.sprintf
               "cannot prove this value stays within %S's parameter range %d .. %d"
               fam.cfname fam.plo fam.phi)
      | _ -> ())

let check_actions (slots : slot array) (aenv : aenv option)
    (acts : (caction * Diag.span) list) =
  (* Sequential abstract execution mirroring the interpreter's scratch
     copy: each action reads the post-state of the previous ones. *)
  let a = Option.map (fun a -> { a with ivs = Array.copy a.ivs }) aenv in
  List.iter
    (fun (act, span) ->
      match (act, a) with
      | CApush (_, fam, arg), _ -> check_packet_arg a fam arg span
      | CAset _, None -> ()
      | CAset (i, op, ce), Some a ->
          let s = slots.(i) in
          let v = interval_of a ce in
          let next =
            match op with `Assign -> v | `Add -> Itv.add a.ivs.(i) v | `Sub -> Itv.sub a.ivs.(i) v
          in
          (match s.kind with
          | Kbool _ -> ()  (* typing already ensured a boolean rhs for Assign *)
          | Krange (lo, hi, _) ->
              if not (within next ~lo ~hi) then
                fail span
                  (Printf.sprintf
                     "cannot prove %S stays within its declared range %d .. %d \
                      (guard the clause, e.g. \"when %s > %d\")"
                     s.sname lo hi s.sname lo)
          | Kcounter _ ->
              if next.lo < 0 || next.lo = Itv.omega || certainly_overflows a ce then
                fail span
                  (Printf.sprintf
                     "cannot prove counter %S stays non-negative (guard the clause, \
                      e.g. \"when %s > 0\")"
                     s.sname s.sname)
          | Kqueue _ -> assert false (* resolution rejects queue targets *));
          a.ivs.(i) <- next)
    acts

(* -------------------------------------------- guard exhaustiveness sweep *)

(* Concrete valuation: ints for every slot (bools 0/1, queues by length),
   plus the binder. *)
let rec ceval (vals : int array) ~binder (e : cexpr) : int =
  match e with
  | Cint n -> n
  | Cbool b -> if b then 1 else 0
  | Cslot i -> vals.(i)
  | Cbinder -> binder
  | Cbudget -> 0
  | Cun (Ast.Neg, x) -> -ceval vals ~binder x
  | Cun (Ast.Not, x) -> if ceval vals ~binder x = 0 then 1 else 0
  | Cbin (op, x, y) -> (
      let a = ceval vals ~binder x and b = ceval vals ~binder y in
      match op with
      | Ast.Add -> a + b
      | Ast.Sub -> a - b
      | Ast.Mul -> a * b
      | Ast.Eq -> if a = b then 1 else 0
      | Ast.Ne -> if a <> b then 1 else 0
      | Ast.Lt -> if a < b then 1 else 0
      | Ast.Le -> if a <= b then 1 else 0
      | Ast.Gt -> if a > b then 1 else 0
      | Ast.Ge -> if a >= b then 1 else 0
      | Ast.And -> if a <> 0 && b <> 0 then 1 else 0
      | Ast.Or -> if a <> 0 || b <> 0 then 1 else 0)

(* Integer literals appearing in a station's guards, for counter sampling:
   a guard like [pending == 5] must see a valuation around 5. *)
let rec literals (e : cexpr) acc =
  match e with
  | Cint n -> if n >= 0 && n <= 64 then n :: acc else acc
  | Cun (_, x) -> literals x acc
  | Cbin (_, x, y) -> literals x (literals y acc)
  | _ -> acc

let sample_domain (slots : slot array) (clauses : cclause list) : int list array option =
  let lits =
    List.concat_map
      (fun c -> match c.guard with Some g -> literals g [] | None -> [])
      clauses
  in
  let counter_samples =
    List.sort_uniq compare
      (0 :: 1 :: 2 :: List.concat_map (fun n -> [ max 0 (n - 1); n; n + 1 ]) lits)
  in
  let doms =
    Array.map
      (fun s ->
        match s.kind with
        | Kbool _ -> [ 0; 1 ]
        | Krange (lo, hi, _) ->
            if hi - lo <= 8 then List.init (hi - lo + 1) (fun i -> lo + i)
            else List.sort_uniq compare [ lo; lo + 1; (lo + hi) / 2; hi - 1; hi ]
        | Kcounter _ -> counter_samples
        | Kqueue _ -> [ 0; 1 ] (* queue length proxy: empty / non-empty *))
      slots
  in
  let total = Array.fold_left (fun acc d -> acc * List.length d) 1 doms in
  if total > 20_000 || total <= 0 then None else Some doms

(* All valuations of [doms], visited via an odometer. *)
let iter_valuations (doms : int list array) (f : int array -> unit) =
  let n = Array.length doms in
  let doms = Array.map Array.of_list doms in
  let idx = Array.make n 0 in
  let vals = Array.make n 0 in
  let rec fill i = if i < n then (vals.(i) <- doms.(i).(idx.(i)); fill (i + 1)) in
  let rec tick i =
    if i < 0 then false
    else if idx.(i) + 1 < Array.length doms.(i) then (idx.(i) <- idx.(i) + 1; true)
    else (idx.(i) <- 0; tick (i - 1))
  in
  let continue_ = ref true in
  while !continue_ do
    fill 0;
    f vals;
    continue_ := tick (n - 1)
  done

(* A poll clause's effective guard includes the implicit non-empty test a
   [send from q] emit carries. *)
let effective_guard c vals ~binder =
  let g = match c.guard with None -> true | Some g -> ceval vals ~binder g <> 0 in
  match c.emit with
  | Some (CEsend_from q) -> g && vals.(q) > 0
  | _ -> g

let binder_samples (fam : cfamily) =
  if fam.phi - fam.plo <= 8 then List.init (fam.phi - fam.plo + 1) (fun i -> fam.plo + i)
  else [ fam.plo; fam.plo + 1; (fam.plo + fam.phi) / 2; fam.phi - 1; fam.phi ]

(* For each clause, over the sampled valuation space: can its guard fire
   at all, and can it fire where no earlier same-trigger clause does? *)
let exhaustiveness_warnings (station : string) (slots : slot array)
    (clauses : (cclause * Diag.span) list) : Diag.t list =
  match sample_domain slots (List.map fst clauses) with
  | None -> []  (* valuation space too large; skip the sweep *)
  | Some doms ->
      let warnings = ref [] in
      let groups =
        (* on-clauses grouped by trigger family (or submit); polls as one group *)
        let key c =
          match c.trig with
          | None -> "poll"
          | Some CTsubmit -> "on submit"
          | Some (CTpacket f) -> "on " ^ f.cfname
        in
        let tbl = Hashtbl.create 8 in
        List.iter
          (fun (c, sp) ->
            let k = key c in
            Hashtbl.replace tbl k ((c, sp) :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
          clauses;
        Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) tbl []
      in
      List.iter
        (fun (gname, group) ->
          let n = List.length group in
          let sat = Array.make n false in
          let fresh = Array.make n false in
          let binders =
            match (List.hd group |> fst).trig with
            | Some (CTpacket f) -> binder_samples f
            | _ -> [ 0 ]
          in
          iter_valuations doms (fun vals ->
              List.iter
                (fun b ->
                  let fired = ref false in
                  List.iteri
                    (fun i (c, _) ->
                      if effective_guard c vals ~binder:b then begin
                        sat.(i) <- true;
                        if not !fired then fresh.(i) <- true;
                        fired := true
                      end)
                    group)
                binders);
          List.iteri
            (fun i (_, sp) ->
              if not sat.(i) then
                warnings :=
                  Diag.warning sp
                    (Printf.sprintf
                       "%s: no reachable valuation satisfies this %S guard (clause can \
                        never fire)"
                       station gname)
                  :: !warnings
              else if not fresh.(i) then
                warnings :=
                  Diag.warning sp
                    (Printf.sprintf
                       "%s: this %S clause is shadowed by an earlier clause on every \
                        valuation (first match wins)"
                       station gname)
                  :: !warnings)
            group)
        groups;
      List.rev !warnings

(* --------------------------------------------------------------- station *)

let check_station ~station ~(ns_base : string -> bool) consts families (st : Ast.station) :
    cstation * Diag.t list =
  (* Declarations -> slots.  Saturate expressions resolve in a namespace
     of consts + budget only — no station variables — so they can be
     checked right here, before the slot array exists. *)
  let sat_ns =
    {
      consts;
      slot_of = (fun _ -> None);
      slots = [||];
      binder = None;
      allow_budget = true;
    }
  in
  let resolve_sat = Option.map (fun e -> resolve_ty sat_ns e Eint) in
  let slots = ref [] in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun d ->
      let name = Ast.decl_name d in
      let span = Ast.decl_span d in
      if Hashtbl.mem seen name then
        fail span (Printf.sprintf "duplicate declaration of %S in the %s" name station);
      if ns_base name then
        fail span (Printf.sprintf "%S is already a constant or packet family name" name);
      Hashtbl.add seen name ();
      let kind =
        match d with
        | Ast.Dvar { ty = Ast.Tbool _; init; _ } -> (
            match init with
            | Ast.Bool (b, _) -> Kbool b
            | e -> fail (Ast.expr_span e) "a bool variable's initial value must be true or false")
        | Ast.Dvar { ty = Ast.Trange (lo, hi, tspan); init; _ } ->
            let lo = fold_const consts lo and hi = fold_const consts hi in
            if lo > hi then fail tspan (Printf.sprintf "empty range %d .. %d" lo hi);
            if Itv.size { Itv.lo; hi } > max_range_span + 1 then
              fail tspan (Printf.sprintf "range wider than %d values" max_range_span);
            let init = fold_const consts init in
            if init < lo || init > hi then
              fail (Ast.decl_span d)
                (Printf.sprintf "initial value %d outside the declared range %d .. %d" init
                   lo hi);
            Krange (lo, hi, init)
        | Ast.Dcounter { init; saturate; _ } ->
            let init = fold_const consts init in
            if init < 0 then
              fail (Ast.decl_span d) (Printf.sprintf "counter initial value %d is negative" init);
            Kcounter (init, resolve_sat saturate)
        | Ast.Dqueue { saturate; _ } -> Kqueue (resolve_sat saturate)
      in
      slots := { sname = name; kind } :: !slots)
    st.Ast.decls;
  let slots = Array.of_list (List.rev !slots) in
  let slot_of name =
    let r = ref None in
    Array.iteri (fun i s -> if s.sname = name && !r = None then r := Some i) slots;
    !r
  in
  let family_of name span =
    match List.find_opt (fun f -> f.cfname = name) families with
    | Some f -> f
    | None -> fail span (Printf.sprintf "unknown packet family %S" name)
  in
  let resolve_action ns = function
    | Ast.Aset { target; op; value; span } -> (
        match slot_of target with
        | None -> fail span (Printf.sprintf "unknown variable %S" target)
        | Some i -> (
            match (slots.(i).kind, op) with
            | Kqueue _, _ ->
                fail span
                  (Printf.sprintf "%S is a queue; use \"push %s fam(...)\"" target target)
            | Kbool _, `Assign -> (CAset (i, op, resolve_ty ns value Ebool), span)
            | Kbool _, _ ->
                fail span (Printf.sprintf "+=/-= need an integer variable, %S is bool" target)
            | (Krange _ | Kcounter _), _ -> (CAset (i, op, resolve_ty ns value Eint), span)))
    | Ast.Apush { queue; family; arg; span } -> (
        match slot_of queue with
        | Some i when (match slots.(i).kind with Kqueue _ -> true | _ -> false) ->
            let fam = family_of family span in
            let carg = Option.map (fun e -> resolve_ty ns e Eint) arg in
            (CApush (i, fam, carg), span)
        | Some _ -> fail span (Printf.sprintf "%S is not a queue" queue)
        | None -> fail span (Printf.sprintf "unknown queue %S" queue))
  in
  (* Clauses. *)
  let on_clauses = ref [] in
  let poll_clauses = ref [] in
  let all_with_spans = ref [] in
  List.iter
    (fun cl ->
      let mk_ns ~binder = { consts; slot_of; slots; binder; allow_budget = false } in
      match cl with
      | Ast.Con { trigger; guard; actions; span } ->
          let trig, binder, binder_range =
            match trigger with
            | Ast.Tsubmit sp ->
                if station <> "sender" then
                  fail sp "\"on submit\" is only meaningful in the sender";
                (CTsubmit, None, (0, 0))
            | Ast.Tpacket { family; binder; span = fsp } ->
                let fam = family_of family fsp in
                (match binder with
                | Some b when not fam.has_param ->
                    fail fsp
                      (Printf.sprintf "packet family %S has no parameter to bind to %S"
                         family b)
                | Some b when slot_of b <> None || ns_base b ->
                    fail fsp (Printf.sprintf "binder %S shadows an existing name" b)
                | _ -> ());
                (CTpacket fam, binder, (fam.plo, fam.phi))
          in
          let ns = mk_ns ~binder in
          let cguard = Option.map (fun g -> resolve_ty ns g Ebool) guard in
          let cacts = List.map (resolve_action ns) actions in
          (* Interval pass: initial bounds, guard-refined. *)
          let a0 = init_aenv slots ~binder_range in
          check_actions slots (refine_opt a0 cguard) cacts;
          let c =
            { trig = Some trig; guard = cguard; emit = None; acts = List.map fst cacts;
              cspan = span }
          in
          on_clauses := c :: !on_clauses;
          all_with_spans := (c, span) :: !all_with_spans
      | Ast.Cpoll { guard; emit; actions; span } ->
          let ns = mk_ns ~binder:None in
          let cguard = Option.map (fun g -> resolve_ty ns g Ebool) guard in
          let a1 = refine_opt (init_aenv slots ~binder_range:(0, 0)) cguard in
          let cemit =
            match emit with
            | None -> None  (* quiet poll: no emission, actions only *)
            | Some (Ast.Edeliver sp) ->
                if station <> "receiver" then
                  fail sp "\"deliver\" is only meaningful in the receiver";
                Some CEdeliver
            | Some (Ast.Esend { family; arg; span = esp }) ->
                let fam = family_of family esp in
                let carg = Option.map (fun e -> resolve_ty ns e Eint) arg in
                check_packet_arg a1 fam carg esp;
                Some (CEsend (fam, carg))
            | Some (Ast.Esend_from { queue; span = qsp }) -> (
                match slot_of queue with
                | Some i when (match slots.(i).kind with Kqueue _ -> true | _ -> false) ->
                    Some (CEsend_from i)
                | Some _ -> fail qsp (Printf.sprintf "%S is not a queue" queue)
                | None -> fail qsp (Printf.sprintf "unknown queue %S" queue))
          in
          let cacts = List.map (resolve_action ns) actions in
          check_actions slots a1 cacts;
          let c =
            { trig = None; guard = cguard; emit = cemit; acts = List.map fst cacts;
              cspan = span }
          in
          poll_clauses := c :: !poll_clauses;
          all_with_spans := (c, span) :: !all_with_spans)
    st.Ast.clauses;
  let warnings = exhaustiveness_warnings station slots (List.rev !all_with_spans) in
  ( { slots; on_clauses = List.rev !on_clauses; poll_clauses = List.rev !poll_clauses },
    warnings )

(* ------------------------------------------------------------------ spec *)

let run (spec : Ast.spec) : (checked * Diag.t list, Diag.t list) result =
  match
    (* Constants: ordered, no forward references. *)
    let consts =
      List.fold_left
        (fun acc (name, e, span) ->
          if List.mem_assoc name acc then
            fail span (Printf.sprintf "duplicate constant %S" name);
          if name = "budget" then fail span "\"budget\" is a reserved name";
          (name, fold_const acc e) :: acc)
        [] spec.Ast.consts
      |> List.rev
    in
    (* Packet families: contiguous value layout in declaration order. *)
    let families, total =
      List.fold_left
        (fun (acc, base) (f : Ast.family) ->
          if List.exists (fun g -> g.cfname = f.Ast.fname) acc then
            fail f.Ast.fspan (Printf.sprintf "duplicate packet family %S" f.Ast.fname);
          let plo, phi, has_param =
            match f.Ast.param with
            | None -> (0, 0, false)
            | Some (_, lo, hi) ->
                let lo = fold_const consts lo and hi = fold_const consts hi in
                if lo > hi then
                  fail f.Ast.fspan (Printf.sprintf "empty parameter range %d .. %d" lo hi);
                (lo, hi, true)
          in
          let size = Itv.size { Itv.lo = plo; hi = phi } in
          if size > max_headers - base then
            fail f.Ast.fspan
              (Printf.sprintf "packet alphabet exceeds %d distinct values" max_headers);
          ({ cfname = f.Ast.fname; base; plo; phi; has_param } :: acc, base + size))
        ([], 0) spec.Ast.families
    in
    let families = List.rev families in
    let ns_base name =
      List.mem_assoc name consts || List.exists (fun f -> f.cfname = name) families
    in
    let csender, w1 = check_station ~station:"sender" ~ns_base consts families spec.Ast.sender in
    let creceiver, w2 =
      check_station ~station:"receiver" ~ns_base consts families spec.Ast.receiver
    in
    ( {
        cname = spec.Ast.name;
        cdescribe = Option.value spec.Ast.describe ~default:spec.Ast.name;
        cfamilies = families;
        total_headers = total;
        csender;
        creceiver;
        cprotospan = spec.Ast.span;
      },
      w1 @ w2 )
  with
  | result -> Ok result
  | exception Fail ds -> Error ds
