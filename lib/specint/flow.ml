(* The coupled two-station fixpoint over a checked PDL spec.

   Each station gets one abstract environment (Dom.env) over-approximating
   every state the concrete interpreter can reach, under ANY submission
   budget, node budget and channel capacity: submissions are always
   enabled, and the channel between the stations is abstracted by the two
   packet alphabets (every packet either station has ever been able to
   emit may arrive at the peer, arbitrarily reordered, duplicated by
   retransmission, or dropped — exactly the non-FIFO/PL2 regime, so the
   abstraction needs no queue of in-transit packets at all).

   First-match dispatch is over-approximated by firing every clause whose
   guard is feasible, ignoring the negation of earlier guards; a clause
   that is infeasible on this superset of reachable states is therefore
   dead in every concrete run (the Q1 dead-clause report is sound).
   Saturation hooks only shrink counter/queue values, so forcing the
   interval floor of saturating counters to 0 keeps the envs upper
   bounds. *)

module Check = Nfc_pdl.Check
module Itv = Nfc_pdl.Itv
module Opvec = Nfc_absint.Opvec
module Iset = Set.Make (Int)

(* Widening kicks in after this many rounds, so small finite loops (a
   timer counting to its bound, a guarded counter) settle to their exact
   interval before ω is considered. *)
let widen_delay = 6

(* Hard cap: with widening every slot changes O(1) times after the delay,
   so this is never reached; [converged = false] downgrades all verdicts
   to Unknown if it ever is. *)
let max_iterations = 200

type clause_kind = [ `On | `Poll ]

type station = {
  slots : Check.slot array;
  ceilings : Itv.t array;  (* declared domains, the post-action clamp *)
  targets : Itv.t array;
      (* per-slot widening targets: the declared domain by default, a
         refinement-installed split interval when the CEGAR loop
         re-runs the fixpoint on a partitioned slot ({!Itv.split}).
         Targets only steer where widening jumps — {!Itv.widen}
         rounds outward past the join, so any target is sound. *)
  saturating : bool array;   (* counter slots with a saturation hook *)
  clauses : (Check.cclause * clause_kind) array;
  mutable env : Dom.env;
  feasible : bool array;  (* clause ever enabled at the fixpoint *)
}

(* Provenance of a widening jump: the abstract witness the refinement
   loop replays.  [wspan] is the clause whose firing's join pushed the
   slot past its previous bound in iteration [witer] — the "sequence of
   clause firings" collapses to its last, deciding element, which is the
   one that names the pumping construct in the source. *)
type widen_event = {
  wstation : string;  (* "sender" | "receiver" *)
  wslot : int;
  wname : string;
  wspan : Nfc_pdl.Diag.span;
  witer : int;
  womega : bool;  (* true when the jump introduced an unbounded value *)
}

let make_station ?(targets = []) (cs : Check.cstation) : station =
  let slots = cs.Check.slots in
  let init =
    Array.map
      (fun (s : Check.slot) ->
        match s.Check.kind with
        | Check.Kbool b -> Dom.Abool (Dom.bv_of_bool b)
        | Check.Krange (_, _, init) -> Dom.Aint (Itv.point init)
        | Check.Kcounter (init, _) -> Dom.Aint (Itv.point init)
        | Check.Kqueue _ -> Dom.Aqueue Opvec.empty)
      slots
  in
  let ceilings =
    Array.map
      (fun (s : Check.slot) ->
        match s.Check.kind with
        | Check.Krange (lo, hi, _) -> { Itv.lo; hi }
        | _ -> { Itv.lo = 0; hi = Itv.omega })
      slots
  in
  let saturating =
    Array.map
      (fun (s : Check.slot) ->
        match s.Check.kind with Check.Kcounter (_, Some _) -> true | _ -> false)
      slots
  in
  let clauses =
    Array.of_list
      (List.map (fun c -> (c, `On)) cs.Check.on_clauses
      @ List.map (fun c -> (c, `Poll)) cs.Check.poll_clauses)
  in
  let widen_targets =
    Array.mapi
      (fun i dflt ->
        match List.assoc_opt i targets with Some iv -> iv | None -> dflt)
      ceilings
  in
  {
    slots;
    ceilings;
    targets = widen_targets;
    saturating;
    clauses;
    env = { Dom.vals = init; binder = Itv.top };
    feasible = Array.make (Array.length clauses) false;
  }

(* ---- packets -------------------------------------------------------- *)

(* Concrete packet values a family emit can produce when its parameter
   ranges over [iv] (clamped to the declared parameter range — the
   checker guarantees containment, the clamp keeps us total). *)
let family_packets (fam : Check.cfamily) (iv : Itv.t) : Iset.t =
  if not fam.Check.has_param then Iset.singleton fam.Check.base
  else
    let lo = max fam.Check.plo iv.Itv.lo and hi = min fam.Check.phi iv.Itv.hi in
    let rec go v acc =
      if v > hi then acc
      else go (v + 1) (Iset.add (fam.Check.base + (v - fam.Check.plo)) acc)
    in
    go lo Iset.empty

(* Parameter interval of the incoming packets of [fam] present in
   [alpha]; [None] when no packet of the family can arrive. *)
let binder_of_family (fam : Check.cfamily) (alpha : Iset.t) : Itv.t option =
  let lo_pkt = fam.Check.base
  and hi_pkt = fam.Check.base + (fam.Check.phi - fam.Check.plo) in
  let params =
    Iset.filter (fun p -> p >= lo_pkt && p <= hi_pkt) alpha
    |> Iset.map (fun p -> fam.Check.plo + (p - fam.Check.base))
  in
  match (Iset.min_elt_opt params, Iset.max_elt_opt params) with
  | Some lo, Some hi -> Some { Itv.lo; hi }
  | _ -> None

(* ---- clause transfer ------------------------------------------------ *)

(* Post-action clamp: range/counter slots meet their declared domain,
   and saturating counters keep a 0 floor (saturation may shrink them to
   any cap at any time).  The checker proved containment from the whole
   declared box with the same {!Itv} arithmetic and guard narrowing, and
   this env lies inside that box, so by monotonicity the meet is never
   empty on a feasible path; an empty meet would mark the path
   infeasible. *)
let clamp (st : station) (e : Dom.env) : Dom.env option =
  let ok = ref true in
  let vals =
    Array.mapi
      (fun i v ->
        match v with
        | Dom.Aint iv -> (
            match Itv.meet iv st.ceilings.(i) with
            | None ->
                ok := false;
                v
            | Some iv ->
                let iv =
                  if st.saturating.(i) && iv.Itv.lo > 0 then
                    { iv with Itv.lo = 0 }
                  else iv
                in
                Dom.Aint iv)
        | v -> v)
      e.Dom.vals
  in
  if !ok then Some { e with Dom.vals } else None

let apply_action (st : station) (e : Dom.env) (a : Check.caction) : Dom.env =
  match a with
  | Check.CAset (i, op, ce) ->
      let vals = Array.copy e.Dom.vals in
      (match st.slots.(i).Check.kind with
      | Check.Kbool _ -> vals.(i) <- Dom.Abool (Dom.as_bv (Dom.eval e ce))
      | Check.Krange _ | Check.Kcounter _ ->
          let v = Dom.as_iv (Dom.eval e ce) in
          let cur =
            match e.Dom.vals.(i) with Dom.Aint iv -> iv | _ -> Itv.top
          in
          let next =
            match op with
            | `Assign -> v
            | `Add -> Itv.add cur v
            | `Sub -> Itv.sub cur v
          in
          vals.(i) <- Dom.Aint next
      | Check.Kqueue _ -> () (* checker rejects set on queues *));
      { e with Dom.vals }
  | Check.CApush (qi, fam, arg) ->
      let iv =
        match arg with
        | None -> Itv.point 0
        | Some ce -> Dom.as_iv (Dom.eval e ce)
      in
      let pkts = family_packets fam iv in
      let vals = Array.copy e.Dom.vals in
      (match e.Dom.vals.(qi) with
      | Dom.Aqueue q ->
          vals.(qi) <- Dom.Aqueue (Iset.fold (fun p q -> Opvec.add q p) pkts q)
      | _ -> ());
      { e with Dom.vals }

type fired = {
  post : Dom.env option;  (* post-action env, None when the path died *)
  emits : Iset.t;  (* packets the clause can put on the channel *)
}

(* Abstract one clause firing from [e] (already binder-equipped for
   on-packet clauses).  [None] = guard infeasible. *)
let fire (st : station) (e : Dom.env) (c : Check.cclause) : fired option =
  (* [send from q] carries an implicit non-empty test. *)
  let implicit_ok =
    match c.Check.emit with
    | Some (Check.CEsend_from q) -> (
        match e.Dom.vals.(q) with
        | Dom.Aqueue v -> Opvec.support v <> []
        | _ -> true)
    | _ -> true
  in
  if not implicit_ok then None
  else
    match Dom.refine_opt e c.Check.guard with
    | None -> None
    | Some e' ->
        (* Emitted values are computed on the refined PRE-action state,
           exactly like the interpreter. *)
        let emits =
          match c.Check.emit with
          | None | Some Check.CEdeliver -> Iset.empty
          | Some (Check.CEsend (fam, arg)) ->
              let iv =
                match arg with
                | None -> Itv.point 0
                | Some ce -> Dom.as_iv (Dom.eval e' ce)
              in
              family_packets fam iv
          | Some (Check.CEsend_from q) -> (
              match e'.Dom.vals.(q) with
              | Dom.Aqueue v -> Iset.of_list (Opvec.support v)
              | _ -> Iset.empty)
        in
        (* Popping one element only shrinks the queue, so the multiset
           upper bound carries over unchanged to the post-state. *)
        let post =
          clamp st (List.fold_left (apply_action st) e' c.Check.acts)
        in
        Some { post; emits }

(* ---- the fixpoint --------------------------------------------------- *)

type station_result = {
  env : Dom.env;
  slots : Check.slot array;
  dead : (Check.cclause * clause_kind) list;  (* never-feasible clauses *)
  state_bound : int;  (* |γ(env)| upper bound, ω when unbounded *)
  omega_slots : string list;  (* slots with an unbounded abstract value *)
}

type result = {
  sender : station_result;
  receiver : station_result;
  alphabet_tr : Iset.t;  (* sender → receiver packets *)
  alphabet_rt : Iset.t;  (* receiver → sender packets *)
  iterations : int;
  converged : bool;
  widened : widen_event list;
      (* first ω-introducing widening jump per slot, in discovery order *)
}

(* Is a slot value unbounded above (interval reaching ω, or a queue with
   an ω-accelerated count)? — the condition the widening witness
   records. *)
let aval_unbounded = function
  | Dom.Aint iv -> iv.Itv.hi = Itv.omega
  | Dom.Aqueue q -> Opvec.fold (fun _ c acc -> acc || c = Opvec.omega) q false
  | Dom.Abool _ -> false

(* One chaotic-iteration round over a station: fire every clause against
   the current env (updated in place, so later clauses see earlier
   effects — still a sound over-approximation) and accumulate emitted
   packets.  Returns whether anything changed.  When [widen] is on and a
   join pushes a slot to an unbounded value, the first such jump per slot
   is recorded in [events] with the responsible clause's span — the
   abstract witness the refinement loop starts from. *)
let step ~widen ~name ~iter ~(events : widen_event list ref) (st : station)
    (incoming : Iset.t) (out : Iset.t ref) : bool =
  let changed = ref false in
  Array.iteri
    (fun idx (c, _kind) ->
      let starts =
        match c.Check.trig with
        | Some Check.CTsubmit | None -> [ { st.env with Dom.binder = Itv.top } ]
        | Some (Check.CTpacket fam) -> (
            match binder_of_family fam incoming with
            | None -> []
            | Some b -> [ { st.env with Dom.binder = b } ])
      in
      List.iter
        (fun e ->
          match fire st e c with
          | None -> ()
          | Some f ->
              if not st.feasible.(idx) then begin
                st.feasible.(idx) <- true;
                changed := true
              end;
              if not (Iset.subset f.emits !out) then begin
                out := Iset.union f.emits !out;
                changed := true
              end;
              (match f.post with
              | None -> ()
              | Some post ->
                  let before = st.env in
                  let joined, c' =
                    Dom.join_env ~widen ~ceilings:st.targets ~into:st.env
                      { post with Dom.binder = Itv.top }
                  in
                  if c' then begin
                    if widen then
                      Array.iteri
                        (fun i v ->
                          if
                            aval_unbounded v
                            && (not (aval_unbounded before.Dom.vals.(i)))
                            && not
                                 (List.exists
                                    (fun w ->
                                      w.wstation = name && w.wslot = i)
                                    !events)
                          then
                            events :=
                              {
                                wstation = name;
                                wslot = i;
                                wname = st.slots.(i).Check.sname;
                                wspan = c.Check.cspan;
                                witer = iter;
                                womega = true;
                              }
                              :: !events)
                        joined.Dom.vals;
                    st.env <- joined;
                    changed := true
                  end))
        starts)
    st.clauses;
  !changed

let measure (st : station) : int * string list =
  let omega_slots = ref [] in
  let bound =
    Array.to_list st.env.Dom.vals
    |> List.mapi (fun i v ->
           let m =
             match v with
             | Dom.Abool b -> Dom.bv_size b
             | Dom.Aint iv -> Itv.size iv
             | Dom.Aqueue q ->
                 (* Queue states are sequences over the support with
                    length at most the total count: sum_{k<=len} |sup|^k. *)
                 let sup = List.length (Opvec.support q) in
                 let len =
                   Opvec.fold (fun _ c acc -> Opvec.sat_add c acc) q 0
                 in
                 if sup = 0 then 1
                 else if len = Opvec.omega then Opvec.omega
                 else
                   let rec geo k acc term =
                     if k > len then acc
                     else
                       let term = Opvec.sat_mul term sup in
                       geo (k + 1) (Opvec.sat_add acc term) term
                   in
                   geo 1 1 1
           in
           if m = Itv.omega then
             omega_slots := st.slots.(i).Check.sname :: !omega_slots;
           m)
    |> List.fold_left Opvec.sat_mul 1
  in
  (bound, List.rev !omega_slots)

let finish (st : station) : station_result =
  let dead =
    Array.to_list st.clauses
    |> List.filteri (fun i _ -> not st.feasible.(i))
  in
  let state_bound, omega_slots = measure st in
  { env = st.env; slots = st.slots; dead; state_bound; omega_slots }

(* [sender_targets]/[receiver_targets] are per-slot widening-target
   overrides, (slot index, interval) pairs — the refinement loop's
   disjunctive split intervals.  The default run widens counters straight
   to ω. *)
let run ?(sender_targets = []) ?(receiver_targets = []) (ck : Check.checked) :
    result =
  let s = make_station ~targets:sender_targets ck.Check.csender
  and r = make_station ~targets:receiver_targets ck.Check.creceiver in
  let alpha_tr = ref Iset.empty and alpha_rt = ref Iset.empty in
  let iterations = ref 0 and converged = ref false in
  let events = ref [] in
  while (not !converged) && !iterations < max_iterations do
    incr iterations;
    let widen = !iterations > widen_delay in
    let iter = !iterations in
    let c1 = step ~widen ~name:"sender" ~iter ~events s !alpha_rt alpha_tr in
    let c2 = step ~widen ~name:"receiver" ~iter ~events r !alpha_tr alpha_rt in
    if not (c1 || c2) then converged := true
  done;
  {
    sender = finish s;
    receiver = finish r;
    alphabet_tr = !alpha_tr;
    alphabet_rt = !alpha_rt;
    iterations = !iterations;
    converged = !converged;
    widened = List.rev !events;
  }
