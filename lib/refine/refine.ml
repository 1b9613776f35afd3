(* Counterexample-guided abstraction refinement around {!Nfc_specint}.

   The one-shot abstract interpreter widens free-running counters
   straight to ω, leaving B1 ω-parametric and downstream consumers with
   an Unknown-shaped certificate.  This loop turns those into located
   verdicts:

   1. Run the coupled fixpoint ({!Nfc_specint.Flow.run}).  If the state
      product is concrete, done.
   2. Otherwise take the abstract witness: the first recorded widening
      jump ({!Nfc_specint.Flow.widen_event}) — the clause firing whose
      join pushed a slot to ω, with its source span.
   3. Extract candidate invariants from the spec itself: every
      [And]-conjunct comparison against a constant that upper-bounds the
      slot ([x < c], [x <= c], [c >= x], ...) yields the candidate
      bound c (adjusted by the largest constant increment any clause
      applies to the slot, since guards are checked pre-action).
   4. Replay the candidate concretely on the runtime-compiled automaton:
      a bounded sequential BFS ({!Nfc_mcheck.Explore.Make.replay_monitor})
      checks [slot <= candidate] on every reachable configuration under
      the delivery-gated semantics.
      - A violation is REAL: the candidate is refuted by a
        span-carrying concrete trace, reported as an R1 [Fail] finding.
        The slot really pumps past its guard constant.
      - Upheld (or budget-truncated): the witness is treated as
        spurious at this bound; install the split interval [0, c] as
        the slot's widening target ({!Nfc_pdl.Itv.split} is the
        underlying partition) and re-run the fixpoint on the
        disjunctively refined control product.
   5. Repeat under a round cap.  A re-run that fails to stabilise
      uninstalls its target and degrades to the one-shot answer —
      refinement can tighten or locate, never flip a verdict unsoundly.

   Soundness does NOT rest on the replay: {!Nfc_pdl.Itv.widen}
   rounds outward past the join even when a target is installed, so any
   converged re-run is a genuine over-approximating fixpoint whatever
   targets steered it.  The replay only (a) filters candidates so we
   don't burn rounds on refuted invariants and (b) produces the concrete
   traces behind R1. *)

module Ast = Nfc_pdl.Ast
module Check = Nfc_pdl.Check
module Compile = Nfc_pdl.Compile
module Diag = Nfc_pdl.Diag
module Explore = Nfc_mcheck.Explore
module Json = Nfc_util.Json
module Itv = Nfc_pdl.Itv
module Flow = Nfc_specint.Flow
module Specint = Nfc_specint.Specint

(* Replay bounds: small capacities keep the gated BFS cheap (the replay
   is a falsification probe, not a verification pass), while the node
   budget is generous enough to reach the shallow pumping loops real
   specs exhibit. *)
let default_replay_bounds =
  { Explore.default_bounds with capacity_tr = 2; capacity_rt = 2; max_nodes = 40_000 }

let default_rounds = 3

(* ---- candidate extraction ------------------------------------------- *)

let rec conjuncts (e : Check.cexpr) acc =
  match e with
  | Check.Cbin (Ast.And, a, b) -> conjuncts a (conjuncts b acc)
  | e -> e :: acc

(* Upper bound on slot [i] implied by one comparison conjunct, [None]
   when the conjunct says nothing about [i]'s maximum.  Elaboration has
   already constant-folded, so comparisons against literals appear as
   [Cint]. *)
let conjunct_upper i conj =
  let narrowed =
    match conj with
    | Check.Cbin (op, Check.Cslot j, Check.Cint c) when j = i -> Itv.narrow op Itv.top c
    | Check.Cbin (op, Check.Cint c, Check.Cslot j) when j = i ->
        Itv.narrow (Itv.flip op) Itv.top c
    | _ -> None
  in
  match narrowed with Some { Itv.hi; _ } when hi <> Itv.omega -> Some hi | _ -> None

let station_clauses (cs : Check.cstation) =
  cs.Check.on_clauses @ cs.Check.poll_clauses

(* The largest constant a single clause firing can add to slot [i]
   (guards are evaluated pre-action, so a slot guarded by [x < c] can
   still reach [c - 1 + incr]).  [None] when some assignment to [i] is
   not a constant add/assign — then no guard constant bounds the slot
   and refinement abstains. *)
let max_step (cs : Check.cstation) i : int option =
  let ok = ref true and incr_max = ref 0 in
  List.iter
    (fun (c : Check.cclause) ->
      List.iter
        (fun a ->
          match a with
          | Check.CAset (j, _, _) when j <> i -> ()
          | Check.CAset (_, `Sub, _) -> () (* only shrinks the maximum *)
          | Check.CAset (_, `Add, Check.Cint k) ->
              if k > 0 then incr_max := max !incr_max k
          | Check.CAset (_, `Assign, Check.Cint _) -> ()
          | Check.CAset (_, (`Add | `Assign), _) -> ok := false
          | Check.CApush _ -> ())
        c.Check.acts)
    (station_clauses cs);
  if !ok then Some !incr_max else None

(* Direct constant assignments are reachable values in their own right. *)
let assign_consts (cs : Check.cstation) i =
  List.concat_map
    (fun (c : Check.cclause) ->
      List.filter_map
        (function
          | Check.CAset (j, `Assign, Check.Cint k) when j = i -> Some k
          | _ -> None)
        c.Check.acts)
    (station_clauses cs)

(* Candidate upper bounds for slot [i], ascending: each guard-derived
   bound plus the worst-case single-step increment, plus assigned
   constants.  Empty when the slot is unguarded or stepped by a
   non-constant amount. *)
let candidates (cs : Check.cstation) i : int list =
  match max_step cs i with
  | None -> []
  | Some step ->
      let from_guards =
        List.concat_map
          (fun (c : Check.cclause) ->
            match c.Check.guard with
            | None -> []
            | Some g ->
                List.filter_map (conjunct_upper i) (conjuncts g []))
          (station_clauses cs)
      in
      List.sort_uniq compare
        (List.map (fun b -> b + step) from_guards @ assign_consts cs i)

(* ---- the loop -------------------------------------------------------- *)

type round_action =
  | Promoted of int  (* candidate installed; fixpoint reconverged *)
  | Refuted of int * int  (* candidate, concrete witness trace length *)
  | Diverged of int  (* installed target failed to stabilise; uninstalled *)
  | No_candidates

type round = {
  index : int;
  station : string;  (* "sender" | "receiver" *)
  slot_name : string;
  action : round_action;
}

type refutation = {
  rstation : string;
  rslot : string;
  rbound : int;
  rtrace_len : int;
  rspan : Diag.span;
}

type result = {
  base : Specint.report;  (* the one-shot report refinement started from *)
  report : Specint.report;  (* final report, R1 findings appended *)
  rounds_used : int;
  promoted : bool;  (* ω-parametric product became concrete *)
  history : Specint.report list;
      (* report after the base run and after every accepted re-run, in
         order — each entry is a sound fixpoint in its own right, which
         is what the per-round soundness property tests *)
  rounds : round list;
  refuted : refutation list;
}

let r1_finding (r : refutation) : Specint.finding =
  {
    Specint.rule = "R1";
    verdict = Specint.Fail;
    message =
      Fmt.str
        "refinement: candidate invariant %s.%s <= %d concretely refuted by a \
         %d-action witness trace (pumping clause here); the slot exceeds its \
         guard-derived bound"
        r.rstation r.rslot r.rbound r.rtrace_len;
    span = Some r.rspan;
    why = None;
  }

let run ?(rounds = default_rounds) ?(replay_bounds = default_replay_bounds)
    (ck : Check.checked) : result =
  let (module P : Compile.SPEC_PROBED) = Compile.to_spec_probed ck in
  let module E = Explore.Make (P) in
  let slot_of w (cfg : E.config) =
    if w.Flow.wstation = "sender" then P.sender_slot w.Flow.wslot (E.sender_of cfg.E.sid)
    else P.receiver_slot w.Flow.wslot (E.receiver_of cfg.E.rid)
  in
  let base_flow = Flow.run ck in
  let base = Specint.of_flow ck base_flow in
  let targets_s = ref [] and targets_r = ref [] in
  let banned : (string * int, unit) Hashtbl.t = Hashtbl.create 8 in
  let tried : (string * int, int list) Hashtbl.t = Hashtbl.create 8 in
  let history = ref [ base ] in
  let round_logs = ref [] in
  let refutations = ref [] in
  let current_flow = ref base_flow in
  let current = ref base in
  let rounds_used = ref 0 in
  let finished = ref false in
  let key w = (w.Flow.wstation, w.Flow.wslot) in
  let station_of w = if w.Flow.wstation = "sender" then ck.Check.csender else ck.Check.creceiver in
  let log w action =
    round_logs :=
      {
        index = !rounds_used;
        station = w.Flow.wstation;
        slot_name = w.Flow.wname;
        action;
      }
      :: !round_logs
  in
  while (not !finished) && !rounds_used < rounds do
    if !current.Specint.converged && !current.Specint.product <> Itv.omega then
      finished := true
    else
      (* The abstract witness: first ω-introducing widening jump whose
         slot is not already given up on. *)
      match
        List.find_opt
          (fun w -> not (Hashtbl.mem banned (key w)))
          !current_flow.Flow.widened
      with
      | None -> finished := true
      | Some w -> (
          incr rounds_used;
          let seen = Option.value ~default:[] (Hashtbl.find_opt tried (key w)) in
          let cands =
            List.filter (fun c -> not (List.mem c seen)) (candidates (station_of w) w.Flow.wslot)
          in
          match cands with
          | [] ->
              Hashtbl.replace banned (key w) ();
              log w No_candidates
          | c :: _ -> (
              Hashtbl.replace tried (key w) (c :: seen);
              let monitor cfg = slot_of w cfg <= c in
              match E.replay_monitor ~monitor replay_bounds with
              | E.Replay_refuted (trace, _cfg, _stats) ->
                  (* Real counterexample: the invariant candidate is
                     false, so there is nothing to install — record the
                     located refutation and (next round) escalate to the
                     next candidate if any. *)
                  refutations :=
                    {
                      rstation = w.Flow.wstation;
                      rslot = w.Flow.wname;
                      rbound = c;
                      rtrace_len = List.length trace;
                      rspan = w.Flow.wspan;
                    }
                    :: !refutations;
                  if
                    List.for_all (fun c' -> List.mem c' (c :: seen))
                      (candidates (station_of w) w.Flow.wslot)
                  then Hashtbl.replace banned (key w) ();
                  log w (Refuted (c, List.length trace))
              | E.Replay_upheld (_stats, _truncated) -> (
                  (* Spurious at this bound: partition the slot's domain
                     at the guard constant and re-run the fixpoint with
                     the bounded half as the widening target. *)
                  let install =
                    if w.Flow.wstation = "sender" then targets_s else targets_r
                  in
                  let saved = !install in
                  install := (w.Flow.wslot, { Itv.lo = 0; hi = c }) :: saved;
                  let f =
                    Flow.run ~sender_targets:!targets_s
                      ~receiver_targets:!targets_r ck
                  in
                  if f.Flow.converged then begin
                    current_flow := f;
                    current := Specint.of_flow ck f;
                    history := !current :: !history;
                    log w (Promoted c)
                  end
                  else begin
                    (* Degrade path: the target was too tight for
                       widening to stabilise within the iteration cap.
                       Uninstall and fall back to the last good run. *)
                    install := saved;
                    Hashtbl.replace banned (key w) ();
                    log w (Diverged c)
                  end)))
  done;
  let refuted = List.rev !refutations in
  let report =
    {
      !current with
      Specint.findings =
        !current.Specint.findings @ List.map r1_finding refuted;
    }
  in
  {
    base;
    report;
    rounds_used = !rounds_used;
    promoted =
      base.Specint.product = Itv.omega
      && report.Specint.product <> Itv.omega
      && report.Specint.converged;
    history = List.rev !history;
    rounds = List.rev !round_logs;
    refuted;
  }

(* The static report of [ck], refined by up to [rounds] CEGAR rounds
   when [rounds > 0] — then the refinement result rides along — and the
   one-shot {!Specint.analyze} report otherwise. *)
let analyze ~rounds ck =
  if rounds > 0 then
    let res = run ~rounds ck in
    (res.report, Some res)
  else (Specint.analyze ck, None)

(* ---- rendering ------------------------------------------------------- *)

let action_name = function
  | Promoted _ -> "promoted"
  | Refuted _ -> "refuted"
  | Diverged _ -> "diverged"
  | No_candidates -> "no_candidates"

let round_json (r : round) =
  Json.Obj
    ([
       ("round", Json.Int r.index);
       ("station", Json.String r.station);
       ("slot", Json.String r.slot_name);
       ("action", Json.String (action_name r.action));
     ]
    @
    match r.action with
    | Promoted c | Diverged c -> [ ("candidate", Json.Int c) ]
    | Refuted (c, len) ->
        [ ("candidate", Json.Int c); ("trace_len", Json.Int len) ]
    | No_candidates -> [])

let refutation_json (r : refutation) =
  Json.Obj
    [
      ("station", Json.String r.rstation);
      ("slot", Json.String r.rslot);
      ("bound", Json.Int r.rbound);
      ("trace_len", Json.Int r.rtrace_len);
      ("line", Json.Int r.rspan.Diag.first.Diag.line);
    ]

let to_json (res : result) =
  Json.Obj
    [
      ("rounds_used", Json.Int res.rounds_used);
      ("promoted", Json.Bool res.promoted);
      ( "base_product",
        if res.base.Specint.product = Itv.omega then Json.String "omega"
        else Json.Int res.base.Specint.product );
      ( "product",
        if res.report.Specint.product = Itv.omega then Json.String "omega"
        else Json.Int res.report.Specint.product );
      ("rounds", Json.List (List.map round_json res.rounds));
      ("refuted", Json.List (List.map refutation_json res.refuted));
    ]

(* The ["refine"] member of a JSON report object: present exactly when
   {!analyze} refined, as in [pdl --json] and the [/v1/protocols]
   responses. *)
let json_field = function Some res -> [ ("refine", to_json res) ] | None -> []

(* One A1 Info note per round plus a summary — what [apply_to_lint]
   renders after the static-certification line. *)
let notes (res : result) : string list =
  let per_round =
    List.map
      (fun r ->
        match r.action with
        | Promoted c ->
            Fmt.str
              "round %d: split %s.%s at %d — fixpoint reconverged on the \
               partitioned domain"
              r.index r.station r.slot_name c
        | Refuted (c, len) ->
            Fmt.str
              "round %d: candidate %s.%s <= %d refuted by a %d-action \
               concrete trace"
              r.index r.station r.slot_name c len
        | Diverged c ->
            Fmt.str
              "round %d: split %s.%s at %d did not stabilise; degraded to \
               the unrefined answer"
              r.index r.station r.slot_name c
        | No_candidates ->
            Fmt.str
              "round %d: %s.%s has no guard-derived split candidate; left \
               at ω"
              r.index r.station r.slot_name)
      res.rounds
  in
  let summary =
    if res.promoted then
      [
        Fmt.str
          "B1 promoted from ω-parametric to concrete k_t*k_r = %d after %d \
           refinement round(s)"
          res.report.Specint.product res.rounds_used;
      ]
    else if res.rounds_used = 0 then []
    else
      [
        Fmt.str "%d refinement round(s); state product %s" res.rounds_used
          (if res.report.Specint.product = Itv.omega then "still ω"
           else Fmt.str "= %d" res.report.Specint.product);
      ]
  in
  per_round @ summary

let pp ppf (res : result) =
  Fmt.pf ppf "refinement: %d round(s), %s@." res.rounds_used
    (if res.promoted then "promoted"
     else if res.refuted <> [] then "refuted candidate(s)"
     else "no promotion");
  List.iter (fun n -> Fmt.pf ppf "  %s@." n) (notes res)
