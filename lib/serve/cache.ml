(* The shared read-only analysis cache — why a resident verifier beats
   one-shot CLI runs.

   Each protocol gets one resident context, created on first use and
   kept for the life of the daemon:

   - [B = Boundness.Make (P)] owns the protocol's exploration engine
     [B.E]: state interners, the packet-alphabet index and the
     per-(state, input) transition memos persist across requests, so a
     transition computed for request 1 is never recomputed for request
     500.
   - [C = Cover.Make (P) (B.E)] shares that engine instance, so the
     Karp–Miller fixpoint reuses the same interned ids and memos.
   - Ungated reachable sets are memoized per {!Explore.bounds_key}; a
     boundness request at bounds the context has already explored skips
     its BFS entirely (and [B.measure ~reach] skips the gated pass when
     the reach is phantom-free).
   - Converged covers and full reports (lint results, boundness reports,
     cover stats) are memoized per parameter fingerprint.

   Identity with the CLI: every analysis here is deterministic in its
   parameters and runs the {e same} code the CLI runs ([Engine.run],
   [Boundness.measure], [Cover.run]) — a memo hit returns the value an
   identical cold run would have produced, so served lint verdicts are
   byte-identical to [nfc lint] output on the same protocol and bounds
   (the end-to-end test and the CI smoke assert exactly this).

   Concurrency: engine instances are mutable and single-domain, so each
   context carries a lock serialising its analyses; requests for
   {e different} protocols proceed in parallel on different workers, and
   memo hits only hold the lock for the lookup. *)

module Explore = Nfc_mcheck.Explore
module Boundness = Nfc_mcheck.Boundness
module Cover = Nfc_absint.Cover

type entry = {
  lock : Mutex.t;
  mutable lint_memo : (string * Nfc_lint.Engine.result) list;
  mutable bound_memo : (string * Boundness.report) list;
  mutable cover_memo : (string * Cover.stats) list;
  bound_run :
    checkpoint:(unit -> unit) ->
    Explore.bounds ->
    Boundness.probe_bounds ->
    Boundness.report;
  cover_run : submit_budget:int -> max_nodes:int -> Cover.stats;
}

type t = {
  mutex : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  specs : (string, Nfc_protocol.Spec.t) Hashtbl.t;
      (* user-submitted PDL protocols, keyed by their "pdl:<digest>" handle *)
  on_lookup : hit:bool -> unit;
}

let create ?(on_lookup = fun ~hit:_ -> ()) () =
  {
    mutex = Mutex.create ();
    entries = Hashtbl.create 16;
    specs = Hashtbl.create 16;
    on_lookup;
  }

let make_entry proto =
  let module P = (val proto : Nfc_protocol.Spec.S) in
  let module B = Boundness.Make (P) in
  let module C = Cover.Make (P) (B.E) in
  let reach_memo : (string, B.E.reach) Hashtbl.t = Hashtbl.create 4 in
  let reach ~checkpoint bounds =
    let key = Explore.bounds_key bounds in
    match Hashtbl.find_opt reach_memo key with
    | Some r -> r
    | None ->
        let r = B.E.reachable_set ~checkpoint bounds in
        Hashtbl.add reach_memo key r;
        r
  in
  {
    lock = Mutex.create ();
    lint_memo = [];
    bound_memo = [];
    cover_memo = [];
    bound_run =
      (fun ~checkpoint explore probe ->
        B.measure ~checkpoint ~reach:(reach ~checkpoint explore) ~explore ~probe_bounds:probe ());
    cover_run = (fun ~submit_budget ~max_nodes -> C.run ~max_nodes ~submit_budget ());
  }

(* Contexts are keyed by the protocol's canonical name, so aliases
   ("altbit", "alternating-bit") and equal-parameter constructions share
   one resident engine.  User-submitted PDL protocols pass [?key] — their
   content-digest handle — instead: a submitted spec that happens to be
   *named* "stop-and-wait" must not poison the builtin's resident context
   (nor be poisoned by it). *)
let entry ?key t proto =
  let name = match key with Some k -> k | None -> Nfc_protocol.Spec.name proto in
  Mutex.lock t.mutex;
  let e =
    match Hashtbl.find_opt t.entries name with
    | Some e -> e
    | None ->
        let e = make_entry proto in
        Hashtbl.add t.entries name e;
        e
  in
  Mutex.unlock t.mutex;
  e

(* ------------------------------------------- user-submitted protocols *)

let register_spec t ~handle spec =
  Mutex.lock t.mutex;
  let outcome =
    if Hashtbl.mem t.specs handle then `Cached
    else begin
      Hashtbl.add t.specs handle spec;
      `New
    end
  in
  Mutex.unlock t.mutex;
  outcome

let find_spec t handle =
  Mutex.lock t.mutex;
  let r = Hashtbl.find_opt t.specs handle in
  Mutex.unlock t.mutex;
  r

let spec_handles t =
  Mutex.lock t.mutex;
  let hs = Hashtbl.fold (fun k _ acc -> k :: acc) t.specs [] in
  Mutex.unlock t.mutex;
  List.sort compare hs

let spec_count t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.specs in
  Mutex.unlock t.mutex;
  n

let protocols t =
  Mutex.lock t.mutex;
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) t.entries [] in
  Mutex.unlock t.mutex;
  List.sort compare names

(* Memoize [compute] under [e.lock].  The lock spans the computation on
   purpose: two concurrent first requests for the same (protocol, key)
   must not race the shared engine — the second waits and then hits. *)
let memoized t e get set key compute =
  Mutex.lock e.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock e.lock)
    (fun () ->
      match List.assoc_opt key (get ()) with
      | Some v ->
          t.on_lookup ~hit:true;
          v
      | None ->
          t.on_lookup ~hit:false;
          let v = compute () in
          set ((key, v) :: get ());
          v)

(* [checkpoint] is excluded from the key — it can only abort a
   computation, never change its value (an aborted compute is not
   memoized at all). *)
let lint_key (cfg : Nfc_lint.Checks.config) =
  Printf.sprintf "%s/p%d:%d/mp%d/f%s/ms%d/w%d/c%b/cn%d"
    (Explore.bounds_key cfg.bounds)
    cfg.probe.Boundness.max_nodes cfg.probe.Boundness.max_cost cfg.max_probes
    (String.concat "," (List.map string_of_int cfg.fault_packets))
    cfg.max_probe_states cfg.max_witnesses cfg.complete cfg.cover_max_nodes

let lint ?key t proto cfg =
  let e = entry ?key t proto in
  memoized t e
    (fun () -> e.lint_memo)
    (fun m -> e.lint_memo <- m)
    (lint_key cfg)
    (fun () -> Nfc_lint.Engine.run cfg proto)

let boundness ?key t proto ~checkpoint ~explore ~probe =
  let e = entry ?key t proto in
  let key =
    Printf.sprintf "%s/p%d:%d" (Explore.bounds_key explore) probe.Boundness.max_nodes
      probe.Boundness.max_cost
  in
  memoized t e
    (fun () -> e.bound_memo)
    (fun m -> e.bound_memo <- m)
    key
    (fun () -> e.bound_run ~checkpoint explore probe)

let cover ?key t proto ~submit_budget ~max_nodes =
  let e = entry ?key t proto in
  let key = Printf.sprintf "s%d/n%d" submit_budget max_nodes in
  memoized t e
    (fun () -> e.cover_memo)
    (fun m -> e.cover_memo <- m)
    key
    (fun () -> e.cover_run ~submit_budget ~max_nodes)
