(* pdl-corpus: seeded variants of the example specs through
   Pdl.compile_string, then Refine.run ~rounds:3 (which starts from
   Specint.analyze) and the JSON rendering — what
   `nfc pdl --refine 3 --json` does per file.  One op is one spec. *)

module Pdl = Nfc_pdl.Pdl
module Specint = Nfc_specint.Specint
module Refine = Nfc_refine.Refine
module Explore = Nfc_mcheck.Explore

let rounds = 3
let per_template = 32
let seed = ref 1
let dir = ref "perfbench/specs"

let compile text =
  match Pdl.compile_string text with Ok c -> c | Error _ -> failwith "variant does not compile"

let refine (c : Pdl.compiled) = Refine.run ~rounds c.Pdl.checked
let render res = Nfc_util.Json.to_string (Refine.to_json res)
let verdict text = render (refine (compile text))

(* Pinned answers for the unmodified examples. *)
let pin cls (res : Refine.result) =
  let rep = res.Refine.report in
  match cls with
  | "flooding_counter" -> rep.Specint.product = 738 && res.Refine.promoted && res.Refine.rounds_used = 1
  | "pumped_counter" ->
      rep.Specint.product = Nfc_specint.Dom.omega
      && List.exists
           (fun (f : Specint.finding) -> f.Specint.rule = "R1" && f.Specint.verdict = Specint.Fail)
           rep.Specint.findings
  | "bounded_counter" -> rep.Specint.product = 72
  | "stop_and_wait" | "alternating_bit" -> rep.Specint.product = Nfc_specint.Dom.omega
  | _ -> false

(* The hashed engine and the tree-based reference must agree on the
   variant's bounded state space. *)
let reference_bounds =
  {
    Explore.capacity_tr = 1;
    capacity_rt = 1;
    submit_budget = 2;
    max_nodes = 3_000;
    allow_drop = true;
    por = false;
  }

let agrees_with_reference (c : Pdl.compiled) =
  Explore.reachable c.Pdl.spec reference_bounds = Nfc_mcheck.Reference.reachable c.Pdl.spec reference_bounds

let corpus = ref [||]
let expected = ref [||]
let order = ref [||]

(* Generate the corpus and bring the front end and the refinement loop
   up on every spec. *)
let setup () =
  let vs = Corpus.generate ~dir:!dir ~seed:!seed ~per_template in
  corpus := Array.of_list vs;
  order := Array.init (Array.length !corpus) Fun.id;
  Corpus.shuffle (Random.State.make [| !seed; 7 |]) !order;
  Array.iter (fun (v : Corpus.variant) -> ignore (verdict v.Corpus.text)) !corpus

let validate () =
  let failed = ref 0 in
  let check what ok = if not ok then (incr failed; prerr_endline ("pdl-corpus: " ^ what)) in
  expected :=
    Array.map
      (fun (v : Corpus.variant) ->
        match Pdl.compile_string v.Corpus.text with
        | Error _ ->
            check (v.Corpus.cls ^ " variant does not compile") false;
            ""
        | Ok c ->
            let res = refine c in
            if v.Corpus.base then check (v.Corpus.cls ^ " pinned verdict") (pin v.Corpus.cls res);
            render res)
      !corpus;
  Printf.eprintf "corpus: %d specs, digest %s\n%!" (Array.length !corpus) (Corpus.digest (Array.to_list !corpus));
  (Array.length !corpus, !failed)

let block tr =
  (* Whole passes over the corpus until a quarter second has gone by. *)
  let t0 = Clock.now () in
  let samples = ref [] and failed = ref 0 and ops = ref 0 in
  while Clock.since t0 < 0.25 do
    Array.iter
      (fun i ->
        let v = !corpus.(i) and want = !expected.(i) in
        let b =
          match tr with
          | None -> Bench.one ~cls:v.Corpus.cls ~pass_end:false (fun () -> verdict v.Corpus.text = want)
          | Some tr ->
              let op = Trace.next_op tr in
              let text = v.Corpus.text in
              Trace.count tr "pdl.bytes" (float_of_int (String.length text));
              let compiled = ref None in
              let b =
                Bench.one ~cls:v.Corpus.cls ~pass_end:false (fun () ->
                    let c = Trace.span tr ~op "pdl.compile" (fun () -> compile text) in
                    compiled := Some c;
                    let res = Trace.span tr ~op "refine" (fun () -> refine c) in
                    Trace.count tr "refine.rounds" (float_of_int res.Refine.rounds_used);
                    Trace.count tr "refine.promoted" (if res.Refine.promoted then 1. else 0.);
                    Trace.count tr "refine.refuted" (float_of_int (List.length res.Refine.refuted));
                    render res = want)
              in
              (* After the op, alone: the parse compile_string starts
                 with, and the fixpoint refine starts from. *)
              ignore (Trace.span tr ~op "pdl.parse" (fun () -> Pdl.parse_string text));
              Option.iter
                (fun (c : Pdl.compiled) ->
                  let rep = Trace.span tr ~op "specint" (fun () -> Specint.analyze c.Pdl.checked) in
                  Trace.count tr "specint.iterations" (float_of_int rep.Specint.iterations))
                !compiled;
              b
        in
        samples := b.Bench.samples @ !samples;
        failed := !failed + b.Bench.failed;
        incr ops)
      !order
  done;
  { Bench.samples = !samples; work = float_of_int !ops; failed = !failed; pass_end = true }

(* The hashed engine and the reference agree on every variant. *)
let cross_check_variants variants =
  let failed =
    List.length
      (List.filter
         (fun (v : Corpus.variant) ->
           match Pdl.compile_string v.Corpus.text with
           | Ok c -> not (agrees_with_reference c)
           | Error _ -> true)
         variants)
  in
  if failed > 0 then Printf.eprintf "%d variant(s): hashed engine disagrees with Reference\n" failed;
  (List.length variants, failed)

let cross_check () = cross_check_variants (Array.to_list !corpus)

let layers tr =
  let specint = Trace.ms tr "specint" and parse = Trace.ms tr "pdl.parse" in
  [
    ("pdl.parse_ms", parse);
    ("pdl.compile_ms", Trace.ms tr "pdl.compile" -. parse);
    ("pdl.bytes", Trace.mean_count tr "pdl.bytes");
    ("specint.analyze_ms", specint);
    ("specint.iterations", Trace.mean_count tr "specint.iterations");
    ("refine.extra_ms", Trace.ms tr "refine" -. specint);
    ("refine.rounds", Trace.mean_count tr "refine.rounds");
    ("refine.promoted", Trace.mean_count tr "refine.promoted");
    ("refine.refuted", Trace.mean_count tr "refine.refuted");
  ]

let workload =
  { Bench.setup_reps = 15; setup; validate; pass_start = ignore; cross_check; block; layers; finish = (fun () -> (0, 0)) }
