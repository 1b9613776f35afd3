(* The measurement loop shared by every workload.

   A run is: set-up repeated [setup_reps] times (the median is
   [setup_s]); one untimed validation pass whose verdicts are checked
   against pinned answers; then the timed window, in which blocks of
   ops alternate with yardstick samples, and the peak RSS is read at
   the end of its first pass; then the untimed checks against
   reference engines.  Blocks only end between ops and the window only
   ends at the end of a pass over the inputs, so every run weighs its
   inputs alike. *)

type sample = { cls : string; seconds : float }

type block = {
  samples : sample list;  (** one per op *)
  work : float;  (** work units completed (the throughput numerator) *)
  failed : int;  (** ops whose verdict check failed *)
  pass_end : bool;  (** this block finished a pass over the inputs *)
}

type workload = {
  setup_reps : int;
  setup : unit -> unit;  (** build inputs and program state; the last call's state is kept *)
  validate : unit -> int * int;  (** untimed pass: (ops attempted, ops failed) *)
  pass_start : unit -> unit;  (** untimed, before every pass of the window *)
  cross_check : unit -> int * int;
      (** untimed checks against the reference engine, run after the
          peak RSS is read: (checks, failed) *)
  block : Trace.t option -> block;
  layers : Trace.t -> (string * float) list;  (** per-layer metrics from a traced phase *)
  finish : unit -> int * int;  (** untimed checks after the window: (attempted, failed) *)
}

(* A block that is a single op.  The op's time includes a minor
   collection at its end: each op pays for its own young garbage and
   none of its predecessors', so a short op's time does not depend on
   where in the allocation sequence it happens to fall. *)
let one ~cls ~pass_end f =
  let ok, seconds =
    Clock.time (fun () ->
        let ok = try f () with _ -> false in
        Gc.minor ();
        ok)
  in
  { samples = [ { cls; seconds } ]; work = 1.; failed = (if ok then 0 else 1); pass_end }

(* Peak resident set of this process so far, in MB (Linux). *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

type phase = {
  samples : sample list;  (** op times already divided by their local yardstick *)
  yards : float list;  (** every yardstick sample, seconds *)
  work : float;
  wall : float;  (** seconds spent in blocks (yardstick time excluded) *)
  wall_rel : float;  (** block time in local yardsticks *)
  raw : sample list;  (** op times in seconds *)
  attempted : int;
  failed : int;
  first_pass_rss : float;  (** peak RSS at the end of the first pass, MB *)
}

(* A short yardstick series: at least two samples, one per started
   fifth of a second of the block it follows. *)
let yard_series block_s =
  List.init (max 2 (int_of_float (Float.ceil (block_s /. 0.2)))) (fun _ -> Yardstick.sample ())

(* Median of the yardstick series just before the running block, in
   seconds — for workloads that pace themselves in yardsticks. *)
let yard_before = ref 0.

let phase w ~budget tr =
  let t0 = Clock.now () in
  let samples = ref [] and raw = ref [] and yards = ref [] in
  let work = ref 0. and wall = ref 0. and wall_rel = ref 0. in
  let attempted = ref 0 and failed = ref 0 in
  let first_pass_rss = ref nan in
  let pass_start = ref (Clock.now ()) in
  let before = ref (yard_series 0.) in
  yards := !before;
  let continue = ref true and new_pass = ref true in
  while !continue do
    if !new_pass then w.pass_start ();
    (* Every block starts from a compacted heap, so no op pays for the
       garbage of the block before; the GC state a block starts from is
       the same in every run and every repetition. *)
    Gc.compact ();
    yard_before := Stats.median !before;
    let b, s = Clock.time (fun () -> w.block tr) in
    let after = yard_series s in
    (* The host's speed drifts on a scale of seconds, so each block is
       measured against the yardstick samples on both sides of it. *)
    let local = Stats.median (!before @ after) in
    before := after;
    yards := after @ !yards;
    raw := List.rev_append b.samples !raw;
    samples :=
      List.rev_append (List.map (fun (x : sample) -> { x with seconds = x.seconds /. local }) b.samples) !samples;
    work := !work +. b.work;
    wall := !wall +. s;
    wall_rel := !wall_rel +. (s /. local);
    attempted := !attempted + List.length b.samples;
    failed := !failed + b.failed;
    new_pass := b.pass_end;
    if b.pass_end && Float.is_nan !first_pass_rss then first_pass_rss := peak_rss_mb ();
    if b.pass_end then begin
      let last_pass = Clock.since !pass_start in
      pass_start := Clock.now ();
      continue := Clock.since t0 +. (last_pass /. 2.) < budget
    end
  done;
  {
    samples = !samples;
    raw = !raw;
    yards = !yards;
    work = !work;
    wall = !wall;
    wall_rel = !wall_rel;
    attempted = !attempted;
    failed = !failed;
    first_pass_rss = !first_pass_rss;
  }

let classes (samples : sample list) =
  List.sort_uniq compare (List.map (fun (s : sample) -> s.cls) samples)

let of_class c (samples : sample list) =
  List.filter_map (fun (s : sample) -> if s.cls = c then Some s.seconds else None) samples

(* Geometric mean over input classes of the class's [q]-quantile op
   time: a fixed mix of unlike ops then cannot make the pooled
   percentile jump from one class to another between runs. *)
let latency q samples =
  Stats.geomean (List.map (fun c -> Stats.quantile q (of_class c samples)) (classes samples))

type summary = { p50 : float; p90 : float; thru : float; yard : float }

let summarize p =
  {
    p50 = latency 0.5 p.samples;
    p90 = latency 0.9 p.samples;
    thru = p.work /. p.wall_rel;
    yard = Stats.median p.yards;
  }

let report_phase name p =
  let s = summarize p in
  Printf.eprintf "[%s] %d ops (%d failed), %d yardstick samples (median %.2f ms, iqr %.1f%%)\n" name
    p.attempted p.failed (List.length p.yards) (s.yard *. 1000.)
    (100. *. Stats.iqr_rel p.yards);
  List.iter
    (fun c ->
      let xs = of_class c p.raw and rs = of_class c p.samples in
      Printf.eprintf "  %-28s n=%-6d p50 %9.3f ms  p90 %9.3f ms  rel p50 %8.4f p90 %8.4f\n" c
        (List.length xs) (1000. *. Stats.median xs) (1000. *. Stats.quantile 0.9 xs) (Stats.median rs)
        (Stats.quantile 0.9 rs))
    (classes p.samples);
  Printf.eprintf "  latency_p50_rel %.4f  latency_p90_rel %.4f  throughput_rel %.4f  raw p50 %.2f ms\n%!" s.p50 s.p90
    s.thru (1000. *. latency 0.5 p.raw)

(* Every per-layer metric, with its unit; the traced run reports all of
   them on every workload. *)
let per_layer =
  [
    ("explore.reach_ms", "ms");
    ("explore.nodes", "count");
    ("explore.truncated", "count");
    ("explore.gc_minor_mwords", "Mwords");
    ("explore.gc_major", "count");
    ("boundness.measure_ms", "ms");
    ("boundness.probes", "count");
    ("boundness.probes_exhausted", "count");
    ("boundness.useful_ratio", "ratio");
    ("lint.checks_ms", "ms");
    ("lint.report_ms", "ms");
    ("stab.legit_ms", "ms");
    ("stab.recovery_ms", "ms");
    ("stab.starts", "count");
    ("stab.recovery_configs", "count");
    ("stab.gc_major", "count");
    ("pdl.parse_ms", "ms");
    ("pdl.compile_ms", "ms");
    ("pdl.bytes", "bytes");
    ("specint.analyze_ms", "ms");
    ("specint.iterations", "count");
    ("refine.extra_ms", "ms");
    ("refine.rounds", "count");
    ("refine.promoted", "count");
    ("refine.refuted", "count");
    ("serve.submit_ms", "ms");
    ("serve.queue_wait_ms", "ms");
    ("serve.run_ms", "ms");
    ("serve.http_ms", "ms");
    ("serve.polls_per_session", "count");
    ("cache.hit_ratio", "ratio");
    ("bench.setup_raw_s", "s");
    ("bench.yardstick_ms", "ms");
    ("bench.yardstick_iqr", "ratio");
    ("bench.latency_p50_ms", "ms");
    ("bench.throughput_per_s", "1/s");
    ("bench.trace_overhead", "ratio");
  ]

(* The yardstick's sample time on the host the benchmark was calibrated
   on (2 vCPUs of a shared Xeon), in seconds. *)
let reference_yard = 0.020

type result = { correct : bool; attempted : int; failed : int; metrics : (string * float * string) list }

let run w ~seconds ~trace =
  (* The yardstick's table exists before anything else, so its footprint
     is the same in every run. *)
  ignore (Yardstick.sample ());
  (* Each set-up is measured against the yardstick samples on both sides
     of it, like a block of ops. *)
  let setups =
    List.init w.setup_reps (fun _ ->
        let before = yard_series 0. in
        Gc.compact ();
        let s = snd (Clock.time w.setup) in
        (s, s /. Stats.median (before @ yard_series 0.)))
  in
  let setup_raw = Stats.median (List.map fst setups) in
  Printf.eprintf "setup: %d reps, median %.4f s\n%!" w.setup_reps setup_raw;
  let va, vf = w.validate () in
  Printf.eprintf "validation: %d ops, %d failed\n%!" va vf;
  let untraced = phase w ~budget:(if trace then seconds /. 2. else seconds) None in
  report_phase "untraced" untraced;
  let traced =
    if trace then begin
      let t = Trace.create () in
      let p = phase w ~budget:(seconds /. 2.) (Some t) in
      report_phase "traced" p;
      Some (t, p, w.layers t)
    end
    else None
  in
  (* The peak RSS is read at the end of the window's first pass: after
     set-up, validation and one pass over the inputs, a fixed amount of
     work in every run.  State that grows from op to op shows in it, and
     its value does not depend on how many passes the host's speed
     allowed.  The reference cross-checks come later and cannot set it. *)
  let rss = untraced.first_pass_rss in
  Printf.eprintf "memory: peak %.1f MB after the first pass, %.1f MB after the window\n%!" rss
    (peak_rss_mb ());
  let ca, cf = w.cross_check () in
  if ca > 0 then Printf.eprintf "reference cross-check: %d checks, %d failed\n%!" ca cf;
  let fa, ff = w.finish () in
  let ta, tf = match traced with Some (_, p, _) -> (p.attempted, p.failed) | None -> (0, 0) in
  let attempted = va + ca + untraced.attempted + ta + fa in
  let failed = vf + cf + untraced.failed + tf + ff in
  let u = summarize untraced in
  (* Set-up time is gated like every other timing, so it too is scaled
     by the yardstick: seconds on a reference host whose yardstick
     sample takes [reference_yard]. *)
  let setup_s = reference_yard *. Stats.median (List.map snd setups) in
  let metrics =
    match traced with
    | None ->
        [
          ("setup_s", setup_s, "s");
          ("latency_p50_rel", u.p50, "ratio");
          ("latency_p90_rel", u.p90, "ratio");
          ("throughput_rel", u.thru, "ops/yardstick");
          ("peak_rss_mb", rss, "MB");
        ]
    | Some (_, p, layers) ->
        let measured =
          layers
          @ [
              ("bench.setup_raw_s", setup_raw);
              ("bench.yardstick_ms", 1000. *. u.yard);
              ("bench.yardstick_iqr", Stats.iqr_rel untraced.yards);
              ("bench.latency_p50_ms", 1000. *. latency 0.5 untraced.raw);
              ("bench.throughput_per_s", untraced.work /. untraced.wall);
              ("bench.trace_overhead", ((summarize p).p50 /. u.p50) -. 1.);
            ]
        in
        (* A layer this workload does not reach reads 0. *)
        List.map
          (fun (name, unit) -> (name, Option.value ~default:0. (List.assoc_opt name measured), unit))
          per_layer
  in
  { correct = failed = 0; attempted; failed; metrics }

(* The result object, as the last line of standard output.  A metric
   that did not come out as a finite number fails the run instead. *)
let print_result r =
  List.iter
    (fun (name, v, _) ->
      if not (Float.is_finite v) then begin
        Printf.eprintf "metric %s is not a number (%f)\n" name v;
        exit 1
      end)
    r.metrics;
  let metric (name, v, unit) = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" r.correct
    r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))
