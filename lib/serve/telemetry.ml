(* Service telemetry in Prometheus text exposition format.

   A tiny generic core — mutex-protected counter and histogram maps keyed
   by (metric, rendered labels) — under a fixed catalogue of metric
   names, so /metrics always emits well-formed HELP/TYPE blocks and a
   typo'd metric name fails at the call site in tests rather than
   producing a silently unscrapeable series.  Gauges are sampled at
   render time from the server (queue depth is the queue's, not a shadow
   copy that could drift). *)

(* Latency buckets in seconds: sub-millisecond cache hits through
   multi-second cold analyses. *)
let buckets =
  [| 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 30.0 |]

type hist = { counts : int array; mutable sum : float; mutable total : int }

type t = {
  mutex : Mutex.t;
  counters : (string * string, float ref) Hashtbl.t;
  hists : (string * string, hist) Hashtbl.t;
  started_at : float;
}

let create () =
  {
    mutex = Mutex.create ();
    counters = Hashtbl.create 64;
    hists = Hashtbl.create 16;
    started_at = Unix.gettimeofday ();
  }

(* The catalogue: every metric this service may emit.  [`Counter] and
   [`Histogram] series appear once touched; gauges are always present. *)
let catalogue =
  [
    ("nfc_http_requests_total", `Counter, "HTTP requests served, by method, path pattern and status");
    ("nfc_http_request_seconds", `Histogram, "Wall-clock seconds spent handling an HTTP request, up to the response write");
    ("nfc_jobs_submitted_total", `Counter, "Jobs admitted into the queue, by kind");
    ("nfc_jobs_completed_total", `Counter, "Jobs reaching a terminal state, by kind and state");
    ("nfc_jobs_rejected_total", `Counter, "Submissions refused with 429 (queue full)");
    ("nfc_job_queue_wait_seconds", `Histogram, "Seconds a job waited in the queue before a worker picked it up");
    ("nfc_job_run_seconds", `Histogram, "Seconds a worker spent computing a job, by kind");
    ("nfc_cache_requests_total", `Counter, "Analysis-cache lookups, by outcome (hit|miss)");
    ( "nfc_protocol_submissions_total",
      `Counter,
      "POST /v1/protocols submissions, by outcome (created|cached|compile_error|too_large)" );
    ("nfc_protocols_resident", `Gauge, "User-submitted protocols currently registered");
    ("nfc_queue_depth", `Gauge, "Jobs currently waiting in the admission queue");
    ("nfc_queue_capacity", `Gauge, "Admission queue capacity");
    ("nfc_jobs_running", `Gauge, "Jobs currently executing on worker domains");
    ("nfc_workers", `Gauge, "Worker domains");
    ("nfc_uptime_seconds", `Gauge, "Seconds since the service started");
  ]

let known name = List.exists (fun (n, _, _) -> n = name) catalogue

let escape_label v =
  let buf = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) labels)
      ^ "}"

let inc ?(by = 1.) t name labels =
  assert (known name);
  let key = (name, render_labels labels) in
  Mutex.lock t.mutex;
  (match Hashtbl.find_opt t.counters key with
  | Some r -> r := !r +. by
  | None -> Hashtbl.replace t.counters key (ref by));
  Mutex.unlock t.mutex

let observe t name labels v =
  assert (known name);
  let key = (name, render_labels labels) in
  Mutex.lock t.mutex;
  let h =
    match Hashtbl.find_opt t.hists key with
    | Some h -> h
    | None ->
        let h = { counts = Array.make (Array.length buckets) 0; sum = 0.; total = 0 } in
        Hashtbl.replace t.hists key h;
        h
  in
  Array.iteri (fun i le -> if v <= le then h.counts.(i) <- h.counts.(i) + 1) buckets;
  h.sum <- h.sum +. v;
  h.total <- h.total + 1;
  Mutex.unlock t.mutex

(* Bound the path-label cardinality: job polls all collapse onto the
   route pattern, not one series per job id. *)
let path_label path =
  match String.split_on_char '/' path |> List.filter (fun s -> s <> "") with
  | [ "v1"; "jobs"; _ ] -> "/v1/jobs/:id"
  | [ "v1"; "jobs"; _; "result" ] -> "/v1/jobs/:id/result"
  | _ -> path

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let render t ~gauges =
  let buf = Buffer.create 4096 in
  let uptime = Unix.gettimeofday () -. t.started_at in
  let gauges = ("nfc_uptime_seconds", uptime) :: gauges in
  Mutex.lock t.mutex;
  List.iter
    (fun (name, kind, help) ->
      let series =
        match kind with
        | `Gauge -> List.filter (fun (n, _) -> n = name) gauges <> []
        | `Counter -> Hashtbl.fold (fun (n, _) _ acc -> acc || n = name) t.counters false
        | `Histogram -> Hashtbl.fold (fun (n, _) _ acc -> acc || n = name) t.hists false
      in
      if series then begin
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" name
             (match kind with `Gauge -> "gauge" | `Counter -> "counter" | `Histogram -> "histogram"));
        match kind with
        | `Gauge ->
            List.iter
              (fun (n, v) ->
                if n = name then Buffer.add_string buf (Printf.sprintf "%s %s\n" name (float_str v)))
              gauges
        | `Counter ->
            let rows =
              Hashtbl.fold
                (fun (n, lbl) r acc -> if n = name then (lbl, !r) :: acc else acc)
                t.counters []
            in
            List.iter
              (fun (lbl, v) -> Buffer.add_string buf (Printf.sprintf "%s%s %s\n" name lbl (float_str v)))
              (List.sort compare rows)
        | `Histogram ->
            let rows =
              Hashtbl.fold
                (fun (n, lbl) h acc -> if n = name then (lbl, h) :: acc else acc)
                t.hists []
            in
            List.iter
              (fun (lbl, h) ->
                (* Splice [le] into the possibly-empty label set. *)
                let with_le le =
                  let le = Printf.sprintf "le=\"%s\"" le in
                  if lbl = "" then "{" ^ le ^ "}"
                  else String.sub lbl 0 (String.length lbl - 1) ^ "," ^ le ^ "}"
                in
                Array.iteri
                  (fun i b ->
                    Buffer.add_string buf
                      (Printf.sprintf "%s_bucket%s %d\n" name (with_le (float_str b)) h.counts.(i)))
                  buckets;
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" name (with_le "+Inf") h.total);
                Buffer.add_string buf (Printf.sprintf "%s_sum%s %s\n" name lbl (float_str h.sum));
                Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" name lbl h.total))
              (List.sort compare rows)
      end)
    catalogue;
  Mutex.unlock t.mutex;
  Buffer.contents buf
