(* The worker scheduler: [jobs] domains (a {!Nfc_util.Pool.spawn_group})
   all draining the admission queue until it is closed.

   Per job: refuse it if cancellation arrived while it queued, otherwise
   run its compute closure with a cancellation probe; an escaping
   exception fails the job with the exception text and worker backtrace
   but never the worker — the domain logs the failure into the job table
   and moves on to the next pop.  Budgets are enforced upstream: the
   handlers clamp every request's exploration/iteration budgets before
   the job is admitted, so no compute closure can run unbounded. *)

type t = {
  queue : Jobs.job Queue.t;
  group : Nfc_util.Pool.group;
  n_workers : int;
  running : int Atomic.t;
}

let start ~jobs ~queue ~table ~telemetry =
  let n = if jobs <= 0 then Nfc_util.Pool.recommended () else jobs in
  let running = Atomic.make 0 in
  let body _i =
    let rec loop () =
      match Queue.pop queue with
      | None -> ()
      | Some (job : Jobs.job) ->
          let kind = [ ("kind", job.Jobs.kind) ] in
          (if not (Jobs.mark_running table job) then
             Telemetry.inc telemetry "nfc_jobs_completed_total"
               (kind @ [ ("state", "cancelled") ])
           else begin
             let started = Unix.gettimeofday () in
             Telemetry.observe telemetry "nfc_job_queue_wait_seconds" []
               (started -. job.Jobs.submitted_at);
             Atomic.incr running;
             let outcome =
               match job.Jobs.compute ~cancelled:(fun () -> Atomic.get job.Jobs.cancel_flag) with
               | result -> `Done result
               | exception Jobs.Cancelled_job -> `Cancelled
               | exception e ->
                   let bt = Printexc.get_raw_backtrace () in
                   let bt_text = Printexc.raw_backtrace_to_string bt in
                   `Failed (Printexc.to_string e ^ if bt_text = "" then "" else "\n" ^ bt_text)
             in
             (* Observe before publishing the terminal state: a client that
                sees the job finished and then scrapes /metrics must find
                its run time there. *)
             Atomic.decr running;
             Telemetry.observe telemetry "nfc_job_run_seconds" kind
               (Unix.gettimeofday () -. started);
             let state =
               match outcome with
               | `Done result -> Jobs.mark_done table job result
               | `Cancelled ->
                   Jobs.mark_cancelled table job;
                   Jobs.Cancelled
               | `Failed err ->
                   Jobs.mark_failed table job err;
                   Jobs.Failed
             in
             Telemetry.inc telemetry "nfc_jobs_completed_total"
               (kind @ [ ("state", Jobs.state_name state) ])
           end);
          loop ()
    in
    loop ()
  in
  { queue; group = Nfc_util.Pool.spawn_group ~jobs:n body; n_workers = n; running }

let n_workers t = t.n_workers
let n_running t = Atomic.get t.running

(* Close the queue (wakes every blocked pop) and wait for the domains to
   drain what they already hold. *)
let stop t =
  Queue.close t.queue;
  Nfc_util.Pool.join_group t.group
