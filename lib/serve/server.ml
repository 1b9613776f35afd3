(* Wiring: one listening socket, an accept thread, one thread per
   connection (cheap blocking I/O; hundreds of mostly-idle keep-alive
   connections), and the {!Workers} domain group doing the actual
   verification work.  Threads wait on sockets, domains burn CPU — the
   two pools never compete for the same resource. *)

type cfg = {
  host : string;
  port : int;  (* 0 = ephemeral; [port t] reports the bound one *)
  jobs : int;
  queue_depth : int;
  result_ttl : float;
}

let default_cfg =
  { host = "127.0.0.1"; port = 8080; jobs = 2; queue_depth = 64; result_ttl = 300.0 }

type t = {
  fd : Unix.file_descr;
  bound_port : int;
  workers : Workers.t;
  queue : Jobs.job Queue.t;
  telemetry : Telemetry.t;
  stop_flag : bool Atomic.t;
  accept_thread : Thread.t;
}

let port t = t.bound_port

(* One keep-alive loop per connection.  A malformed request answers 400
   and closes; an escaping handler exception already became a 500 inside
   {!Router.dispatch}; nothing a client sends reaches the daemon. *)
let serve_conn ~routes ~telemetry ~stop_flag client =
  let c = Http.conn client in
  let rec loop () =
    match Http.read_request c with
    | Error Http.Eof -> ()
    | Error (Http.Bad_request msg) ->
        Http.write_response client ~keep_alive:false (Router.json_error 400 msg)
    | Error Http.Too_large ->
        Http.write_response client ~keep_alive:false
          (Router.json_error 413 "request head or body too large")
    | Ok req ->
        let started = Unix.gettimeofday () in
        let resp = Router.dispatch routes req in
        let keep = Http.wants_keep_alive req && not (Atomic.get stop_flag) in
        (* Count the request before answering it: a client that has read
           the response and then scrapes /metrics must find it there. *)
        let path = Telemetry.path_label req.Http.path in
        Telemetry.inc telemetry "nfc_http_requests_total"
          [
            ("method", req.Http.meth);
            ("path", path);
            ("status", string_of_int resp.Http.status);
          ];
        Telemetry.observe telemetry "nfc_http_request_seconds" [ ("path", path) ]
          (Unix.gettimeofday () -. started);
        Http.write_response client ~keep_alive:keep resp;
        if keep then loop ()
  in
  (try loop () with _ -> ());
  try Unix.close client with Unix.Unix_error _ -> ()

let start cfg =
  (* A client hanging up mid-response must cost us an EPIPE, not the
     process. *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  Printexc.record_backtrace true;
  let telemetry = Telemetry.create () in
  let cache =
    Cache.create
      ~on_lookup:(fun ~hit ->
        Telemetry.inc telemetry "nfc_cache_requests_total"
          [ ("result", (if hit then "hit" else "miss")) ])
      ()
  in
  let table = Jobs.create ~ttl:cfg.result_ttl () in
  let queue = Queue.create ~capacity:cfg.queue_depth in
  let workers = Workers.start ~jobs:cfg.jobs ~queue ~table ~telemetry in
  let ctx =
    {
      Handlers.table;
      queue;
      cache;
      telemetry;
      n_workers = Workers.n_workers workers;
      n_running = (fun () -> Workers.n_running workers);
    }
  in
  let routes = Handlers.routes ctx in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
  Unix.listen fd 512;
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let stop_flag = Atomic.make false in
  let accept_loop () =
    let rec go () =
      match Unix.accept fd with
      | client, _ ->
          if Atomic.get stop_flag then
            (* The wake-up connection from [stop] (or a late client):
               drop it and exit. *)
            try Unix.close client with Unix.Unix_error _ -> ()
          else begin
            ignore (Thread.create (serve_conn ~routes ~telemetry ~stop_flag) client);
            go ()
          end
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          if Atomic.get stop_flag then () else go ()
      | exception Unix.Unix_error (_, _, _) ->
          (* Anything else on a listening socket is terminal for the
             loop. *)
          ()
    in
    go ()
  in
  let accept_thread = Thread.create accept_loop () in
  { fd; bound_port; workers; queue; telemetry; stop_flag; accept_thread }

let stop t =
  Atomic.set t.stop_flag true;
  (* A blocked [accept] does not wake when another thread closes the
     listener, so bounce it with a throwaway self-connection; the loop
     then observes the flag and exits.  In-flight connections drain
     (keep-alive is refused once the flag is set), and the workers
     finish what they already popped. *)
  (try
     let wake = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     let addr =
       match Unix.getsockname t.fd with
       | Unix.ADDR_INET (a, p) ->
           Unix.ADDR_INET
             ((if a = Unix.inet_addr_any then Unix.inet_addr_loopback else a), p)
       | other -> other
     in
     (try Unix.connect wake addr with Unix.Unix_error _ -> ());
     try Unix.close wake with Unix.Unix_error _ -> ()
   with Unix.Unix_error _ -> ());
  Thread.join t.accept_thread;
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  Workers.stop t.workers

let run_forever cfg =
  let t = start cfg in
  Printf.printf "nfc serve: listening on %s:%d (%d worker domains, queue depth %d)\n%!"
    cfg.host t.bound_port (Workers.n_workers t.workers) (Queue.capacity t.queue);
  let stop_requested = Atomic.make false in
  let on_signal _ = Atomic.set stop_requested true in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle on_signal))
    [ Sys.sigint; Sys.sigterm ];
  while not (Atomic.get stop_requested) do
    Thread.delay 0.2
  done;
  Printf.eprintf "nfc serve: shutting down\n%!";
  stop t
