(* A minimal HTTP/1.1 keep-alive client over a Unix socket — the
   benchmark's own, so a change to the service's HTTP code is measured
   on the server side only. *)

type t = { fd : Unix.file_descr; buf : Bytes.t; mutable pending : string }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (* A stuck response fails its session instead of hanging the run. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Bytes.create 65536; pending = "" }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let fill c =
  let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
  if n = 0 then failwith "connection closed";
  c.pending <- c.pending ^ Bytes.sub_string c.buf 0 n

let rec find s sub i =
  if i + String.length sub > String.length s then None
  else if String.sub s i (String.length sub) = sub then Some i
  else find s sub (i + 1)

let content_length head =
  List.fold_left
    (fun acc line ->
      match String.index_opt line ':' with
      | Some i when String.lowercase_ascii (String.sub line 0 i) = "content-length" ->
          int_of_string (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> acc)
    0 (String.split_on_char '\n' head)

(* One round trip: (status, body). *)
let call c ~meth ~target ?(body = "") () =
  write_all c.fd
    (Printf.sprintf "%s %s HTTP/1.1\r\nhost: bench\r\ncontent-length: %d\r\n\r\n%s" meth target
       (String.length body) body)
    0;
  let rec head () =
    match find c.pending "\r\n\r\n" 0 with
    | Some i -> i
    | None ->
        fill c;
        head ()
  in
  let i = head () in
  let h = String.sub c.pending 0 i in
  let status = Scanf.sscanf h "HTTP/1.1 %d" Fun.id in
  let len = content_length h in
  while String.length c.pending < i + 4 + len do
    fill c
  done;
  let body = String.sub c.pending (i + 4) len in
  c.pending <- String.sub c.pending (i + 4 + len) (String.length c.pending - i - 4 - len);
  (status, body)

(* The string value of ["key":"..."] in a flat JSON object. *)
let field body key =
  let k = Printf.sprintf "\"%s\":\"" key in
  match find body k 0 with
  | None -> None
  | Some i ->
      let start = i + String.length k in
      Option.map (fun j -> String.sub body start (j - start)) (String.index_from_opt body start '"')

(* The number value of ["key":...] in a flat JSON object ([None] for
   null or a missing key). *)
let number body key =
  let k = Printf.sprintf "\"%s\":" key in
  match find body k 0 with
  | None -> None
  | Some i ->
      let start = i + String.length k in
      let stop = ref start in
      while !stop < String.length body && String.contains "0123456789.eE+-" body.[!stop] do
        incr stop
      done;
      float_of_string_opt (String.sub body start (!stop - start))
