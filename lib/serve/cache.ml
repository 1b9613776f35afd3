(* The service's result memo: finished documents keyed by protocol and
   parameters, one lock per key.  Engines are never kept between
   requests; each miss runs the CLI's own entry point on a fresh one. *)

(* [doc] stays [None] until a compute finishes; [lock] is held for the
   whole compute, so a duplicate request waits and then hits. *)
type slot = { protocol : string; lock : Mutex.t; mutable doc : string option }

type t = {
  mutex : Mutex.t;
  slots : (string * string, slot) Hashtbl.t;  (* keyed by (protocol, key) *)
  specs : (string, Nfc_protocol.Spec.t) Hashtbl.t;
      (* user-submitted PDL protocols, keyed by their "pdl:<digest>" handle *)
  on_lookup : hit:bool -> unit;
}

let create ?(on_lookup = fun ~hit:_ -> ()) () =
  {
    mutex = Mutex.create ();
    slots = Hashtbl.create 16;
    specs = Hashtbl.create 16;
    on_lookup;
  }

let memo t ~protocol ~key compute =
  let slot =
    Mutex.protect t.mutex (fun () ->
        match Hashtbl.find_opt t.slots (protocol, key) with
        | Some s -> s
        | None ->
            let s = { protocol; lock = Mutex.create (); doc = None } in
            Hashtbl.add t.slots (protocol, key) s;
            s)
  in
  Mutex.protect slot.lock (fun () ->
      match slot.doc with
      | Some doc ->
          t.on_lookup ~hit:true;
          doc
      | None ->
          t.on_lookup ~hit:false;
          let doc = compute () in
          slot.doc <- Some doc;
          doc)

let protocols t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.fold (fun _ s acc -> s.protocol :: acc) t.slots [])
  |> List.sort_uniq compare

(* ------------------------------------------- user-submitted protocols *)

let register_spec t ~handle spec =
  Mutex.protect t.mutex (fun () ->
      if Hashtbl.mem t.specs handle then `Cached
      else begin
        Hashtbl.add t.specs handle spec;
        `New
      end)

let find_spec t handle = Mutex.protect t.mutex (fun () -> Hashtbl.find_opt t.specs handle)

let spec_handles t =
  Mutex.protect t.mutex (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) t.specs [])
  |> List.sort compare

let spec_count t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.specs)
