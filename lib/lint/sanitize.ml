(* S1 — spec sanitizer.  The engines' soundness rests on contract
   obligations the type system cannot see: comparators must be
   reflexive, hash hooks must be coherent with their comparator
   (compare-equal states must hash equally, or the hash-bucketed interner
   splits one logical state into several ids and every k_t/k_r count and
   memo table built on ids is silently wrong), and transition functions
   must be pure (the memo tables replay the first result forever).  This
   module probes all three over a small joint closure of the two station
   state spaces, before any engine result is trusted. *)

module Spec = Nfc_protocol.Spec

type finding = { kind : string; message : string; witness : string option }

let pp_finding ppf f =
  Format.fprintf ppf "%s: %s%s" f.kind f.message
    (match f.witness with None -> "" | Some w -> " [" ^ w ^ "]")

module Make (P : Spec.S) = struct
  module Smap = Map.Make (struct
    type t = P.sender

    let compare = P.compare_sender
  end)

  module Rmap = Map.Make (struct
    type t = P.receiver

    let compare = P.compare_receiver
  end)

  let spf = Printf.sprintf

  let run ~max_states ~fault_packets () =
    let findings = ref [] in
    let seen_kinds = Hashtbl.create 8 in
    (* One finding per defect kind: a broken comparator fires on nearly
       every state, and the first witness is the useful one. *)
    let emit kind ?witness message =
      if not (Hashtbl.mem seen_kinds kind) then begin
        Hashtbl.add seen_kinds kind ();
        findings := { kind; message; witness } :: !findings
      end
    in
    (* The input alphabet for the closure: the fault packets plus every
       emission discovered along the way (both directions — an
       input-enabled automaton must absorb anything, so over-feeding is
       harmless and keeps the two closures from needing a fixpoint). *)
    let alphabet = ref fault_packets in
    let note_packet p = if not (List.mem p !alphabet) then alphabet := p :: !alphabet in
    (* Guarded calls: partiality is E1's finding, not S1's (the caller
       passes the instrumented, totalised spec anyway). *)
    let guard f = try Some (f ()) with _ -> None in
    let pure_pair kind cmp show a b =
      match (a, b) with
      | Some x, Some y ->
          if cmp x y <> 0 then
            emit (kind ^ "-impure")
              ~witness:(spf "first %s, second %s" (show x) (show y))
              (spf "%s returned different states for the same input (impure step function)"
                 kind);
          Some x
      | _ -> None
    in
    let show_s s = Format.asprintf "%a" P.pp_sender s in
    let show_r r = Format.asprintf "%a" P.pp_receiver r in
    (* --------------------------------------------------- sender closure *)
    let smap = ref Smap.empty in
    let n_s = ref 0 in
    let squeue = Queue.create () in
    let visit_sender s =
      if P.compare_sender s s <> 0 then
        emit "comparator-sender" ~witness:(show_s s)
          "compare_sender is not reflexive (compare s s <> 0)";
      match Smap.find_opt s !smap with
      | Some (rep, h0) ->
          (* A compare-equal state was already interned: the exact spot a
             hash-bucketed interner would need [hash s = h0]. *)
          (match (P.hash_sender, h0) with
          | Some h, Some h0 when h s <> h0 ->
              emit "hash-sender"
                ~witness:
                  (spf "states %s and %s compare equal but hash %d <> %d" (show_s rep)
                     (show_s s) h0 (h s))
                "hash_sender is incoherent with compare_sender: compare-equal states hash \
                 differently, so the interner splits one logical state into several"
          | _ -> ())
      | None ->
          if !n_s < max_states then begin
            incr n_s;
            smap := Smap.add s (s, Option.map (fun h -> h s) P.hash_sender) !smap;
            Queue.push s squeue
          end
    in
    let expand_sender s =
      (match
         pure_pair "on_submit" P.compare_sender show_s
           (guard (fun () -> P.on_submit s))
           (guard (fun () -> P.on_submit s))
       with
      | Some s' -> visit_sender s'
      | None -> ());
      (match
         (guard (fun () -> P.sender_poll s), guard (fun () -> P.sender_poll s))
       with
      | Some (e1, s1), Some (e2, s2) ->
          if e1 <> e2 || P.compare_sender s1 s2 <> 0 then
            emit "sender_poll-impure"
              ~witness:(spf "state %s" (show_s s))
              "sender_poll returned different (emission, state) pairs for the same state \
               (impure step function)";
          (match e1 with Some p -> note_packet p | None -> ());
          visit_sender s1
      | _ -> ());
      List.iter
        (fun p ->
          match
            pure_pair "on_ack" P.compare_sender show_s
              (guard (fun () -> P.on_ack s p))
              (guard (fun () -> P.on_ack s p))
          with
          | Some s' -> visit_sender s'
          | None -> ())
        !alphabet
    in
    (* ------------------------------------------------- receiver closure *)
    let rmap = ref Rmap.empty in
    let n_r = ref 0 in
    let rqueue = Queue.create () in
    let visit_receiver r =
      if P.compare_receiver r r <> 0 then
        emit "comparator-receiver" ~witness:(show_r r)
          "compare_receiver is not reflexive (compare r r <> 0)";
      match Rmap.find_opt r !rmap with
      | Some (rep, h0) ->
          (match (P.hash_receiver, h0) with
          | Some h, Some h0 when h r <> h0 ->
              emit "hash-receiver"
                ~witness:
                  (spf "states %s and %s compare equal but hash %d <> %d" (show_r rep)
                     (show_r r) h0 (h r))
                "hash_receiver is incoherent with compare_receiver: compare-equal states \
                 hash differently, so the interner splits one logical state into several"
          | _ -> ())
      | None ->
          if !n_r < max_states then begin
            incr n_r;
            rmap := Rmap.add r (r, Option.map (fun h -> h r) P.hash_receiver) !rmap;
            Queue.push r rqueue
          end
    in
    let expand_receiver r =
      (match
         (guard (fun () -> P.receiver_poll r), guard (fun () -> P.receiver_poll r))
       with
      | Some (e1, r1), Some (e2, r2) ->
          if e1 <> e2 || P.compare_receiver r1 r2 <> 0 then
            emit "receiver_poll-impure"
              ~witness:(spf "state %s" (show_r r))
              "receiver_poll returned different (emission, state) pairs for the same \
               state (impure step function)";
          (match e1 with Some (Spec.Rsend p) -> note_packet p | _ -> ());
          visit_receiver r1
      | _ -> ());
      List.iter
        (fun p ->
          match
            pure_pair "on_data" P.compare_receiver show_r
              (guard (fun () -> P.on_data r p))
              (guard (fun () -> P.on_data r p))
          with
          | Some r' -> visit_receiver r'
          | None -> ())
        !alphabet
    in
    visit_sender P.sender_init;
    visit_receiver P.receiver_init;
    (* Alternate so sender emissions reach the receiver probes (and vice
       versa) within one pass over the shared alphabet. *)
    while not (Queue.is_empty squeue && Queue.is_empty rqueue) do
      if not (Queue.is_empty squeue) then expand_sender (Queue.pop squeue);
      if not (Queue.is_empty rqueue) then expand_receiver (Queue.pop rqueue)
    done;
    List.rev !findings
end
