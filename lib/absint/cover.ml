(* Karp–Miller coverability with ω-acceleration (see cover.mli and
   DESIGN §5.8).

   Soundness of the three analysis moves, all resting on strong
   monotonicity of the composed system in the channel counts (at
   unbounded capacity every submit/poll/send is channel-independent and a
   delivery needs only count >= 1, so c <= d and c -> c' imply d -> d'
   with c' <= d'):

   - acceleration: a successor strictly dominating a same-control
     ancestor witnesses a repeatable move sequence, so the grown
     coordinates are unbounded — set them to ω;
   - subsumption: a configuration covered by a retained one has no
     behaviour the coverer lacks — prune it;
   - drop elision: a post-drop configuration is <= its parent, hence
     covered by it — never generate drop moves (loss is instead read
     back through downward closure: every cover element also stands for
     all its sub-multisets).

   ω appears only in the channels; station controls in the tree are
   reached by genuine move sequences, which is what lets the phantom,
   alphabet, and stuck answers transfer back to concrete reachability. *)

module Spec = Nfc_protocol.Spec
module Pvec = Nfc_mcheck.Pvec
module Iset = Set.Make (Int)

type stats = {
  converged : bool;
  cover_size : int;
  iterations : int;
  accelerations : int;
  accel_samples : string list;
  omega_configs : int;
  pruned_covered : int;
  phantom_coverable : bool;
  alphabet_tr : int list;
  alphabet_rt : int list;
  stuck_controls : int;
  stuck_witness : string option;
}

let pp_stats ppf s =
  let alpha l = "{" ^ String.concat ", " (List.map string_of_int l) ^ "}" in
  Format.fprintf ppf
    "@[<v>%s: %d cover element(s), %d with ω, after %d iteration(s);@ %d acceleration(s), %d \
     covered configuration(s) pruned;@ phantom delivery %s; alphabet t->r %s, r->t %s; %d stuck \
     control(s)%s@]"
    (if s.converged then "fixpoint converged" else "fixpoint DIVERGED (node cap)")
    s.cover_size s.omega_configs s.iterations s.accelerations s.pruned_covered
    (if s.phantom_coverable then "COVERABLE" else "not coverable")
    (alpha s.alphabet_tr) (alpha s.alphabet_rt) s.stuck_controls
    (match s.stuck_witness with None -> "" | Some w -> ": " ^ w)

let stats_to_json s =
  let module J = Nfc_util.Json in
  let alpha l = J.List (List.map (fun v -> J.Int v) l) in
  J.Obj
    [
      ("converged", J.Bool s.converged);
      ("cover_size", J.Int s.cover_size);
      ("iterations", J.Int s.iterations);
      ("accelerations", J.Int s.accelerations);
      ("omega_configs", J.Int s.omega_configs);
      ("pruned_covered", J.Int s.pruned_covered);
      ("phantom_coverable", J.Bool s.phantom_coverable);
      ("alphabet_tr", alpha s.alphabet_tr);
      ("alphabet_rt", alpha s.alphabet_rt);
      ("stuck_controls", J.Int s.stuck_controls);
      ("stuck_witness", J.opt (fun w -> J.String w) s.stuck_witness);
      ("accel_samples", J.List (List.map (fun a -> J.String a) s.accel_samples));
    ]

(* Acceleration walks stop after this many parent hops: for converging
   protocols the tree is shallow and the walk is complete; for diverging
   ones (which hit the node cap anyway) the cap keeps the run from going
   quadratic in the cap. *)
let max_walk_hops = 512

module Make (P : Spec.S) (E : module type of Nfc_mcheck.Explore.Make (P)) = struct
  type cfg = {
    sender : P.sender;
    sid : int;
    receiver : P.receiver;
    rid : int;
    tr : Opvec.t;
    rt : Opvec.t;
    submitted : int;
    delivered : int;
  }

  let run ?(max_nodes = 200_000) ~submit_budget () =
    (* Saturation hooks, memoised on the raw post-state's interned id so
       each distinct state is normalised (and the result interned) once. *)
    let norm_s =
      match P.cover_norm_sender with
      | None -> fun s sid -> (s, sid)
      | Some f ->
          let memo : (int, P.sender * int) Hashtbl.t = Hashtbl.create 256 in
          fun s sid ->
            (match Hashtbl.find_opt memo sid with
            | Some v -> v
            | None ->
                let s' = f ~budget:submit_budget s in
                let v = (s', E.intern_sender s') in
                Hashtbl.add memo sid v;
                v)
    in
    let norm_r =
      match P.cover_norm_receiver with
      | None -> fun r rid -> (r, rid)
      | Some f ->
          let memo : (int, P.receiver * int) Hashtbl.t = Hashtbl.create 256 in
          fun r rid ->
            (match Hashtbl.find_opt memo rid with
            | Some v -> v
            | None ->
                let r' = f ~budget:submit_budget r in
                let v = (r', E.intern_receiver r') in
                Hashtbl.add memo rid v;
                v)
    in
    let initial =
      let s, sid = norm_s E.initial.E.sender E.initial.E.sid in
      let r, rid = norm_r E.initial.E.receiver E.initial.E.rid in
      {
        sender = s;
        sid;
        receiver = r;
        rid;
        tr = Opvec.empty;
        rt = Opvec.empty;
        submitted = 0;
        delivered = 0;
      }
    in
    (* The Karp–Miller tree: configurations plus parent links for the
       ancestor walks of the acceleration rule. *)
    let nodes = ref (Array.make 1024 initial) in
    let parents = ref (Array.make 1024 (-1)) in
    let n_nodes = ref 0 in
    let add_node c parent =
      if !n_nodes >= Array.length !nodes then begin
        let bigger = Array.make (2 * Array.length !nodes) c in
        Array.blit !nodes 0 bigger 0 !n_nodes;
        nodes := bigger;
        let bigger = Array.make (2 * Array.length !parents) (-1) in
        Array.blit !parents 0 bigger 0 !n_nodes;
        parents := bigger
      end;
      !nodes.(!n_nodes) <- c;
      !parents.(!n_nodes) <- parent;
      incr n_nodes;
      !n_nodes - 1
    in
    (* Subsumption store: station control -> maximal antichain of channel
       pairs.  Pruning only ever happens within a control, so every
       coverable control keeps at least one representative. *)
    let store : (int * int * int * int, (Opvec.t * Opvec.t) list) Hashtbl.t =
      Hashtbl.create 1024
    in
    let reps : (int * int * int * int, P.sender * P.receiver) Hashtbl.t = Hashtbl.create 1024 in
    let key c = (c.sid, c.rid, c.submitted, c.delivered) in
    let covered c =
      match Hashtbl.find_opt store (key c) with
      | None -> false
      | Some l -> List.exists (fun (tr, rt) -> Opvec.le c.tr tr && Opvec.le c.rt rt) l
    in
    let insert c =
      let k = key c in
      let l = match Hashtbl.find_opt store k with Some l -> l | None -> [] in
      let l = List.filter (fun (tr, rt) -> not (Opvec.le tr c.tr && Opvec.le rt c.rt)) l in
      Hashtbl.replace store k ((c.tr, c.rt) :: l);
      if not (Hashtbl.mem reps k) then Hashtbl.add reps k (c.sender, c.receiver)
    in
    let phantom = ref false in
    let accelerations = ref 0 in
    let samples = ref [] in
    let pruned = ref 0 in
    let iterations = ref 0 in
    let truncated = ref false in
    let queue : int Queue.t = Queue.create () in
    let render_sample sub del v0 v1 prefix =
      List.filter_map
        (fun id ->
          if Opvec.is_omega v1 id && not (Opvec.is_omega v0 id) then
            Some
              (Printf.sprintf "%s packet %d ↦ ω at (sub=%d, del=%d)" prefix
                 (Pvec.Index.packet E.pkts id) sub del)
          else None)
        (Opvec.support v1)
    in
    let push_cfg parent c =
      (* Accelerate against every strictly dominated same-control
         ancestor, re-walking until no rule applies (a fresh ω can expose
         further dominations).  Controls are compared field by field as
         ints: a [key] tuple per hop would allocate and go through the
         polymorphic compare. *)
      let tr = ref c.tr and rt = ref c.rt in
      let changed = ref true in
      while !changed do
        changed := false;
        let i = ref parent in
        let hops = ref 0 in
        while !i >= 0 && !hops < max_walk_hops do
          incr hops;
          let a = !nodes.(!i) in
          if
            a.sid = c.sid && a.rid = c.rid
            && a.submitted = c.submitted && a.delivered = c.delivered
            && Opvec.le a.tr !tr && Opvec.le a.rt !rt
            && not (Opvec.equal a.tr !tr && Opvec.equal a.rt !rt)
          then begin
            let tr' = Opvec.accelerate ~prev:a.tr !tr in
            let rt' = Opvec.accelerate ~prev:a.rt !rt in
            if not (Opvec.equal tr' !tr && Opvec.equal rt' !rt) then begin
              incr accelerations;
              if List.length !samples < 8 then
                samples :=
                  !samples
                  @ render_sample c.submitted c.delivered !tr tr' "t→r"
                  @ render_sample c.submitted c.delivered !rt rt' "r→t";
              tr := tr';
              rt := rt';
              changed := true
            end
          end;
          i := !parents.(!i)
        done
      done;
      let c = { c with tr = !tr; rt = !rt } in
      if covered c then incr pruned
      else if !n_nodes >= max_nodes then truncated := true
      else begin
        insert c;
        Queue.push (add_node c parent) queue
      end
    in
    let expand idx =
      let c = !nodes.(idx) in
      incr iterations;
      (* User submission. *)
      if c.submitted < submit_budget then begin
        let s', sid' = E.step_submit c.sender c.sid in
        let s', sid' = norm_s s' sid' in
        push_cfg idx { c with sender = s'; sid = sid'; submitted = c.submitted + 1 }
      end;
      (* Sender poll: capacity is unbounded here, every emission lands. *)
      (let emit, s', sid' = E.step_sender_poll c.sender c.sid in
       let s', sid' = norm_s s' sid' in
       match emit with
       | Some pkt ->
           push_cfg idx
             { c with sender = s'; sid = sid'; tr = Opvec.add c.tr (Pvec.Index.id E.pkts pkt) }
       | None -> if sid' <> c.sid then push_cfg idx { c with sender = s'; sid = sid' });
      (* Receiver poll.  A delivery past the submission count is the DL1
         phantom: record it as coverable but do not expand it — the gate
         keeps [delivered <= submitted] and the control space finite. *)
      (let emit, r', rid' = E.step_receiver_poll c.receiver c.rid in
       let r', rid' = norm_r r' rid' in
       match emit with
       | Some Spec.Rdeliver ->
           if c.delivered < c.submitted then
             push_cfg idx { c with receiver = r'; rid = rid'; delivered = c.delivered + 1 }
           else phantom := true
       | Some (Spec.Rsend pkt) ->
           push_cfg idx
             { c with receiver = r'; rid = rid'; rt = Opvec.add c.rt (Pvec.Index.id E.pkts pkt) }
       | None -> if rid' <> c.rid then push_cfg idx { c with receiver = r'; rid = rid' });
      (* Adversarial delivery of any coverable in-transit packet (ω
         coordinates stay ω: one of arbitrarily many).  No drop moves —
         see the header comment. *)
      Pvec.Index.iter_by_value E.pkts (fun id ->
          match Opvec.remove_one c.tr id with
          | Some tr' ->
              let pkt = Pvec.Index.packet E.pkts id in
              let r', rid' = E.step_data c.receiver c.rid pkt in
              let r', rid' = norm_r r' rid' in
              push_cfg idx { c with receiver = r'; rid = rid'; tr = tr' }
          | None -> ());
      Pvec.Index.iter_by_value E.pkts (fun id ->
          match Opvec.remove_one c.rt id with
          | Some rt' ->
              let pkt = Pvec.Index.packet E.pkts id in
              let s', sid' = E.step_ack c.sender c.sid pkt in
              let s', sid' = norm_s s' sid' in
              push_cfg idx { c with sender = s'; sid = sid'; rt = rt' }
          | None -> ())
    in
    insert initial;
    Queue.push (add_node initial (-1)) queue;
    while (not (Queue.is_empty queue)) && not !truncated do
      expand (Queue.pop queue)
    done;
    let converged = not !truncated in
    let cover_size = Hashtbl.fold (fun _ l n -> n + List.length l) store 0 in
    let omega_configs =
      Hashtbl.fold
        (fun _ l n ->
          n
          + List.length
              (List.filter
                 (fun (tr, rt) -> Opvec.omega_count tr > 0 || Opvec.omega_count rt > 0)
                 l))
        store 0
    in
    let alpha_of select =
      Hashtbl.fold
        (fun _ l acc ->
          List.fold_left
            (fun acc entry ->
              List.fold_left
                (fun acc id -> Iset.add (Pvec.Index.packet E.pkts id) acc)
                acc
                (Opvec.support (select entry)))
            acc l)
        store Iset.empty
    in
    (* Stuck semi-valid controls: polls silent and state-stable.  By
       downward closure the empty-channel variant of any cover element is
       reachable (drop everything), and then no move but a further submit
       is enabled — the complete form of the bounded Q1 scan. *)
    let stuck = ref 0 in
    let stuck_witness = ref None in
    Hashtbl.iter
      (fun (sid, rid, sub, del) (s, r) ->
        if sub > del then begin
          let semit, _, sid' = E.step_sender_poll s sid in
          let remit, _, rid' = E.step_receiver_poll r rid in
          if semit = None && sid' = sid && remit = None && rid' = rid then begin
            incr stuck;
            if !stuck_witness = None then
              stuck_witness :=
                Some
                  (Format.asprintf "sender %a, receiver %a, %d message(s) pending" P.pp_sender
                     s P.pp_receiver r (sub - del))
          end
        end)
      reps;
    {
      converged;
      cover_size;
      iterations = !iterations;
      accelerations = !accelerations;
      accel_samples = !samples;
      omega_configs;
      pruned_covered = !pruned;
      phantom_coverable = !phantom;
      alphabet_tr = Iset.elements (alpha_of fst);
      alphabet_rt = Iset.elements (alpha_of snd);
      stuck_controls = !stuck;
      stuck_witness = !stuck_witness;
    }
end
