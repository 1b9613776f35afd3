module Spec = Nfc_protocol.Spec
module Pool = Nfc_util.Pool

type probe_bounds = { max_nodes : int; max_cost : int }

let default_probe_bounds = { max_nodes = 50_000; max_cost = 1_000 }

type report = {
  protocol : string;
  k_t : int;
  k_r : int;
  state_product : int;
  configs_explored : int;
  semi_valid_configs : int;
  boundness : int option;
  probes_exhausted : int;
  probes_skipped : int;
  por : bool;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%s: k_t=%d k_r=%d (product %d); %d configs, %d semi-valid;@ measured boundness %s \
     (%d probes exhausted%s)@]"
    r.protocol r.k_t r.k_r r.state_product r.configs_explored r.semi_valid_configs
    (match r.boundness with None -> "unbounded?" | Some b -> string_of_int b)
    r.probes_exhausted
    (if r.probes_skipped > 0 then Printf.sprintf ", %d skipped" r.probes_skipped else "")

let to_json r =
  let module J = Nfc_util.Json in
  J.Obj
    [
      ("protocol", J.String r.protocol);
      ("k_t", J.Int r.k_t);
      ("k_r", J.Int r.k_r);
      ("state_product", J.Int r.state_product);
      ("configs_explored", J.Int r.configs_explored);
      ("semi_valid_configs", J.Int r.semi_valid_configs);
      ("boundness", J.opt (fun b -> J.Int b) r.boundness);
      ("probes_exhausted", J.Int r.probes_exhausted);
      ("probes_skipped", J.Int r.probes_skipped);
      ("por", J.Bool r.por);
    ]

module Make (P : Spec.S) = struct
  (* Reachability is the shared engine's, with delivery gated on a message
     actually pending ([deliver_valid_only]): boundness only measures from
     valid executions, never down phantom branches. *)
  module E = Explore.Make (P)

  let equal_sender a b = P.compare_sender a b = 0
  let equal_receiver a b = P.compare_receiver a b = 0

  module Smap = Map.Make (struct
    type t = P.sender

    let compare = P.compare_sender
  end)

  module Rmap = Map.Make (struct
    type t = P.receiver

    let compare = P.compare_receiver
  end)

  let fresh_intern_sender () =
    match P.hash_sender with
    | Some h -> Explore.intern_hashed h equal_sender
    | None ->
        let m = ref Smap.empty in
        let n = ref 0 in
        fun v ->
          (match Smap.find_opt v !m with
          | Some id -> id
          | None ->
              let id = !n in
              incr n;
              m := Smap.add v id !m;
              id)

  let fresh_intern_receiver () =
    match P.hash_receiver with
    | Some h -> Explore.intern_hashed h equal_receiver
    | None ->
        let m = ref Rmap.empty in
        let n = ref 0 in
        fun v ->
          (match Rmap.find_opt v !m with
          | Some id -> id
          | None ->
              let id = !n in
              incr n;
              m := Rmap.add v id !m;
              id)

  module Ptbl = Hashtbl.Make (struct
    type t = int * int * Pvec.t * Pvec.t

    let equal (s1, r1, tr1, rt1) (s2, r2, tr2, rt2) =
      s1 = s2 && r1 = r2 && Pvec.equal tr1 tr2 && Pvec.equal rt1 rt2

    let hash (s, r, tr, rt) =
      let h = (s * 1000003) lxor r in
      let h = (h * 1000003) lxor Pvec.hash tr in
      let h = (h * 1000003) lxor Pvec.hash rt in
      h land max_int
  end)

  (* A probe context: interners, packet index and transition memos shared
     by one worker's batch of probes.  Probes never share a context
     across domains; sharing within a worker makes each repeated
     (state, input) transition a small-int table probe (exactly the
     engine's memoization, rebuilt here because probe states live in
     their own id space).  Sharing cannot change results: each probe
     still has its own visited table, and vectors only ever see ids the
     probe itself added. *)
  type ctx = {
    intern_s : P.sender -> int;
    intern_r : P.receiver -> int;
    pkts : Pvec.Index.t;
    spoll_memo : (int, int option * P.sender * int) Hashtbl.t;
    rpoll_memo : (int, Spec.remit option * P.receiver * int) Hashtbl.t;
    ack_memo : (int * int, P.sender * int) Hashtbl.t;
    data_memo : (int * int, P.receiver * int) Hashtbl.t;
  }

  let make_ctx () =
    {
      intern_s = fresh_intern_sender ();
      intern_r = fresh_intern_receiver ();
      pkts = Pvec.Index.create ();
      spoll_memo = Hashtbl.create 256;
      rpoll_memo = Hashtbl.create 256;
      ack_memo = Hashtbl.create 512;
      data_memo = Hashtbl.create 512;
    }

  let memo tbl key f =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
        let v = f () in
        Hashtbl.add tbl key v;
        v

  type pstate = {
    psender : P.sender;
    psid : int;
    preceiver : P.receiver;
    prid : int;
    ptr : Pvec.t;  (** fresh forward packets only *)
    prt : Pvec.t;  (** fresh reverse packets only *)
  }

  let spoll ctx st =
    memo ctx.spoll_memo st.psid (fun () ->
        let emit, s = P.sender_poll st.psender in
        (emit, s, ctx.intern_s s))

  let rpoll ctx st =
    memo ctx.rpoll_memo st.prid (fun () ->
        let emit, r = P.receiver_poll st.preceiver in
        (emit, r, ctx.intern_r r))

  let ack ctx st pkt =
    memo ctx.ack_memo (st.psid, pkt) (fun () ->
        let s = P.on_ack st.psender pkt in
        (s, ctx.intern_s s))

  let data ctx st pkt =
    memo ctx.data_memo (st.prid, pkt) (fun () ->
        let r = P.on_data st.preceiver pkt in
        (r, ctx.intern_r r))

  (* The boundness extension from one configuration: old in-transit packets
     are frozen, every fresh packet may be delivered, only forward sends
     cost.  0-1 breadth-first search; returns the minimum number of
     send_pkt^{t->r} actions before a delivery, if found within budget. *)
  let probe ctx (pb : probe_bounds) ~(sender : P.sender) ~(receiver : P.receiver) =
    let start =
      {
        psender = sender;
        psid = ctx.intern_s sender;
        preceiver = receiver;
        prid = ctx.intern_r receiver;
        ptr = Pvec.empty;
        prt = Pvec.empty;
      }
    in
    (* Two-ended 0-1 BFS: states paired with their cost; visited marked on
       pop so the first pop has the minimal cost. *)
    let dq : (int * pstate) Nfc_util.Deque.t ref = ref Nfc_util.Deque.empty in
    let push_front x = dq := Nfc_util.Deque.push_front x !dq in
    let push_back x = dq := Nfc_util.Deque.push_back x !dq in
    (* Scale with the per-probe node budget (cf. {!Explore}'s visited
       sizing) instead of a fixed 1024. *)
    let visited = Ptbl.create (max 1024 (min pb.max_nodes 1_048_576)) in
    let n_visited = ref 0 in
    let result = ref None in
    push_front (0, start);
    (try
       while not (Nfc_util.Deque.is_empty !dq) do
         if !n_visited >= pb.max_nodes then raise Exit;
         match Nfc_util.Deque.pop_front !dq with
         | None -> raise Exit
         | Some ((cost, st), rest) ->
             dq := rest;
             if cost > pb.max_cost then raise Exit;
             let key = (st.psid, st.prid, st.ptr, st.prt) in
             if not (Ptbl.mem visited key) then begin
               Ptbl.add visited key ();
               incr n_visited;
               (* Goal: a delivery is enabled. *)
               (let emit, r', prid' = rpoll ctx st in
                match emit with
                | Some Spec.Rdeliver ->
                    result := Some cost;
                    raise Exit
                | Some (Spec.Rsend pkt) ->
                    push_front
                      ( cost,
                        {
                          st with
                          preceiver = r';
                          prid = prid';
                          prt = Pvec.add st.prt (Pvec.Index.id ctx.pkts pkt);
                        } )
                | None ->
                    if prid' <> st.prid then
                      push_front (cost, { st with preceiver = r'; prid = prid' }));
               (let emit, s', psid' = spoll ctx st in
                match emit with
                | Some pkt ->
                    push_back
                      ( cost + 1,
                        {
                          st with
                          psender = s';
                          psid = psid';
                          ptr = Pvec.add st.ptr (Pvec.Index.id ctx.pkts pkt);
                        } )
                | None ->
                    if psid' <> st.psid then
                      push_front (cost, { st with psender = s'; psid = psid' }));
               Pvec.Index.iter_by_value ctx.pkts (fun id ->
                   match Pvec.remove_one st.ptr id with
                   | Some tr' ->
                       let pkt = Pvec.Index.packet ctx.pkts id in
                       let r', prid' = data ctx st pkt in
                       push_front (cost, { st with preceiver = r'; prid = prid'; ptr = tr' })
                   | None -> ());
               Pvec.Index.iter_by_value ctx.pkts (fun id ->
                   match Pvec.remove_one st.prt id with
                   | Some rt' ->
                       let pkt = Pvec.Index.packet ctx.pkts id in
                       let s', psid' = ack ctx st pkt in
                       push_front (cost, { st with psender = s'; psid = psid'; prt = rt' })
                   | None -> ())
             end
       done
     with Exit -> ());
    !result

  let take n xs =
    let rec go n acc = function
      | [] -> (List.rev acc, 0)
      | rest when n <= 0 -> (List.rev acc, List.length rest)
      | x :: rest -> go (n - 1) (x :: acc) rest
    in
    go n [] xs

  (* Split [xs] into [k] contiguous chunks (first chunks one longer on
     remainder).  Chunking is a performance knob only: probe results are
     aggregated commutatively, so chunk boundaries never change the
     report. *)
  let chunk k xs =
    let n = List.length xs in
    let k = max 1 (min k n) in
    let per = n / k and rem = n mod k in
    let rec go i xs acc =
      if i >= k then List.rev acc
      else
        let len = per + if i < rem then 1 else 0 in
        let taken, _ = take len xs in
        let rest =
          let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t in
          drop len xs
        in
        go (i + 1) rest (taken :: acc)
    in
    if n = 0 then [] else go 0 xs []

  (* Rank the distinct interned states of [configs] by their comparator,
     so configurations can then be ordered on integer keys alone. *)
  let rank_states get_id get_state cmp configs =
    let states = Hashtbl.create 64 in
    List.iter
      (fun c -> if not (Hashtbl.mem states (get_id c)) then Hashtbl.add states (get_id c) (get_state c))
      configs;
    let items = Hashtbl.fold (fun id st acc -> (id, st) :: acc) states [] in
    let sorted = List.sort (fun (_, a) (_, b) -> cmp a b) items in
    let ranks = Hashtbl.create 64 in
    List.iteri (fun rank (id, _) -> Hashtbl.replace ranks id rank) sorted;
    ranks

  let measure ?max_probes ?(jobs = 1) ?checkpoint ?reach
      ~(explore : Explore.bounds) ~(probe_bounds : probe_bounds) () =
    (* A caller-supplied ungated exploration at the same bounds stands in
       for the gated pass exactly when it is phantom-free: then every
       delivery taken had a message pending, so the gated traversal would
       make the identical moves and visit the identical set.  A reach
       carrying a phantom is ignored and the gated pass runs. *)
    let reach =
      match reach with
      | Some r when r.E.first_phantom = None -> r
      | _ -> E.reachable_set ~deliver_valid_only:true ?checkpoint explore
    in
    let stats = reach.E.reach_stats in
    let semi_valid =
      List.filter (fun c -> c.E.submitted = c.E.delivered + 1) reach.E.configs
    in
    let n_semi = List.length semi_valid in
    let budget = match max_probes with None -> max_int | Some n -> n in
    (* Sample the first [max_probes] semi-valid configurations in the
       canonical configuration order ({!E.compare_config}) — the same
       subset the tree-based engine probed when it iterated its visited
       {e set}.  When every configuration is probed anyway, order is
       irrelevant (the aggregation is commutative) and the sort is
       skipped.  The sort itself runs on precomputed integer keys:
       comparator ranks for the states, decoded value-sorted association
       lists for the channels — the same total order at a fraction of the
       comparator calls. *)
    let sampled, skipped =
      if budget >= n_semi then (semi_valid, 0)
      else begin
        let srank = rank_states (fun c -> c.E.sid) (fun c -> c.E.sender) P.compare_sender semi_valid in
        let rrank =
          rank_states (fun c -> c.E.rid) (fun c -> c.E.receiver) P.compare_receiver semi_valid
        in
        let keyed =
          List.map
            (fun c ->
              ( ( c.E.submitted,
                  c.E.delivered,
                  Hashtbl.find srank c.E.sid,
                  Hashtbl.find rrank c.E.rid,
                  E.packets_tr c,
                  E.packets_rt c ),
                c ))
            semi_valid
        in
        let sorted = List.sort (fun (ka, _) (kb, _) -> Stdlib.compare ka kb) keyed in
        take budget (List.map snd sorted)
      end
    in
    let costs =
      List.concat
        (Pool.map ~jobs
           (fun chunk ->
             let ctx = make_ctx () in
             List.map
               (fun c -> probe ctx probe_bounds ~sender:c.E.sender ~receiver:c.E.receiver)
               chunk)
           (chunk (if jobs <= 0 then Pool.recommended () else jobs) sampled))
    in
    (* Max + count are order-independent, so neither chunking nor parallel
       completion order can change the report. *)
    let exhausted = List.length (List.filter Option.is_none costs) in
    let boundness =
      if exhausted > 0 then None
      else Some (List.fold_left (fun acc c -> max acc (Option.value c ~default:0)) 0 costs)
    in
    {
      protocol = P.name;
      k_t = stats.Explore.sender_states;
      k_r = stats.Explore.receiver_states;
      state_product = stats.Explore.sender_states * stats.Explore.receiver_states;
      configs_explored = stats.Explore.nodes;
      semi_valid_configs = n_semi;
      boundness;
      probes_exhausted = exhausted;
      probes_skipped = skipped;
      por = explore.Explore.por;
    }
end

let measure ?max_probes ?jobs ?checkpoint (proto : Spec.t)
    ~(explore : Explore.bounds) ~(probe : probe_bounds) =
  let module P = (val proto) in
  let module B = Make (P) in
  B.measure ?max_probes ?jobs ?checkpoint ?reach:None ~explore ~probe_bounds:probe ()
