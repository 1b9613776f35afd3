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

  (* The boundness extension from one configuration: old in-transit packets
     are frozen, every fresh packet may be delivered, only forward sends
     cost.  0-1 breadth-first search; the minimum number of
     send_pkt^{t->r} actions before a delivery, if found within budget.

     Probe states are the configurations of a fresh engine [F] per chunk
     (counters 0, channels holding fresh packets only), so they live in
     their own id space while every probe of the chunk shares [F]'s
     interners, channel ids and transition memos.  Sharing cannot change
     results: each probe has its own visited table, and its channels only
     ever hold packets the probe itself added. *)
  let probe_chunk (pb : probe_bounds) configs =
    let module F = Explore.Make (P) in
    let module Deque = Nfc_util.Deque in
    let probe (c : E.config) =
      (* Scale with the per-probe node budget (cf. {!Explore}'s visited
         sizing) instead of a fixed 1024. *)
      let visited = F.Ctbl.create (max 1024 (min pb.max_nodes 1_048_576)) in
      (* Two-ended 0-1 BFS: states paired with their cost; visited marked
         on pop so the first pop has the minimal cost. *)
      let rec loop dq n_visited =
        if n_visited >= pb.max_nodes then None
        else
          match Deque.pop_front dq with
          | None -> None
          | Some ((cost, _), _) when cost > pb.max_cost -> None
          | Some ((_, st), dq) when F.Ctbl.mem visited st -> loop dq n_visited
          | Some ((cost, st), dq) -> (
              F.Ctbl.add visited st ();
              let dq = ref dq in
              let costless st = dq := Deque.push_front (cost, st) !dq in
              let fresh pkt ch = F.chan_add ch (Pvec.Index.id F.pkts pkt) in
              match F.step_receiver_poll st.F.receiver st.F.rid with
              | Some Spec.Rdeliver, _, _ -> Some cost (* Goal: a delivery is enabled. *)
              | emit, r', rid' ->
                  (match emit with
                  | Some (Spec.Rsend pkt) ->
                      costless { st with receiver = r'; rid = rid'; rt = fresh pkt st.rt }
                  | _ -> if rid' <> st.rid then costless { st with receiver = r'; rid = rid' });
                  (match F.step_sender_poll st.sender st.sid with
                  | Some pkt, s', sid' ->
                      let st' = { st with sender = s'; sid = sid'; tr = fresh pkt st.tr } in
                      dq := Deque.push_back (cost + 1, st') !dq
                  | None, s', sid' ->
                      if sid' <> st.sid then costless { st with sender = s'; sid = sid' });
                  for i = 0 to Pvec.Index.size F.pkts - 1 do
                    let p = Pvec.Index.nth_by_value F.pkts i in
                    let tr = F.chan_remove st.tr p in
                    if tr >= 0 then begin
                      let r', rid' = F.step_data_id st.receiver st.rid p in
                      costless { st with receiver = r'; rid = rid'; tr }
                    end
                  done;
                  for i = 0 to Pvec.Index.size F.pkts - 1 do
                    let p = Pvec.Index.nth_by_value F.pkts i in
                    let rt = F.chan_remove st.rt p in
                    if rt >= 0 then begin
                      let s', sid' = F.step_ack_id st.sender st.sid p in
                      costless { st with sender = s'; sid = sid'; rt }
                    end
                  done;
                  loop !dq (n_visited + 1))
      in
      let start =
        {
          F.sender = c.E.sender;
          sid = F.intern_sender c.E.sender;
          receiver = c.E.receiver;
          rid = F.intern_receiver c.E.receiver;
          tr = F.chan_of_pvec Pvec.empty;
          rt = F.chan_of_pvec Pvec.empty;
          submitted = 0;
          delivered = 0;
        }
      in
      loop (Deque.push_front (0, start) Deque.empty) 0
    in
    List.map (fun c -> (c, probe c)) configs

  let take n xs =
    let rec go n acc = function
      | [] -> (List.rev acc, 0)
      | rest when n <= 0 -> (List.rev acc, List.length rest)
      | x :: rest -> go (n - 1) (x :: acc) rest
    in
    go n [] xs

  (* Deal [xs] round-robin into [k] chunks, so the concatenated chunk
     results are not in input order.  Chunking is still a performance knob
     only: each probe result travels with its configuration and is mapped
     back by station pair, and the aggregation (max, count) is commutative,
     so chunk boundaries never change the report. *)
  let chunk k xs =
    let k = max 1 (min k (List.length xs)) in
    List.init k (fun j -> List.filteri (fun i _ -> i mod k = j) xs)

  (* Rank the distinct interned ids [get_id] takes over [configs] by [cmp]
     on what they stand for, so configurations can then be ordered on
     integer keys alone: [ranks.(id)] is the rank of [id].  Interned-id
     equality is [cmp] equality, so ranks never tie. *)
  let rank get_id get_value cmp configs =
    let seen = Hashtbl.create 64 in
    List.iter
      (fun c -> if not (Hashtbl.mem seen (get_id c)) then Hashtbl.add seen (get_id c) (get_value c))
      configs;
    let items = Hashtbl.fold (fun id v acc -> (id, v) :: acc) seen [] in
    let sorted = List.sort (fun (_, a) (_, b) -> cmp a b) items in
    let ranks = Array.make (List.fold_left (fun m (id, _) -> max m (id + 1)) 0 items) 0 in
    List.iteri (fun r (id, _) -> ranks.(id) <- r) sorted;
    ranks

  let compare_keys (a : int array) (b : int array) =
    let rec go i =
      if i = Array.length a then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

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
       skipped.  The sort itself runs on precomputed integer keys: the
       ranks of the states under their comparators and of the channel ids
       under their decoded value-sorted association lists — the same total
       order at a fraction of the comparator calls. *)
    let sampled, skipped =
      if budget >= n_semi then (semi_valid, 0)
      else begin
        let srank = rank (fun c -> c.E.sid) (fun c -> c.E.sender) P.compare_sender semi_valid in
        let rrank = rank (fun c -> c.E.rid) (fun c -> c.E.receiver) P.compare_receiver semi_valid in
        let trrank = rank (fun c -> c.E.tr) E.packets_tr Stdlib.compare semi_valid in
        let rtrank = rank (fun c -> c.E.rt) E.packets_rt Stdlib.compare semi_valid in
        let keyed =
          List.map
            (fun c ->
              ( [|
                  c.E.submitted;
                  c.E.delivered;
                  srank.(c.E.sid);
                  rrank.(c.E.rid);
                  trrank.(c.E.tr);
                  rtrank.(c.E.rt);
                |],
                c ))
            semi_valid
        in
        let sorted = List.sort (fun (ka, _) (kb, _) -> compare_keys ka kb) keyed in
        take budget (List.map snd sorted)
      end
    in
    (* A probe starts from [(sender, receiver, ∅, ∅)] with zero counters
       (in-transit packets are frozen by the definition), so its result is
       a function of the station pair [(sid, rid)]: probe one
       representative per pair, at most k_t * k_r of them, and key the
       results back onto every sampled configuration.  [probes_exhausted]
       still counts configurations. *)
    let pair c = (c.E.sid, c.E.rid) in
    let seen = Hashtbl.create 1024 in
    let reps =
      List.filter
        (fun c ->
          let fresh = not (Hashtbl.mem seen (pair c)) in
          if fresh then Hashtbl.add seen (pair c) ();
          fresh)
        sampled
    in
    let results = Hashtbl.create (Hashtbl.length seen) in
    List.iter
      (List.iter (fun (c, cost) -> Hashtbl.replace results (pair c) cost))
      (Pool.map ~jobs
         (probe_chunk probe_bounds)
         (chunk (if jobs <= 0 then Pool.recommended () else jobs) reps));
    let costs = List.map (fun c -> Hashtbl.find results (pair c)) sampled in
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
