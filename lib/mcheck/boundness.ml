module Spec = Nfc_protocol.Spec

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

     Probe states are the configurations of a fresh engine [F] per
     [measure] (counters 0, channels holding fresh packets only), so they
     live in their own id space while every probe shares [F]'s interners,
     channel ids and transition memos, and one visited table, cleared
     between probes.  Sharing cannot change results: each probe starts
     from an empty table, and its channels only ever hold packets the
     probe itself added. *)
  let probe_pairs (pb : probe_bounds) pairs =
    let module F = Explore.Make (P) in
    let module Deque = Nfc_util.Deque in
    let visited = Explore.Table.create () in
    let probe sender receiver =
      Explore.Table.clear visited;
      let seen (st : F.config) =
        Explore.Table.find visited st.sid st.rid st.tr st.rt st.submitted st.delivered >= 0
      in
      (* Two-ended 0-1 BFS: states paired with their cost; visited marked
         on pop so the first pop has the minimal cost. *)
      let rec loop dq n_visited =
        if n_visited >= pb.max_nodes then None
        else
          match Deque.pop_front dq with
          | None -> None
          | Some ((cost, _), _) when cost > pb.max_cost -> None
          | Some ((_, st), dq) when seen st -> loop dq n_visited
          | Some ((cost, st), dq) -> (
              ignore
                (Explore.Table.add visited st.sid st.rid st.tr st.rt st.submitted st.delivered);
              let dq = ref dq in
              let costless st = dq := Deque.push_front (cost, st) !dq in
              let fresh pkt ch = F.chan_add ch (Pvec.Index.id F.pkts pkt) in
              match F.step_receiver_poll st.F.rid with
              | Some Spec.Rdeliver, _ -> Some cost (* Goal: a delivery is enabled. *)
              | emit, rid ->
                  (match emit with
                  | Some (Spec.Rsend pkt) -> costless { st with rid; rt = fresh pkt st.rt }
                  | _ -> if rid <> st.rid then costless { st with rid });
                  (match F.step_sender_poll st.sid with
                  | Some pkt, sid ->
                      dq := Deque.push_back (cost + 1, { st with sid; tr = fresh pkt st.tr }) !dq
                  | None, sid -> if sid <> st.sid then costless { st with sid });
                  for i = 0 to Pvec.Index.size F.pkts - 1 do
                    let p = Pvec.Index.nth_by_value F.pkts i in
                    let tr = F.chan_remove st.tr p in
                    if tr >= 0 then costless { st with rid = F.step_data_id st.rid p; tr }
                  done;
                  for i = 0 to Pvec.Index.size F.pkts - 1 do
                    let p = Pvec.Index.nth_by_value F.pkts i in
                    let rt = F.chan_remove st.rt p in
                    if rt >= 0 then costless { st with sid = F.step_ack_id st.sid p; rt }
                  done;
                  loop !dq (n_visited + 1))
      in
      let start =
        {
          F.sid = F.intern_sender sender;
          rid = F.intern_receiver receiver;
          tr = F.chan_of_pvec Pvec.empty;
          rt = F.chan_of_pvec Pvec.empty;
          submitted = 0;
          delivered = 0;
        }
      in
      loop (Deque.push_front (0, start) Deque.empty) 0
    in
    List.map (fun (pair, sender, receiver) -> (pair, probe sender receiver)) pairs

  (* Rank the distinct interned ids [get_id] takes over the configuration
     ids [ids] by [cmp] on what they stand for, so configurations can then
     be ordered on integer keys alone: [ranks.(id)] is the rank of [id].
     Ids are dense, so the rank array doubles as the seen-mark ([-1] until
     seen).  Interned-id equality is [cmp] equality, so ranks never tie. *)
  let rank get_id get_value cmp ids =
    let ranks = Array.make (List.fold_left (fun m i -> max m (get_id i + 1)) 0 ids) (-1) in
    let distinct =
      List.fold_left
        (fun acc i ->
          let id = get_id i in
          if ranks.(id) >= 0 then acc
          else begin
            ranks.(id) <- 0;
            (id, get_value id) :: acc
          end)
        [] ids
    in
    List.iteri (fun r (id, _) -> ranks.(id) <- r) (List.sort (fun (_, a) (_, b) -> cmp a b) distinct);
    ranks

  (* The [k] smallest of [ids] under [cmp], ascending.  A bounded max-heap
     holds the [k] smallest seen so far with the largest at the root, so
     each further id costs one comparison unless it displaces the root.
     (A [Set] bounded the same way allocates per displacement and read
     ~4 MB more peak RSS on the lint-registry benchmark.) *)
  let smallest k cmp ids =
    let heap = Array.make k 0 and size = ref 0 in
    let swap a b =
      let t = heap.(a) in
      heap.(a) <- heap.(b);
      heap.(b) <- t
    in
    let rec up j =
      let p = (j - 1) / 2 in
      if j > 0 && cmp heap.(j) heap.(p) > 0 then begin
        swap j p;
        up p
      end
    in
    let rec down j =
      let l = (2 * j) + 1 in
      if l < !size then begin
        let c = if l + 1 < !size && cmp heap.(l + 1) heap.(l) > 0 then l + 1 else l in
        if cmp heap.(c) heap.(j) > 0 then begin
          swap c j;
          down c
        end
      end
    in
    List.iter
      (fun i ->
        if !size < k then begin
          heap.(!size) <- i;
          incr size;
          up (!size - 1)
        end
        else if k > 0 && cmp i heap.(0) < 0 then begin
          heap.(0) <- i;
          down 0
        end)
      ids;
    List.sort cmp (Array.to_list (Array.sub heap 0 !size))

  let measure ?max_probes ?checkpoint ?reach
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
    let g = reach.E.graph in
    let semi_valid =
      let out = ref [] in
      for i = E.size g - 1 downto 0 do
        if E.submitted g i = E.delivered g i + 1 then out := i :: !out
      done;
      !out
    in
    let n_semi = List.length semi_valid in
    let budget = match max_probes with None -> max_int | Some n -> n in
    (* Sample the first [max_probes] semi-valid configurations in the
       canonical configuration order — (submitted, delivered), then the
       state comparators, then the channel multisets in key order: the
       same subset the tree-based engine probed when it iterated its
       visited {e set}.  When every configuration is probed anyway, order is
       irrelevant (the aggregation is commutative) and no selection runs.
       Otherwise a bounded max-heap of configuration ids ([smallest])
       keeps the [max_probes] smallest and only they are sorted.  It
       compares on the fly through integer keys: the counters, then the
       ranks of the states under their comparators and of the channel ids
       under their decoded value-sorted association lists — the same total
       order without decoding a configuration.  The key is the whole
       configuration, so no two ids tie and the selected set is exactly
       the canonical prefix. *)
    let sampled, skipped =
      if budget >= n_semi then (semi_valid, 0)
      else begin
        let srank = rank (E.sid g) E.sender_of P.compare_sender semi_valid in
        let rrank = rank (E.rid g) E.receiver_of P.compare_receiver semi_valid in
        let trrank = rank (E.tr g) E.chan_packets Stdlib.compare semi_valid in
        let rtrank = rank (E.rt g) E.chan_packets Stdlib.compare semi_valid in
        let cmp i j =
          let c = Int.compare (E.submitted g i) (E.submitted g j) in
          if c <> 0 then c
          else
            let c = Int.compare (E.delivered g i) (E.delivered g j) in
            if c <> 0 then c
            else
              let c = Int.compare srank.(E.sid g i) srank.(E.sid g j) in
              if c <> 0 then c
              else
                let c = Int.compare rrank.(E.rid g i) rrank.(E.rid g j) in
                if c <> 0 then c
                else
                  let c = Int.compare trrank.(E.tr g i) trrank.(E.tr g j) in
                  if c <> 0 then c else Int.compare rtrank.(E.rt g i) rtrank.(E.rt g j)
        in
        let k = max budget 0 in
        (smallest k cmp semi_valid, n_semi - k)
      end
    in
    (* A probe starts from [(sender, receiver, ∅, ∅)] with zero counters
       (in-transit packets are frozen by the definition), so its result is
       a function of the station pair [(sid, rid)]: probe one
       representative per pair, at most k_t * k_r of them, and key the
       results back onto every sampled configuration.  [probes_exhausted]
       still counts configurations. *)
    let pair i = (E.sid g i, E.rid g i) in
    let seen = Hashtbl.create 1024 in
    let reps =
      List.filter_map
        (fun i ->
          let ((sid, rid) as p) = pair i in
          if Hashtbl.mem seen p then None
          else begin
            Hashtbl.add seen p ();
            Some (p, E.sender_of sid, E.receiver_of rid)
          end)
        sampled
    in
    let results = Hashtbl.create (Hashtbl.length seen) in
    List.iter
      (fun (p, cost) -> Hashtbl.replace results p cost)
      (probe_pairs probe_bounds reps);
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
    }
end

let measure ?max_probes ?checkpoint (proto : Spec.t)
    ~(explore : Explore.bounds) ~(probe : probe_bounds) =
  let module P = (val proto) in
  let module B = Make (P) in
  B.measure ?max_probes ?checkpoint ?reach:None ~explore ~probe_bounds:probe ()
