module Table = Nfc_util.Table
module Policy = Nfc_channel.Policy

let figure_1 () = Nfc_automata.Composition.figure_1 ()

(* ------------------------------------------------------------- E-T21 *)

type t21_row = {
  protocol : string;
  k_t : int;
  k_r : int;
  product : int;
  boundness : int option;
  within_bound : bool;
}

let t21 ?(quick = false) () =
  let explore =
    let d = Nfc_mcheck.Explore.default_bounds in
    if quick then
      { d with capacity_tr = 2; capacity_rt = 2; submit_budget = 2; max_nodes = 10_000 }
    else { d with capacity_tr = 2; capacity_rt = 2; max_nodes = 60_000 }
  in
  let probe = Nfc_mcheck.Boundness.default_probe_bounds in
  let protocols =
    [
      Nfc_protocol.Stop_and_wait.make ~timeout:2 ();
      Nfc_protocol.Alternating_bit.make ~timeout:2 ();
      Nfc_protocol.Stenning.make ~timeout:2 ();
    ]
  in
  let rows =
    List.map
      (fun proto ->
        let r = Nfc_mcheck.Boundness.measure proto ~explore ~probe in
        {
          protocol = r.Nfc_mcheck.Boundness.protocol;
          k_t = r.k_t;
          k_r = r.k_r;
          product = r.state_product;
          boundness = r.boundness;
          within_bound =
            (match r.boundness with None -> true | Some b -> b <= r.state_product);
        })
      protocols
  in
  let table =
    Table.create
      ~title:
        "E-T21  Theorem 2.1: measured boundness vs automaton state product (k_t x k_r)"
      ~columns:
        [
          ("protocol", Table.Left);
          ("k_t", Table.Right);
          ("k_r", Table.Right);
          ("k_t*k_r", Table.Right);
          ("measured boundness", Table.Right);
          ("<= product", Table.Left);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.protocol;
          Table.cell_int r.k_t;
          Table.cell_int r.k_r;
          Table.cell_int r.product;
          (match r.boundness with
          | None -> "no extension (wedged)"
          | Some b -> Table.cell_int b);
          (match r.boundness with
          | None -> "n/a: Thm 2.1 presupposes a correct protocol"
          | Some _ -> if r.within_bound then "yes" else "NO");
        ])
    rows;
  Table.print table;
  rows

(* ------------------------------------------------------------ E-T31a *)

type t31_pyramid_row = { k : int; i : int; copies : int }

let t31_pyramid ?(f = fun _ -> 2) ~ks () =
  let rows =
    List.concat_map
      (fun k -> List.init k (fun i -> { k; i; copies = Bounds.t31_copies ~k ~i ~f }))
      ks
  in
  let table =
    Table.create
      ~title:
        "E-T31a  Theorem 3.1 bookkeeping: copies (k-i)!*f(k+1)^(k+1-i) the adversary \
         holds at stage i (f = const 2; saturating arithmetic)"
      ~columns:[ ("k", Table.Right); ("i", Table.Right); ("copies in transit", Table.Right) ]
  in
  List.iter
    (fun r ->
      Table.add_row table [ Table.cell_int r.k; Table.cell_int r.i; Table.cell_int r.copies ])
    rows;
  Table.print table;
  rows

(* ------------------------------------------------------------ E-T31b *)

type t31_row = {
  protocol : string;
  headers : string;
  outcome : string;
  headers_used : int;
  messages : int;
  violated : bool;
}

let t31 ?(quick = false) ?seed:_ () =
  let max_messages = if quick then 6 else 10 in
  let probe_nodes = if quick then 100_000 else 400_000 in
  let protocols =
    [
      Nfc_protocol.Stop_and_wait.make ();
      Nfc_protocol.Alternating_bit.make ();
      Nfc_protocol.Flood.make ~base:1 ~ratio:2.0 ();
      Nfc_protocol.Flood.make ~base:2 ~ratio:1.5 ();
      Nfc_protocol.Afek3.make ();
      Nfc_protocol.Stenning.make ();
    ]
  in
  let rows =
    List.map
      (fun proto ->
        let name = Nfc_protocol.Spec.name proto in
        let headers =
          match Nfc_protocol.Spec.header_bound proto with
          | Some k -> string_of_int k
          | None -> "unbounded"
        in
        match Adversary_m.attack ~max_messages ~probe_nodes proto with
        | Adversary_m.Violation v ->
            {
              protocol = name;
              headers;
              outcome = Printf.sprintf "DL1 violated after %d messages" v.at_epoch;
              headers_used = v.headers_tr;
              messages = v.at_epoch;
              violated = true;
            }
        | Adversary_m.Survived s ->
            {
              protocol = name;
              headers;
              outcome = "survived (headers grew with n)";
              headers_used = s.headers_tr;
              messages = s.messages;
              violated = false;
            }
        | Adversary_m.Stuck s ->
            {
              protocol = name;
              headers;
              outcome = Printf.sprintf "blocked at epoch %d (refused progress)" s.epoch;
              headers_used = 0;
              messages = s.epoch;
              violated = false;
            })
      protocols
  in
  let table =
    Table.create
      ~title:
        "E-T31b  Theorem 3.1 adversary: bounded headers are violated, unbounded headers \
         survive, Afek3 survives by blocking"
      ~columns:
        [
          ("protocol", Table.Left);
          ("header bound", Table.Right);
          ("attack outcome", Table.Left);
          ("fwd headers used", Table.Right);
          ("messages", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.protocol;
          r.headers;
          r.outcome;
          Table.cell_int r.headers_used;
          Table.cell_int r.messages;
        ])
    rows;
  Table.print table;
  rows

(* ------------------------------------------------------------- E-T41 *)

type t41_row = {
  protocol : string;
  l : int;
  bound : int;
  cost : int option;
  frozen : bool;
}

let t41 ?(quick = false) () =
  let ls = if quick then [ 8; 32 ] else [ 8; 16; 32; 64; 128; 256 ] in
  let cases =
    [
      ("flood", (fun () -> Nfc_protocol.Flood.make ~base:2 ~ratio:1.3 ()), `One_per_epoch);
      ("afek3", (fun () -> Nfc_protocol.Afek3.make ()), `All_in_first);
      ("stenning", (fun () -> Nfc_protocol.Stenning.make ()), `Chunked);
    ]
  in
  let rows = ref [] in
  List.iter
    (fun frozen ->
      List.iter
        (fun (_, mk, style) ->
          List.iter
            (fun l ->
              let per_epoch =
                match style with `One_per_epoch -> 1 | `All_in_first -> l | `Chunked -> 8
              in
              let m = Adversary_p.measure ~l ~per_epoch ~frozen (mk ()) in
              rows :=
                {
                  protocol = m.Adversary_p.protocol;
                  l = m.backlog;
                  bound = m.bound;
                  cost = m.cost;
                  frozen;
                }
                :: !rows)
            ls)
        cases)
    [ false; true ];
  let rows = List.rev !rows in
  (* The backlog builder can saturate (the protocol refuses further
     accumulation); drop the resulting duplicate rows. *)
  let rows =
    List.fold_left
      (fun acc r ->
        if List.exists (fun r' -> r'.protocol = r.protocol && r'.l = r.l && r'.frozen = r.frozen) acc
        then acc
        else r :: acc)
      [] rows
    |> List.rev
  in
  let table =
    Table.create
      ~title:
        "E-T41  Theorem 4.1: packets to deliver a message vs backlog l (bound: floor(l/k); \
         relaxed regime releases old packets, frozen regime is the paper's definition)"
      ~columns:
        [
          ("protocol", Table.Left);
          ("regime", Table.Left);
          ("backlog l", Table.Right);
          ("floor(l/k)", Table.Right);
          ("measured cost", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.protocol;
          (if r.frozen then "frozen" else "relaxed");
          Table.cell_int r.l;
          Table.cell_int r.bound;
          (match r.cost with None -> "no completion" | Some c -> Table.cell_int c);
        ])
    rows;
  Table.print table;
  rows

(* ------------------------------------------------------------ E-T51a *)

type t51_growth_row = {
  q : float;
  measured_rate : float;
  lower : float;
  ideal : float;
  total_sent_median : float;
}

let t51_growth ?(quick = false) ?(seed = 42) ~qs () =
  let n = if quick then 60 else 200 in
  let trials = if quick then 10 else 50 in
  let m0 = 20 in
  let rows =
    List.map
      (fun q ->
        let rates, totals = Prob_experiment.dominant_growth_summary ~seed ~q ~n ~m0 ~trials in
        {
          q;
          measured_rate = rates.Nfc_stats.Summary.mean;
          lower = Bounds.t51_rate ~q n;
          ideal = 1.0 +. q;
          total_sent_median = totals.Nfc_stats.Summary.median;
        })
      qs
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E-T51a  Theorem 5.1 core process: dominant-packet stock growth per message \
            (n=%d epochs, %d trials; bound: 1+q-eps_n, eps_n = 1/sqrt n)"
           n trials)
      ~columns:
        [
          ("q", Table.Right);
          ("measured rate", Table.Right);
          ("1+q-eps_n", Table.Right);
          ("1+q", Table.Right);
          ("median packets sent", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Table.cell_float ~decimals:2 r.q;
          Table.cell_float ~decimals:4 r.measured_rate;
          Table.cell_float ~decimals:4 r.lower;
          Table.cell_float ~decimals:4 r.ideal;
          Table.cell_sci r.total_sent_median;
        ])
    rows;
  Table.print table;
  rows

(* ------------------------------------------------------------ E-T51b *)

type t51_sweep_row = {
  protocol : string;
  q : float;
  n : int;
  packets_median : float;
  completion : float;
}

let t51_sweep ?(quick = false) ?(seed = 7) ~q () =
  let trials = if quick then 3 else 10 in
  let cases =
    [
      ("flood", Nfc_protocol.Flood.make (), if quick then [ 4; 8 ] else [ 4; 6; 8; 10; 12; 14 ]);
      ("afek3", Nfc_protocol.Afek3.make (), if quick then [ 8; 32 ] else [ 4; 8; 16; 32; 64 ]);
      ( "stenning",
        Nfc_protocol.Stenning.make (),
        if quick then [ 8; 32 ] else [ 4; 8; 16; 32; 64 ] );
    ]
  in
  let rows = ref [] in
  let fits = ref [] in
  List.iter
    (fun (name, proto, ns) ->
      let swept = Prob_experiment.sweep proto ~q ~ns ~trials ~seed in
      List.iter
        (fun (n, s, ok) ->
          rows :=
            { protocol = name; q; n; packets_median = s.Nfc_stats.Summary.median; completion = ok }
            :: !rows)
        swept;
      fits := (name, Prob_experiment.growth_rate swept) :: !fits)
    cases;
  let rows = List.rev !rows and fits = List.rev !fits in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E-T51b  Theorem 5.1 end to end: packets to deliver n messages over the \
            probabilistic channel (q=%.2f, %d trials/point)"
           q trials)
      ~columns:
        [
          ("protocol", Table.Left);
          ("n", Table.Right);
          ("median packets", Table.Right);
          ("completion", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.protocol;
          Table.cell_int r.n;
          Table.cell_float ~decimals:0 r.packets_median;
          Table.cell_float ~decimals:2 r.completion;
        ])
    rows;
  Table.print table;
  let fit_table =
    Table.create ~title:"        fitted per-message growth factor (rate^n)"
      ~columns:[ ("protocol", Table.Left); ("growth rate", Table.Right); ("log-R2", Table.Right) ]
  in
  List.iter
    (fun (name, g) ->
      Table.add_row fit_table
        [
          name;
          Table.cell_float ~decimals:3 g.Nfc_util.Fit.rate;
          Table.cell_float ~decimals:3 g.Nfc_util.Fit.log_r2;
        ])
    fits;
  Table.print fit_table;
  (rows, fits)

(* ------------------------------------------------------------ E-T31c *)

let t31_staged ?(quick = false) () =
  let reps = if quick then 8 else 16 in
  let max_messages = if quick then 5 else 8 in
  let probe_nodes = if quick then 40_000 else 150_000 in
  let table =
    Table.create
      ~title:
        "E-T31c  the Claim of Theorem 3.1, staged: tracked set P_i grows one packet per          stage; bounded-header protocols run out of fresh values"
      ~columns:
        [
          ("protocol", Table.Left);
          ("stages", Table.Right);
          ("|P_i| growth", Table.Left);
          ("outcome", Table.Left);
        ]
  in
  let rows =
    List.map
      (fun proto ->
        let o = Adversary_m.attack_staged ~reps ~max_messages ~probe_nodes proto in
        let growth =
          String.concat ">"
            (List.map (fun s -> string_of_int (List.length s.Adversary_m.tracked)) o.stages)
        in
        let outcome =
          match o.result with
          | Adversary_m.Violation v -> Printf.sprintf "violated after %d" v.at_epoch
          | Adversary_m.Survived s -> Printf.sprintf "survived; %d fwd headers" s.headers_tr
          | Adversary_m.Stuck s -> Printf.sprintf "blocked at %d" s.epoch
        in
        Table.add_row table
          [ Nfc_protocol.Spec.name proto; Table.cell_int (List.length o.stages); growth; outcome ];
        o)
      [
        Nfc_protocol.Stop_and_wait.make ();
        Nfc_protocol.Alternating_bit.make ();
        Nfc_protocol.Flood.make ~base:1 ~ratio:2.0 ();
        Nfc_protocol.Stenning.make ();
      ]
  in
  Table.print table;
  rows

(* ------------------------------------------------------------- E-LMF *)

type lmf_row = {
  base : int;
  boundness_proxy : int;
  messages_survived : int;
  predicted_ceiling : int;
}

let lmf ?(quick = false) () =
  let bases = if quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8; 16 ] in
  let headers = 4 in
  let rows =
    List.map
      (fun base ->
        (* Constant thresholds: ratio 1.0 makes Flood k-bounded with
           k ~ 2*base packets per message.  The adversary delays exactly
           one copy per epoch — the minimal stock growth of the [LMF88]
           argument. *)
        let proto = Nfc_protocol.Flood.make ~base ~ratio:1.0 () in
        let max_messages = (8 * base) + 16 in
        let survived =
          match
            Adversary_m.attack ~farm:(fun _ -> 1) ~max_messages ~probe_nodes:200_000 proto
          with
          | Adversary_m.Violation v -> v.at_epoch
          | Adversary_m.Survived s -> s.messages
          | Adversary_m.Stuck s -> s.epoch
        in
        {
          base;
          boundness_proxy = 2 * base;
          messages_survived = survived;
          predicted_ceiling = Bounds.lmf88_max_messages ~k:(2 * base) ~headers;
        })
      bases
  in
  let table =
    Table.create
      ~title:
        "E-LMF  [LMF88] predecessor bound: constant-bounded Flood variants die within          O(k*H) messages (H = 4 headers; adversary delays one copy per epoch)"
      ~columns:
        [
          ("threshold (base)", Table.Right);
          ("boundness k ~ 2*base", Table.Right);
          ("messages before phantom", Table.Right);
          ("k*H ceiling", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Table.cell_int r.base;
          Table.cell_int r.boundness_proxy;
          Table.cell_int r.messages_survived;
          Table.cell_int r.predicted_ceiling;
        ])
    rows;
  Table.print table;
  rows

(* ------------------------------------------------------------ E-T51c *)

type t51_safety_row = { ratio : float; violation_rate : float }

let t51_safety ?(quick = false) ?(seed = 3) ~q () =
  let trials = if quick then 5 else 30 in
  let n = 8 in
  let ratios = if quick then [ 1.0; 1.5; 2.0 ] else [ 1.0; 1.1; 1.2; 1.3; 1.5; 1.75; 2.0 ] in
  let swept = Prob_experiment.safety_sweep ~q ~ratios ~n ~trials ~seed in
  let rows = List.map (fun (ratio, violation_rate) -> { ratio; violation_rate }) swept in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E-T51c  Flood threshold ratio vs DL1 violation rate (q=%.2f, n=%d, %d trials): \
            bounded headers must outpace the stale flood or die"
           q n trials)
      ~columns:[ ("threshold ratio", Table.Right); ("violation rate", Table.Right) ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [ Table.cell_float ~decimals:2 r.ratio; Table.cell_float ~decimals:2 r.violation_rate ])
    rows;
  Table.print table;
  rows

(* -------------------------------------------------------------- E-SS *)

type ss_row = {
  ss_protocol : string;
  legit_configs : int;
  legit_closed : bool;
  corrupted_starts : int;
  ss1 : string;
  ss1_bound : int option;
  ss2 : string;
}

let ss ?(quick = false) () =
  let module C = Nfc_stab.Converge in
  let cfg_at cap =
    (* The corrupted product is exponential in capacity, so the clamps
       scale with it or the cap-2 run truncates to Unknown. *)
    {
      C.default_cfg with
      C.bounds = { C.default_cfg.C.bounds with Nfc_mcheck.Explore.capacity_tr = cap; capacity_rt = cap };
      C.max_starts = C.default_cfg.C.max_starts * cap * cap;
      recovery_nodes = C.default_cfg.C.recovery_nodes * cap * cap;
    }
  in
  let cases =
    (* One self-stabilizing design per capacity next to the classical
       protocols it improves on: the transient-fault adversary hands the
       system an arbitrary corrupted configuration and then goes silent. *)
    if quick then [ (Nfc_protocol.Stab_arq.make (), 1); (Nfc_protocol.Alternating_bit.make (), 1) ]
    else
      [
        (Nfc_protocol.Stab_arq.make (), 1);
        (Nfc_protocol.Stab_arq.make ~cap:2 (), 2);
        (Nfc_protocol.Alternating_bit.make (), 1);
        (Nfc_protocol.Stop_and_wait.make (), 1);
      ]
  in
  let rows =
    List.map
      (fun (spec, cap) ->
        let r = C.analyze spec (cfg_at cap) in
        {
          ss_protocol = r.C.protocol;
          legit_configs = r.C.legit_configs;
          legit_closed = r.C.legit_closed;
          corrupted_starts = r.C.starts_enumerated;
          ss1 = C.verdict_to_string r.C.ss1;
          ss1_bound = C.convergence_bound r;
          ss2 = C.verdict_to_string r.C.ss2;
        })
      cases
  in
  let table =
    Table.create
      ~title:
        "E-SS  Self-stabilization: the transient-fault adversary corrupts every station         state and channel multiset; SS1 demands autonomous convergence to the             legitimate set, SS2 re-convergence from duplication exits"
      ~columns:
        [
          ("protocol", Table.Left);
          ("legitimate |L|", Table.Right);
          ("closed", Table.Left);
          ("corrupted starts", Table.Right);
          ("SS1", Table.Left);
          ("bound", Table.Right);
          ("SS2", Table.Left);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.ss_protocol;
          Table.cell_int r.legit_configs;
          (if r.legit_closed then "yes" else "no");
          Table.cell_int r.corrupted_starts;
          r.ss1;
          (match r.ss1_bound with Some b -> Table.cell_int b | None -> "-");
          r.ss2;
        ])
    rows;
  Table.print table;
  rows

let run_all ?(quick = false) ?(seed = 42) () =
  print_endline (figure_1 ());
  print_newline ();
  ignore (t21 ~quick ());
  print_newline ();
  ignore (t31_pyramid ~ks:[ 2; 3; 4; 5 ] ());
  print_newline ();
  ignore (t31 ~quick ());
  print_newline ();
  ignore (t31_staged ~quick ());
  print_newline ();
  ignore (lmf ~quick ());
  print_newline ();
  ignore (t41 ~quick ());
  print_newline ();
  ignore (t51_growth ~quick ~seed ~qs:[ 0.1; 0.3; 0.5 ] ());
  print_newline ();
  ignore (t51_sweep ~quick ~seed ~q:0.3 ());
  print_newline ();
  ignore (t51_safety ~quick ~seed ~q:0.6 ());
  print_newline ();
  ignore (ss ~quick ());
  print_newline ();
  ignore (Nfc_transport.Experiment.run ~quick ~seed ());
  10
