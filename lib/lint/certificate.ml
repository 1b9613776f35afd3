module Json = Nfc_util.Json

type strength = Bounded of int | Complete | Static

type cover_summary = {
  cover_converged : bool;
  cover_size : int;
  cover_iterations : int;
  cover_accelerations : int;
  cover_omega_configs : int;
  accel_samples : string list;
}

type t = {
  protocol : string;
  declared_header_bound : int option;
  alphabet_tr : int list;
  alphabet_rt : int list;
  k_t : int;
  k_r : int;
  state_product : int;
  measured_boundness : int option;
  probes_exhausted : int;
  configs_explored : int;
  truncated : bool;
  strength : strength;
  rule_strengths : (string * strength) list;
  cover : cover_summary option;
  refine_rounds : int option;
      (* CEGAR provenance: how many abstraction-refinement rounds the
         static tier ran before these strengths were assigned.  [None]
         when no refinement was requested, [Some 0] when requested but
         the one-shot fixpoint already sufficed. *)
  stabilization : string option;
      (* Self-stabilization provenance ([Nfc_stab] via the SS1/SS2
         tier): a compact "ss1=pass(bound=8) ss2=pass(bound=0)" summary
         of the convergence verdicts the diagnostics were drawn from.
         [None] when the stabilization tier was not requested. *)
}

let strength_to_string = function
  | Static -> "static"
  | Complete -> "complete"
  | Bounded n -> Printf.sprintf "bounded(%d)" n

(* Static sits above Complete: a spec-level proof holds for every node
   budget, channel capacity AND submit budget, where Complete is still
   relative to the certificate's submission budget. *)
let weakest a b =
  match (a, b) with
  | Static, s | s, Static -> s
  | Complete, s | s, Complete -> s
  | Bounded m, Bounded n -> Bounded (min m n)

let alphabet_size c =
  let module Iset = Set.Make (Int) in
  Iset.cardinal (Iset.of_list (c.alphabet_tr @ c.alphabet_rt))

let pp ppf c =
  Format.fprintf ppf
    "@[<v>%s: |P|=%d (declared %s); k_t=%d k_r=%d => boundness <= %d;@ measured boundness %s \
     over %d configs%s;@ strength %s%s@]"
    c.protocol (alphabet_size c)
    (match c.declared_header_bound with
    | Some k -> string_of_int k
    | None -> "unbounded")
    c.k_t c.k_r c.state_product
    (match c.measured_boundness with
    | Some b -> string_of_int b
    | None -> "unbounded?")
    c.configs_explored
    (if c.truncated then " (truncated)" else "")
    (strength_to_string c.strength)
    (match c.cover with
    | None -> ""
    | Some cv ->
        Printf.sprintf " (cover %s: %d element(s), %d ω, %d acceleration(s))"
          (if cv.cover_converged then "converged" else "diverged")
          cv.cover_size cv.cover_omega_configs cv.cover_accelerations)

let cover_to_json cv =
  Json.Obj
    [
      ("converged", Json.Bool cv.cover_converged);
      ("size", Json.Int cv.cover_size);
      ("iterations", Json.Int cv.cover_iterations);
      ("accelerations", Json.Int cv.cover_accelerations);
      ("omega_configs", Json.Int cv.cover_omega_configs);
      ("accel_samples", Json.List (List.map (fun s -> Json.String s) cv.accel_samples));
    ]

let to_json c =
  Json.Obj
    [
      ("protocol", Json.String c.protocol);
      ("declared_header_bound", Json.opt (fun k -> Json.Int k) c.declared_header_bound);
      ("alphabet_tr", Json.List (List.map (fun p -> Json.Int p) c.alphabet_tr));
      ("alphabet_rt", Json.List (List.map (fun p -> Json.Int p) c.alphabet_rt));
      ("alphabet_size", Json.Int (alphabet_size c));
      ("k_t", Json.Int c.k_t);
      ("k_r", Json.Int c.k_r);
      ("state_product", Json.Int c.state_product);
      ("measured_boundness", Json.opt (fun b -> Json.Int b) c.measured_boundness);
      ("probes_exhausted", Json.Int c.probes_exhausted);
      ("configs_explored", Json.Int c.configs_explored);
      ("truncated", Json.Bool c.truncated);
      (* Every record carries its strength: "static" (spec-level proof,
         zero exploration), "complete" (cover fixpoint corroborated) or
         "bounded" with the node budget the verdicts are relative to. *)
      ( "strength",
        Json.String
          (match c.strength with
          | Static -> "static"
          | Complete -> "complete"
          | Bounded _ -> "bounded") );
      ( "budget",
        match c.strength with Static | Complete -> Json.Null | Bounded n -> Json.Int n );
      ( "rule_strengths",
        Json.Obj
          (List.map
             (fun (rule, s) ->
               ( rule,
                 Json.String
                   (match s with
                   | Static -> "static"
                   | Complete -> "complete"
                   | Bounded _ -> "bounded") ))
             c.rule_strengths) );
      ("cover", Json.opt cover_to_json c.cover);
      ("refine_rounds", Json.opt (fun n -> Json.Int n) c.refine_rounds);
      ("stabilization", Json.opt (fun s -> Json.String s) c.stabilization);
    ]
