(* Seeded input generator for the PDL workloads.

   Each template is one of the example specs (copied under specs/, so
   the benchmark's inputs stay fixed when the examples evolve).  A slot
   names an integer literal by the text in front of it and the range it
   may take; every value in that range keeps the spec compiling.  A
   variant rewrites the literals of every slot of one template; the
   program only ever sees the resulting text. *)

type slot = { before : string; lo : int; hi : int }
type template = { cls : string; slots : slot list }

let templates =
  [
    { cls = "alternating_bit"; slots = [ { before = "const timeout = "; lo = 2; hi = 6 } ] };
    {
      cls = "bounded_counter";
      slots =
        [
          { before = "when pending < "; lo = 2; hi = 5 };
          { before = "when deliver_due < "; lo = 1; hi = 3 };
          { before = "&& ack_due < "; lo = 1; hi = 3 };
        ];
    };
    {
      cls = "flooding_counter";
      slots =
        [
          { before = "when credit < "; lo = 30; hi = 50 };
          { before = "when deliver_due < "; lo = 1; hi = 3 };
          { before = "&& ack_due < "; lo = 1; hi = 3 };
        ];
    };
    { cls = "pumped_counter"; slots = [ { before = "when pending < "; lo = 4; hi = 12 } ] };
    { cls = "stop_and_wait"; slots = [ { before = "const timeout = "; lo = 2; hi = 6 } ] };
  ]

type variant = {
  cls : string;
  base : bool;  (** the unmodified example (its verdicts are pinned) *)
  text : string;
}

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

(* The literal after [before], as (start, length, value). *)
let literal text before =
  match find_sub text before with
  | None -> failwith ("corpus: template lost its slot " ^ before)
  | Some i ->
      let start = i + String.length before in
      let stop = ref start in
      while !stop < String.length text && text.[!stop] >= '0' && text.[!stop] <= '9' do
        incr stop
      done;
      (start, !stop - start, int_of_string (String.sub text start (!stop - start)))

let rewrite text slots values =
  List.fold_left2
    (fun text slot v ->
      let start, len, _ = literal text slot.before in
      String.sub text 0 start ^ string_of_int v
      ^ String.sub text (start + len) (String.length text - start - len))
    text slots values

let rec product = function
  | [] -> [ [] ]
  | s :: rest ->
      let tails = product rest in
      List.concat_map (fun v -> List.map (fun t -> v :: t) tails) (List.init (s.hi - s.lo + 1) (( + ) s.lo))

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Up to [per_template] variants of every template: the unmodified
   example first, then distinct rewrites in seeded order. *)
let generate ~dir ~seed ~per_template =
  let st = Random.State.make [| seed; 0x6e6663 |] in
  List.concat_map
    (fun (t : template) ->
      let text = read_file (Filename.concat dir (t.cls ^ ".nfc")) in
      let defaults = List.map (fun s -> let _, _, v = literal text s.before in v) t.slots in
      let others = Array.of_list (List.filter (( <> ) defaults) (product t.slots)) in
      shuffle st others;
      let n = min (per_template - 1) (Array.length others) in
      { cls = t.cls; base = true; text }
      :: List.init n (fun i -> { cls = t.cls; base = false; text = rewrite text t.slots others.(i) }))
    templates

let digest vs = Digest.to_hex (Digest.string (String.concat "\x00" (List.map (fun v -> v.text) vs)))
