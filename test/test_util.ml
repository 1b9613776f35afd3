(* Tests for Nfc_util: Rng, Multiset, Deque, Table, Fit. *)
open Nfc_util

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ Rng *)

let test_rng_deterministic () =
  let a = Rng.of_int 42 and b = Rng.of_int 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_copy_independent () =
  let a = Rng.of_int 7 in
  let _ = Rng.next_int64 a in
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.next_int64 a) (Rng.next_int64 b)

let test_rng_split_differs () =
  let a = Rng.of_int 7 in
  let b = Rng.split a in
  checkb "split stream differs" false (Rng.next_int64 a = Rng.next_int64 b)

let test_rng_int_bounds () =
  let r = Rng.of_int 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    checkb "0 <= v < 7" true (v >= 0 && v < 7)
  done

let test_rng_int_rejects_nonpositive () =
  let r = Rng.of_int 3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.of_int 5 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    checkb "0 <= v < 2.5" true (v >= 0.0 && v < 2.5)
  done

let test_rng_uniformity () =
  (* Coarse chi-square-free sanity: each of 8 buckets gets 10-40% of mass. *)
  let r = Rng.of_int 11 in
  let counts = Array.make 8 0 in
  let n = 8000 in
  for _ = 1 to n do
    let v = Rng.int r 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter (fun c -> checkb "bucket roughly uniform" true (c > n / 16 && c < n / 4)) counts

let test_rng_bool_extremes () =
  let r = Rng.of_int 13 in
  checkb "p=0 is false" false (Rng.bool r 0.0);
  checkb "p=1 is true" true (Rng.bool r 1.0)

let test_rng_bool_rate () =
  let r = Rng.of_int 17 in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.bool r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  checkb "bernoulli rate near 0.3" true (rate > 0.25 && rate < 0.35)

let test_rng_pick () =
  let r = Rng.of_int 23 in
  checkb "pick [] = None" true (Rng.pick r [] = None);
  for _ = 1 to 50 do
    match Rng.pick r [ 1; 2; 3 ] with
    | Some v -> checkb "picked member" true (List.mem v [ 1; 2; 3 ])
    | None -> Alcotest.fail "pick of non-empty returned None"
  done

let test_rng_pick_weighted () =
  let r = Rng.of_int 29 in
  checkb "no positive weight" true (Rng.pick_weighted r [ (0.0, `A); (-1.0, `B) ] = None);
  let a = ref 0 in
  for _ = 1 to 1000 do
    match Rng.pick_weighted r [ (9.0, `A); (1.0, `B) ] with
    | Some `A -> incr a
    | Some `B -> ()
    | None -> Alcotest.fail "weighted pick failed"
  done;
  checkb "A dominates 9:1" true (!a > 800)

let test_rng_shuffle_permutes () =
  let r = Rng.of_int 31 in
  let a = Array.init 20 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same elements" (Array.init 20 Fun.id) sorted

(* ------------------------------------------------------------- Multiset *)

module MS = Multiset.Int

let test_ms_empty () =
  checkb "empty" true (MS.is_empty MS.empty);
  checki "cardinal 0" 0 (MS.cardinal MS.empty);
  checki "distinct 0" 0 (MS.distinct MS.empty)

let test_ms_add_count () =
  let m = MS.add ~count:3 5 (MS.add 2 MS.empty) in
  checki "count 5" 3 (MS.count 5 m);
  checki "count 2" 1 (MS.count 2 m);
  checki "count absent" 0 (MS.count 9 m);
  checki "cardinal" 4 (MS.cardinal m);
  checki "distinct" 2 (MS.distinct m)

let test_ms_add_zero_noop () =
  let m = MS.add ~count:0 5 MS.empty in
  checkb "still empty" true (MS.is_empty m)

let test_ms_add_negative_rejected () =
  Alcotest.check_raises "negative count" (Invalid_argument "Multiset.add: negative count")
    (fun () -> ignore (MS.add ~count:(-1) 5 MS.empty))

let test_ms_remove_one () =
  let m = MS.add ~count:2 1 MS.empty in
  (match MS.remove_one 1 m with
  | Some m' -> checki "one left" 1 (MS.count 1 m')
  | None -> Alcotest.fail "remove_one failed");
  checkb "remove absent" true (MS.remove_one 9 m = None)

let test_ms_remove_last_copy_drops_key () =
  let m = MS.add 1 MS.empty in
  match MS.remove_one 1 m with
  | Some m' ->
      checkb "empty again" true (MS.is_empty m');
      checki "distinct 0" 0 (MS.distinct m')
  | None -> Alcotest.fail "remove_one failed"

let test_ms_union_diff () =
  let a = MS.of_list [ 1; 1; 2 ] and b = MS.of_list [ 1; 3 ] in
  let u = MS.union a b in
  checki "union count 1" 3 (MS.count 1 u);
  checki "union card" 5 (MS.cardinal u);
  let d = MS.diff u b in
  checkb "diff returns a" true (MS.equal d a);
  let d2 = MS.diff a (MS.of_list [ 1; 1; 1; 2; 9 ]) in
  checkb "diff floors at zero" true (MS.is_empty d2)

let test_ms_subset () =
  let a = MS.of_list [ 1; 2 ] and b = MS.of_list [ 1; 1; 2; 3 ] in
  checkb "a <= b" true (MS.subset a b);
  checkb "b <= a false" false (MS.subset b a);
  checkb "empty <= a" true (MS.subset MS.empty a)

let test_ms_to_list_sorted () =
  let m = MS.of_list [ 3; 1; 2; 1 ] in
  check Alcotest.(list int) "sorted with copies" [ 1; 1; 2; 3 ] (MS.to_list m);
  check Alcotest.(list int) "support" [ 1; 2; 3 ] (MS.support m)

let test_ms_max_multiplicity () =
  let m = MS.of_list [ 1; 2; 2; 2; 3 ] in
  checkb "max mult" true (MS.max_multiplicity m = Some (2, 3));
  checkb "empty none" true (MS.max_multiplicity MS.empty = None)

let test_ms_nth () =
  let m = MS.of_list [ 5; 3; 5 ] in
  checki "nth 0" 3 (MS.nth m 0);
  checki "nth 1" 5 (MS.nth m 1);
  checki "nth 2" 5 (MS.nth m 2);
  Alcotest.check_raises "out of bounds" (Invalid_argument "Multiset.nth: out of bounds")
    (fun () -> ignore (MS.nth m 3))

(* qcheck properties *)

let ms_of_small_list = QCheck.(small_list (int_bound 10))

let prop_ms_cardinal_is_length =
  QCheck.Test.make ~name:"multiset cardinal = list length" ms_of_small_list (fun l ->
      MS.cardinal (MS.of_list l) = List.length l)

let prop_ms_roundtrip =
  QCheck.Test.make ~name:"multiset of_list/to_list is sorting" ms_of_small_list (fun l ->
      MS.to_list (MS.of_list l) = List.sort compare l)

let prop_ms_union_commutative =
  QCheck.Test.make ~name:"multiset union commutes"
    QCheck.(pair ms_of_small_list ms_of_small_list)
    (fun (a, b) -> MS.equal (MS.union (MS.of_list a) (MS.of_list b))
        (MS.union (MS.of_list b) (MS.of_list a)))

let prop_ms_diff_union_inverse =
  QCheck.Test.make ~name:"(a u b) \\ b = a"
    QCheck.(pair ms_of_small_list ms_of_small_list)
    (fun (a, b) ->
      let ma = MS.of_list a and mb = MS.of_list b in
      MS.equal (MS.diff (MS.union ma mb) mb) ma)

(* ---------------------------------------------------------------- Deque *)

let test_deque_fifo () =
  let d = Deque.(push_back 3 (push_back 2 (push_back 1 empty))) in
  check Alcotest.(list int) "order" [ 1; 2; 3 ] (Deque.to_list d);
  match Deque.pop_front d with
  | Some (1, d') -> checki "rest length" 2 (Deque.length d')
  | _ -> Alcotest.fail "pop_front"

let test_deque_lifo_back () =
  let d = Deque.of_list [ 1; 2; 3 ] in
  match Deque.pop_back d with
  | Some (3, d') -> check Alcotest.(list int) "rest" [ 1; 2 ] (Deque.to_list d')
  | _ -> Alcotest.fail "pop_back"

let test_deque_push_front () =
  let d = Deque.push_front 0 (Deque.of_list [ 1; 2 ]) in
  check Alcotest.(list int) "front push" [ 0; 1; 2 ] (Deque.to_list d)

let test_deque_peeks () =
  let d = Deque.of_list [ 1; 2; 3 ] in
  checkb "peek front" true (Deque.peek_front d = Some 1);
  checkb "peek back" true (Deque.peek_back d = Some 3);
  checkb "peek empty" true (Deque.peek_front Deque.empty = None)

let test_deque_remove_first () =
  let d = Deque.of_list [ 1; 2; 3; 2 ] in
  match Deque.remove_first (fun x -> x = 2) d with
  | Some (2, d') -> check Alcotest.(list int) "first 2 removed" [ 1; 3; 2 ] (Deque.to_list d')
  | _ -> Alcotest.fail "remove_first"

let test_deque_filter_fold () =
  let d = Deque.of_list [ 1; 2; 3; 4 ] in
  check Alcotest.(list int) "filter evens" [ 2; 4 ] (Deque.to_list (Deque.filter (fun x -> x mod 2 = 0) d));
  checki "fold sum" 10 (Deque.fold ( + ) 0 d);
  checkb "exists" true (Deque.exists (fun x -> x = 3) d)

(* The hash reads every element and is blind to the front/back split:
   [Hashtbl.hash] on the list form stops at 10 meaningful words, so
   runs of one element past that length all shared its value. *)
let test_deque_hash () =
  let runs = List.init 8 (fun i -> Deque.of_list (List.init (9 + i) (fun _ -> 5))) in
  let hs = List.map Deque.hash runs in
  checki "lengths 9-16 hash pairwise distinct" 8 (List.length (List.sort_uniq compare hs));
  let split = Deque.push_front 1 (Deque.push_back 3 (Deque.push_back 2 Deque.empty)) in
  checki "same sequence, other split" (Deque.hash (Deque.of_list [ 1; 2; 3 ])) (Deque.hash split);
  checkb "order matters" true
    (Deque.hash (Deque.of_list [ 1; 2 ]) <> Deque.hash (Deque.of_list [ 2; 1 ]))

let prop_deque_mixed_ops =
  (* A deque fed by pushes at both ends agrees with a reference list. *)
  QCheck.Test.make ~name:"deque matches reference list"
    QCheck.(small_list (pair bool (int_bound 100)))
    (fun ops ->
      let d, l =
        List.fold_left
          (fun (d, l) (front, x) ->
            if front then (Deque.push_front x d, x :: l)
            else (Deque.push_back x d, l @ [ x ]))
          (Deque.empty, []) ops
      in
      Deque.to_list d = l && Deque.length d = List.length l)

(* ---------------------------------------------------------------- Table *)

let test_table_render () =
  let t = Table.create ~title:"T" ~columns:[ ("a", Table.Left); ("bb", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "long"; "22" ];
  let s = Table.render t in
  checkb "has title" true (String.length s > 0 && String.sub s 0 1 = "T");
  checkb "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "| long | 22 |"))

let test_table_row_mismatch () =
  let t = Table.create ~title:"" ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Table.add_row: cell count mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_table_csv () =
  let t = Table.create ~title:"t" ~columns:[ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "x,y"; "2" ];
  check Alcotest.string "csv escaped" "a,b\n\"x,y\",2" (Table.to_csv t)

let test_table_cells () =
  check Alcotest.string "int" "42" (Table.cell_int 42);
  check Alcotest.string "float" "3.14" (Table.cell_float ~decimals:2 3.14159);
  check Alcotest.string "sci" "1.23e+09" (Table.cell_sci 1.234e9)

(* ------------------------------------------------------------------ Fit *)

let test_fit_linear_exact () =
  let f = Fit.linear [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  check Alcotest.(float 1e-9) "slope" 2.0 f.slope;
  check Alcotest.(float 1e-9) "intercept" 1.0 f.intercept;
  check Alcotest.(float 1e-9) "r2" 1.0 f.r2

let test_fit_linear_rejects_degenerate () =
  Alcotest.check_raises "one point" (Invalid_argument "Fit.linear: need at least two points")
    (fun () -> ignore (Fit.linear [ (1.0, 1.0) ]));
  Alcotest.check_raises "same x" (Invalid_argument "Fit.linear: all x equal") (fun () ->
      ignore (Fit.linear [ (1.0, 1.0); (1.0, 2.0) ]))

let test_fit_exponential_exact () =
  let points = List.init 6 (fun i -> (float_of_int i, 3.0 *. (2.0 ** float_of_int i))) in
  let g = Fit.exponential points in
  check Alcotest.(float 1e-6) "rate" 2.0 g.rate;
  check Alcotest.(float 1e-6) "scale" 3.0 g.scale;
  check Alcotest.(float 1e-6) "r2" 1.0 g.log_r2

let test_fit_exponential_drops_nonpositive () =
  let g = Fit.exponential [ (0.0, 1.0); (1.0, 2.0); (2.0, 0.0); (3.0, 8.0) ] in
  check Alcotest.(float 1e-6) "rate ignoring zero point" 2.0 g.rate

let test_fit_means () =
  check Alcotest.(float 1e-9) "mean" 2.0 (Fit.mean [ 1.0; 2.0; 3.0 ]);
  check Alcotest.(float 1e-9) "geometric mean" 2.0 (Fit.geometric_mean [ 1.0; 4.0 ])

(* ----------------------------------------------------------------- Pool *)

let test_pool_map_reraises () =
  Alcotest.check_raises "original exception surfaces" (Failure "boom") (fun () ->
      ignore (Pool.map ~jobs:2 (fun x -> if x = 3 then failwith "boom" else x) [ 1; 2; 3; 4 ]))

let test_pool_map_first_in_input_order () =
  (* Two failing jobs: the caller sees the one that comes first in input
     order, regardless of which worker hit its failure first. *)
  Alcotest.check_raises "earliest input-order failure" (Failure "first") (fun () ->
      ignore
        (Pool.map ~jobs:2
           (fun x ->
             if x = 1 then failwith "first" else if x = 4 then failwith "second" else x)
           [ 1; 2; 3; 4 ]))

let test_pool_map_keeps_backtrace () =
  (* The re-raise must carry the worker's backtrace, not an empty one:
     the raise site inside the job must be visible to the caller. *)
  Printexc.record_backtrace true;
  let saw = ref "" in
  (try ignore (Pool.map ~jobs:2 (fun _ -> failwith "traced") [ 1; 2 ])
   with Failure _ -> saw := Printexc.get_backtrace ());
  checkb "backtrace is non-empty" true (String.length !saw > 0)

let test_pool_group_reraises () =
  Alcotest.check_raises "group failure surfaces at join" (Failure "worker boom")
    (fun () ->
      let g =
        Pool.spawn_group ~jobs:2 (fun i -> if i = 0 then failwith "worker boom")
      in
      Pool.join_group g)

let test_pool_group_joins_all () =
  let hits = Atomic.make 0 in
  let g = Pool.spawn_group ~jobs:3 (fun _ -> Atomic.incr hits) in
  Pool.join_group g;
  checki "every worker body ran" 3 (Atomic.get hits)

(* ----------------------------------------------------------------- Json *)

let checkstr = Alcotest.(check string)

let test_json_escapes_control_chars () =
  checkstr "short and long escapes"
    {|"a\nb\tc\u0001\b\f\\\" end"|}
    (Json.to_string (Json.String "a\nb\tc\x01\b\012\\\" end"))

let test_json_nonfinite_floats_are_null () =
  checkstr "nan" "null" (Json.to_string (Json.Float Float.nan));
  checkstr "inf" "null" (Json.to_string (Json.Float Float.infinity))

let test_json_parse_unicode_escapes () =
  match Json.of_string {|"A😀"|} with
  | Ok (Json.String s) -> checkstr "BMP + surrogate pair to UTF-8" "A\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.fail e

let test_json_parse_rejects_garbage () =
  checkb "trailing garbage" true (Result.is_error (Json.of_string "{} x"));
  checkb "unterminated" true (Result.is_error (Json.of_string {|{"a": 1|}));
  checkb "deep nesting" true
    (Result.is_error (Json.of_string (String.make 600 '[')))

let test_json_accessors () =
  let j = Result.get_ok (Json.of_string {|{"n": 3, "s": "hi", "b": true}|}) in
  checki "present int" 3 (Result.get_ok (Json.get_int "n" j));
  checki "absent int takes default" 7 (Result.get_ok (Json.get_int ~default:7 "m" j));
  checkb "wrong type is an error, default or not" true
    (Result.is_error (Json.get_int ~default:7 "s" j));
  checkstr "string" "hi" (Result.get_ok (Json.get_string "s" j));
  checkb "bool" true (Result.get_ok (Json.get_bool "b" j));
  checkb "missing without default is an error" true
    (Result.is_error (Json.get_string "zzz" j))

let test_json_roundtrip_handcrafted () =
  let t =
    Json.Obj
      [
        ("null", Json.Null);
        ("ints", Json.List [ Json.Int 0; Json.Int (-42); Json.Int max_int ]);
        ("floats", Json.List [ Json.Float 1.0; Json.Float 3.14159; Json.Float (-0.5) ]);
        ("ctl", Json.String "line\nfeed\x00\x1fbyte\xffhigh");
        ("nested", Json.Obj [ ("k", Json.List [ Json.Bool false; Json.String "" ]) ]);
      ]
  in
  checkb "of_string (to_string t) = Ok t" true (Json.of_string (Json.to_string t) = Ok t)

(* Arbitrary finite-float, Raw-free trees: the decoder must invert the
   encoder on all of them. *)
let json_arb =
  let open QCheck.Gen in
  let any_string = string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 12) in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) (float_range (-1e9) 1e9);
        map (fun s -> Json.String s) any_string;
      ]
  in
  let tree =
    sized
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2))));
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_bound 4) (pair any_string (self (n / 2)))) );
               ])
  in
  QCheck.make ~print:Json.to_string tree

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json encode/decode round-trips" json_arb (fun t ->
      Json.of_string (Json.to_string t) = Ok t)

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_ms_cardinal_is_length; prop_ms_roundtrip; prop_ms_union_commutative;
      prop_ms_diff_union_inverse; prop_deque_mixed_ops; prop_json_roundtrip ]

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng copy independent", `Quick, test_rng_copy_independent);
    ("rng split differs", `Quick, test_rng_split_differs);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng int rejects nonpositive", `Quick, test_rng_int_rejects_nonpositive);
    ("rng float bounds", `Quick, test_rng_float_bounds);
    ("rng uniformity", `Quick, test_rng_uniformity);
    ("rng bool extremes", `Quick, test_rng_bool_extremes);
    ("rng bool rate", `Quick, test_rng_bool_rate);
    ("rng pick", `Quick, test_rng_pick);
    ("rng pick weighted", `Quick, test_rng_pick_weighted);
    ("rng shuffle permutes", `Quick, test_rng_shuffle_permutes);
    ("multiset empty", `Quick, test_ms_empty);
    ("multiset add with count", `Quick, test_ms_add_count);
    ("multiset add zero noop", `Quick, test_ms_add_zero_noop);
    ("multiset add negative rejected", `Quick, test_ms_add_negative_rejected);
    ("multiset remove one", `Quick, test_ms_remove_one);
    ("multiset remove last copy", `Quick, test_ms_remove_last_copy_drops_key);
    ("multiset union diff", `Quick, test_ms_union_diff);
    ("multiset subset", `Quick, test_ms_subset);
    ("multiset to_list sorted", `Quick, test_ms_to_list_sorted);
    ("multiset max multiplicity", `Quick, test_ms_max_multiplicity);
    ("multiset nth", `Quick, test_ms_nth);
    ("deque fifo", `Quick, test_deque_fifo);
    ("deque pop back", `Quick, test_deque_lifo_back);
    ("deque push front", `Quick, test_deque_push_front);
    ("deque peeks", `Quick, test_deque_peeks);
    ("deque remove first", `Quick, test_deque_remove_first);
    ("deque filter fold", `Quick, test_deque_filter_fold);
    ("deque hash reads every element", `Quick, test_deque_hash);
    ("table render", `Quick, test_table_render);
    ("table row mismatch", `Quick, test_table_row_mismatch);
    ("table csv", `Quick, test_table_csv);
    ("table cells", `Quick, test_table_cells);
    ("fit linear exact", `Quick, test_fit_linear_exact);
    ("fit linear degenerate", `Quick, test_fit_linear_rejects_degenerate);
    ("fit exponential exact", `Quick, test_fit_exponential_exact);
    ("fit exponential drops nonpositive", `Quick, test_fit_exponential_drops_nonpositive);
    ("fit means", `Quick, test_fit_means);
    ("pool map re-raises", `Quick, test_pool_map_reraises);
    ("pool map earliest failure wins", `Quick, test_pool_map_first_in_input_order);
    ("pool map keeps worker backtrace", `Quick, test_pool_map_keeps_backtrace);
    ("pool group re-raises at join", `Quick, test_pool_group_reraises);
    ("pool group joins all workers", `Quick, test_pool_group_joins_all);
    ("json escapes control chars", `Quick, test_json_escapes_control_chars);
    ("json non-finite floats null", `Quick, test_json_nonfinite_floats_are_null);
    ("json unicode escapes decode", `Quick, test_json_parse_unicode_escapes);
    ("json parser rejects garbage", `Quick, test_json_parse_rejects_garbage);
    ("json accessors", `Quick, test_json_accessors);
    ("json round-trip handcrafted", `Quick, test_json_roundtrip_handcrafted);
  ]
  @ qsuite
