(* Edge-case and guard tests across the libraries: constructor validation,
   empty inputs, boundary conditions — the robustness a downstream user
   relies on. *)

open Wm_watermark
open Wm_workload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let _ = (int, bool)

let raises f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let test_schema_guards () =
  check bool "duplicate symbol" true
    (raises (fun () -> Schema.make [ { Schema.name = "E"; arity = 2 };
                                     { Schema.name = "E"; arity = 1 } ]));
  check bool "zero arity" true
    (raises (fun () -> Schema.make [ { Schema.name = "E"; arity = 0 } ]));
  check bool "zero weight arity" true
    (raises (fun () -> Schema.make ~weight_arity:0 []))

let test_weighted_guards () =
  check bool "arity mismatch on set" true
    (raises (fun () -> Weighted.set (Weighted.create 1) (Tuple.pair 0 1) 5));
  check bool "weight arity vs schema" true
    (raises (fun () ->
         Weighted.make (Structure.create Schema.graph 2) (Weighted.create 2)));
  check bool "weight outside universe" true
    (raises (fun () ->
         Weighted.make
           (Structure.create Schema.graph 2)
           (Weighted.set_elt (Weighted.create 1) 7 1)))

let test_gaifman_singletons () =
  (* Unary tuples create no Gaifman edges. *)
  let schema = Schema.make [ { Schema.name = "P"; arity = 1 } ] in
  let g =
    Structure.add_tuple (Structure.create schema 3) "P" (Tuple.singleton 1)
  in
  let gf = Gaifman.of_structure g in
  check int "no edges" 0 (Gaifman.max_degree gf);
  check int "three components" 3 (List.length (Gaifman.connected_components gf))

let test_empty_structure () =
  let g = Structure.create Schema.graph 0 in
  check int "empty universe" 0 (List.length (Structure.universe g));
  let gf = Gaifman.of_structure g in
  check int "no degree" 0 (Gaifman.max_degree gf)

let test_query_empty_results () =
  (* A query that never holds: empty result sets and empty active set. *)
  let g = Structure.create Schema.graph 3 in
  let q = Paper_examples.figure1_query in
  check int "no active" 0
    (Tuple.Set.cardinal (Query.active g q));
  check int "f = 0" 0
    (Query.f (Weighted.weigh (fun _ -> 5) g) q (Tuple.singleton 0))

let test_capacity_guard () =
  (* More than 26 active elements must be rejected by the brute-force
     counter. *)
  let ws = Random_struct.regular_rings (Wm_util.Prng.create 1) ~n:40 in
  let qs =
    Query_system.of_relational ws.Weighted.graph Paper_examples.figure1_query
  in
  check bool "too many actives" true
    (raises (fun () -> Capacity.count qs (Capacity.Max_le 1)))

let test_capacity_empty_deltas () =
  let qs =
    Query_system.of_custom ~params:[ Tuple.singleton 0 ]
      ~result_set:(fun _ -> Tuple.Set.singleton (Tuple.singleton 1))
      ~weight_arity:1
  in
  check bool "empty deltas" true
    (raises (fun () -> Capacity.count ~deltas:[] qs (Capacity.Max_le 1)))

let test_robust_guards () =
  check bool "redundancy needs positive length" true
    (raises (fun () ->
         Robust.redundancy_for
           { Robust.capacity = 10;
             embed = (fun _ w -> w);
             extract = (fun ~original ~server:_ -> Wm_util.Bitvec.create 10 |> fun v -> ignore original; v) }
           ~message_length:0))

let test_detector_guards () =
  check bool "length exceeds pairs" true
    (raises (fun () ->
         Detector.read [] ~original:(Weighted.create 1)
           ~observed:Tuple.Map.empty ~length:1))

let test_orientation_guard () =
  check bool "message longer than pairs" true
    (raises (fun () ->
         Pairing.orientation_marks [] (Wm_util.Codec.of_bool_list [ true ])))

let test_tree_scheme_empty_active () =
  (* An automaton that accepts nothing: no active elements, prepare must
     fail gracefully. *)
  let phi = Wm_logic.Parser.mso_of_string "S1(x,y) & S2(x,y)" in
  let compiled =
    Wm_trees.Mso_compile.compile ~base:[| "a"; "b" |] ~free:[ "x"; "y" ] phi
  in
  let q = Wm_trees.Tree_query.of_compiled compiled ~params:[ "x" ] ~results:[ "y" ] in
  let tree = Trees_gen.random_tree (Wm_util.Prng.create 1) ~alphabet:[ "a"; "b" ] ~size:20 in
  match Tree_scheme.prepare tree q with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty active set accepted"

let test_block_size_raises_capacity () =
  (* Smaller blocks, more pairs — the soundness-free tuning knob. *)
  let phi = Wm_logic.Parser.mso_of_string "S1(x,y) | S2(x,y)" in
  let compiled =
    Wm_trees.Mso_compile.compile ~base:[| "a"; "b" |] ~free:[ "x"; "y" ] phi
  in
  let q = Wm_trees.Tree_query.of_compiled compiled ~params:[ "x" ] ~results:[ "y" ] in
  let tree = Trees_gen.random_tree (Wm_util.Prng.create 5) ~alphabet:[ "a"; "b" ] ~size:200 in
  let cap_with block_size =
    match
      Tree_scheme.prepare
        ~options:{ Tree_scheme.default_options with block_size } tree q
    with
    | Ok s -> Tree_scheme.capacity s
    | Error _ -> 0
  in
  check bool "smaller blocks give at least as many pairs" true
    (cap_with (Some 4) >= cap_with None)

let test_tree_scheme_block_guard () =
  (* A block size below 2 is an error, not silently raised to 2. *)
  let phi = Wm_logic.Parser.mso_of_string "S1(x,y) | S2(x,y)" in
  let compiled =
    Wm_trees.Mso_compile.compile ~base:[| "a"; "b" |] ~free:[ "x"; "y" ] phi
  in
  let q = Wm_trees.Tree_query.of_compiled compiled ~params:[ "x" ] ~results:[ "y" ] in
  let tree = Trees_gen.random_tree (Wm_util.Prng.create 5) ~alphabet:[ "a"; "b" ] ~size:60 in
  let prepare b =
    Tree_scheme.prepare
      ~options:{ Tree_scheme.default_options with block_size = Some b } tree q
  in
  List.iter
    (fun b ->
      check bool (Printf.sprintf "block size %d rejected" b) true
        (Result.is_error (prepare b)))
    [ 1; 0; -4 ];
  check bool "block size 2 accepted" true (Result.is_ok (prepare 2))

let test_texttab_guard () =
  let t = Wm_util.Texttab.create [ "a"; "b" ] in
  check bool "too many cells" true
    (raises (fun () -> Wm_util.Texttab.add_row t [ "1"; "2"; "3" ]))

let test_prng_zero_bound () =
  check bool "int 0 rejected" true
    (match Wm_util.Prng.int (Wm_util.Prng.create 1) 0 with
    | exception Assert_failure _ -> true
    | _ -> false)

let test_shatter_guards () =
  check bool "full too big" true (raises (fun () -> Shatter.full 20));
  check bool "half odd" true (raises (fun () -> Shatter.half 7))

let test_cw_guards () =
  check bool "clique 0" true (raises (fun () -> Wm_cliquewidth.Cw_term.clique 0));
  check bool "random 1 label" true
    (raises (fun () ->
         Wm_cliquewidth.Cw_term.random (Wm_util.Prng.create 1) ~labels:1 ~vertices:3));
  check bool "parse label range" true
    (raises (fun () ->
         Wm_cliquewidth.Cw_parse.to_tree ~labels:2 (Wm_cliquewidth.Cw_term.Vertex 5)));
  check bool "distance2 labels > 2" true
    (raises (fun () -> Wm_cliquewidth.Cw_adjacency.distance2_query ~labels:3))

(* Textio.save writes <path>.tmp beside the target and renames it over
   the target: when the temp file cannot be written, save fails and the
   old file survives byte for byte. *)
let test_textio_save_atomic () =
  let path = Filename.temp_file "qpwm_save" ".txt" in
  let tmp = path ^ ".tmp" in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists tmp then Sys.rmdir tmp;
      Sys.remove path)
  @@ fun () ->
  Textio.save path Paper_examples.figure1;
  let before = read () in
  check Alcotest.string "saved" (Textio.to_string Paper_examples.figure1)
    before;
  check bool "no temp file left" false (Sys.file_exists tmp);
  Sys.mkdir tmp 0o755;
  let other =
    Random_struct.regular_rings (Wm_util.Prng.create 2) ~n:30
  in
  check bool "save raises Sys_error" true
    (match Textio.save path other with
    | () -> false
    | exception Sys_error _ -> true);
  check Alcotest.string "old file untouched" before (read ())

let suite =
  [
    ("schema guards", `Quick, test_schema_guards);
    ("weighted guards", `Quick, test_weighted_guards);
    ("gaifman unary relations", `Quick, test_gaifman_singletons);
    ("empty structure", `Quick, test_empty_structure);
    ("query with empty results", `Quick, test_query_empty_results);
    ("capacity active-set guard", `Quick, test_capacity_guard);
    ("capacity empty deltas", `Quick, test_capacity_empty_deltas);
    ("robust guards", `Quick, test_robust_guards);
    ("detector guards", `Quick, test_detector_guards);
    ("orientation guard", `Quick, test_orientation_guard);
    ("tree scheme empty active", `Quick, test_tree_scheme_empty_active);
    ("block size raises capacity", `Slow, test_block_size_raises_capacity);
    ("texttab guard", `Quick, test_texttab_guard);
    ("prng zero bound", `Quick, test_prng_zero_bound);
    ("shatter guards", `Quick, test_shatter_guards);
    ("clique-width guards", `Quick, test_cw_guards);
    ("textio save is atomic", `Quick, test_textio_save_atomic);
    ("tree scheme block size guard", `Quick, test_tree_scheme_block_guard);
  ]
