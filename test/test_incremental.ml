(* The incremental-reindex contract: for ANY structure, ANY edit script and
   ANY job count, Neighborhood.reindex over the dirty set the edits report
   is bit-identical — type ids, representatives, ntp — to a from-scratch
   index_universe of the edited structure.  CI runs this suite under the
   default jobs and again with WMARK_JOBS=2, which covers the parallel
   phases of both paths. *)

open Wm_util

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let equal_index (a : Neighborhood.index) (b : Neighborhood.index) =
  a.rho = b.rho && a.arity = b.arity
  && Tuple.Map.equal Int.equal a.types b.types
  && a.representatives = b.representatives

(* --- random structures and edit scripts ------------------------------ *)

let random_graph g =
  let n = 4 + Prng.int g 10 in
  let edges = 1 + Prng.int g (2 * n) in
  (Wm_workload.Random_struct.graph g ~n ~max_degree:4 ~edges).Weighted.graph

(* Generates a well-formed script by replaying each step on a shadow copy,
   so tuple inserts stay in range and removals hit the last element. *)
let random_script g base steps =
  let cur = ref base in
  let script = ref [] in
  for _ = 1 to steps do
    let size = Structure.size !cur in
    let edit =
      match Prng.int g 5 with
      | 0 | 1 ->
          Structure.Insert_tuple
            ("E", Tuple.pair (Prng.int g size) (Prng.int g size))
      | 2 -> (
          match Relation.to_list (Structure.relation !cur "E") with
          | [] ->
              Structure.Insert_tuple
                ("E", Tuple.pair (Prng.int g size) (Prng.int g size))
          | ts -> Structure.Delete_tuple ("E", List.nth ts (Prng.int g (List.length ts))))
      | 3 -> Structure.Add_element None
      | _ ->
          if size > 2 then Structure.Remove_element (size - 1)
          else Structure.Add_element None
    in
    let cur', _ = Structure.apply_edit !cur edit in
    cur := cur';
    script := edit :: !script
  done;
  List.rev !script

let run_case ~threshold seed =
  let g = Prng.create (0x1DC0 + seed) in
  let base = random_graph g in
  let rho = Prng.int g 3 in
  let arity = 1 + Prng.int g 2 in
  let prev = Neighborhood.index_universe base ~rho ~arity in
  let script = random_script g base (1 + Prng.int g 5) in
  let edited, dirty = Structure.apply_edits base script in
  let inc = Neighborhood.reindex ?threshold ~old:base edited ~prev ~dirty in
  let full = Neighborhood.index_universe edited ~rho ~arity in
  equal_index inc full

let prop_reindex_incremental =
  (* threshold 2.0 never falls back: this exercises the anchor-and-splice
     path even when the whole universe is affected *)
  QCheck.Test.make ~count:50
    ~name:"reindex (incremental path) == index_universe"
    QCheck.(int_range 0 100_000)
    (run_case ~threshold:(Some 2.0))

let prop_reindex_default =
  QCheck.Test.make ~count:50
    ~name:"reindex (default threshold) == index_universe"
    QCheck.(int_range 0 100_000)
    (run_case ~threshold:None)

let prop_reindex_jobs1 =
  QCheck.Test.make ~count:25 ~name:"reindex is job-count independent"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x0B5 + seed) in
      let base = random_graph g in
      let rho = 1 and arity = 2 in
      let prev = Neighborhood.index_universe base ~rho ~arity in
      let script = random_script g base 3 in
      let edited, dirty = Structure.apply_edits base script in
      let a =
        Jobs.with_jobs 1 @@ fun () ->
        Neighborhood.reindex ~threshold:2.0 ~old:base edited ~prev ~dirty
      in
      let b =
        Neighborhood.reindex ~threshold:2.0 ~old:base edited ~prev ~dirty
      in
      equal_index a b)

(* --- deterministic corners ------------------------------------------- *)

let pair_struct () =
  let s = Structure.create Schema.graph 6 in
  Structure.add_pairs s "E" [ (0, 1); (1, 2); (3, 4) ]

let test_noop_edits () =
  let g0 = pair_struct () in
  let prev = Neighborhood.index_universe g0 ~rho:1 ~arity:2 in
  let g1, dirty = Structure.apply_edits g0 [] in
  check (Alcotest.list int) "no dirt" [] dirty;
  let inc = Neighborhood.reindex ~old:g0 g1 ~prev ~dirty in
  check bool "identical" true
    (equal_index inc (Neighborhood.index_universe g1 ~rho:1 ~arity:2))

let test_single_edits () =
  let g0 = pair_struct () in
  List.iter
    (fun (label, edit) ->
      let prev = Neighborhood.index_universe g0 ~rho:1 ~arity:2 in
      let g1, dirty = Structure.apply_edit g0 edit in
      let inc = Neighborhood.reindex ~threshold:2.0 ~old:g0 g1 ~prev ~dirty in
      let full = Neighborhood.index_universe g1 ~rho:1 ~arity:2 in
      check bool label true (equal_index inc full))
    [
      ("insert", Structure.Insert_tuple ("E", Tuple.pair 2 3));
      ("delete", Structure.Delete_tuple ("E", Tuple.pair 0 1));
      ("delete absent", Structure.Delete_tuple ("E", Tuple.pair 5 5));
      ("add element", Structure.Add_element None);
      ("add named", Structure.Add_element (Some "fresh"));
      ("remove last", Structure.Remove_element 5);
    ]

let test_remove_isolated () =
  (* The removed element is isolated: the dirty set is empty, yet every
     tuple mentioning it must leave the index. *)
  let g0 = pair_struct () in
  let g1, dirty = Structure.apply_edit g0 (Structure.Remove_element 5) in
  check (Alcotest.list int) "no dirt" [] dirty;
  let prev = Neighborhood.index_universe g0 ~rho:1 ~arity:2 in
  let inc = Neighborhood.reindex ~threshold:2.0 ~old:g0 g1 ~prev ~dirty in
  check bool "identical" true
    (equal_index inc (Neighborhood.index_universe g1 ~rho:1 ~arity:2));
  check int "universe shrank" 25 (Tuple.Map.cardinal inc.Neighborhood.types)

let test_remove_nonlast_rejected () =
  let g0 = pair_struct () in
  Alcotest.check_raises "non-last removal"
    (Invalid_argument
       "Structure.apply_edit: can only remove the last element (2, universe \
        has 6)") (fun () ->
      ignore (Structure.apply_edit g0 (Structure.Remove_element 2)))

let test_gaifman_refresh () =
  let g0 = pair_struct () in
  let gf0 = Gaifman.of_structure g0 in
  let g1, dirty =
    Structure.apply_edits g0
      [
        Structure.Insert_tuple ("E", Tuple.pair 2 3);
        Structure.Delete_tuple ("E", Tuple.pair 0 1);
        Structure.Add_element None;
      ]
  in
  let fresh = Gaifman.of_structure g1 in
  let inc = Gaifman.refresh g1 ~prev:gf0 ~dirty in
  check int "size" (Gaifman.size fresh) (Gaifman.size inc);
  for a = 0 to Gaifman.size fresh - 1 do
    check (Alcotest.list int)
      (Printf.sprintf "row %d" a)
      (Gaifman.neighbors fresh a) (Gaifman.neighbors inc a)
  done

let test_affected_elements () =
  let g0 = pair_struct () in
  let g1, dirty = Structure.apply_edit g0 (Structure.Insert_tuple ("E", Tuple.pair 2 3)) in
  let old_gf = Gaifman.of_structure g0 in
  let gf = Gaifman.of_structure g1 in
  check (Alcotest.list int) "rho=0 is the dirty set" [ 2; 3 ]
    (Neighborhood.affected_elements ~old_gf ~gf ~rho:0 ~dirty);
  (* rho=1: 2's old neighbor 1, 3's old neighbor 4, plus the new edge *)
  check (Alcotest.list int) "rho=1 reaches both sides" [ 1; 2; 3; 4 ]
    (Neighborhood.affected_elements ~old_gf ~gf ~rho:1 ~dirty)

(* --- the wired layers ------------------------------------------------ *)

let edge_query =
  Query.make ~params:[ "u" ] ~results:[ "v" ] (Fo.atom "E" [ "u"; "v" ])

let test_query_refresh_matches_fresh () =
  for seed = 0 to 7 do
    let g = Prng.create (0x9F5 + seed) in
    let base = random_graph g in
    let qs = Wm_watermark.Query_system.of_relational base edge_query in
    (* exercise both the frozen (precomputed) and the cold path *)
    if seed mod 2 = 0 then Wm_watermark.Query_system.precompute qs;
    let script = random_script g base (1 + Prng.int g 4) in
    let edited, dirty = Structure.apply_edits base script in
    let old_gf = Gaifman.of_structure base in
    let gf = Gaifman.of_structure edited in
    let affected = Neighborhood.affected_elements ~old_gf ~gf ~rho:1 ~dirty in
    let refreshed =
      Wm_watermark.Query_system.refresh_relational qs edited edge_query
        ~affected
    in
    let fresh = Wm_watermark.Query_system.of_relational edited edge_query in
    List.iter
      (fun a ->
        check bool
          (Printf.sprintf "seed %d: result set of param %d" seed a.(0))
          true
          (Tuple.Set.equal
             (Wm_watermark.Query_system.result_set refreshed a)
             (Wm_watermark.Query_system.result_set fresh a)))
      (Wm_watermark.Query_system.params fresh)
  done

(* Remove_element shrinks the universe under the weights; keep these
   scripts growth/churn-only so the weighted structure stays valid. *)
let random_keeping_script g base steps =
  List.map
    (function Structure.Remove_element _ -> Structure.Add_element None | e -> e)
    (random_script g base steps)

let test_local_scheme_update_matches_prepare () =
  let module L = Wm_watermark.Local_scheme in
  for seed = 0 to 5 do
    let g = Prng.create (0x10CA + (seed * 31) + 7) in
    let ws =
      Wm_workload.Random_struct.graph g ~n:(8 + Prng.int g 6) ~max_degree:4
        ~edges:14
    in
    match L.prepare ws edge_query with
    | Error _ -> ()
    | Ok scheme ->
        let script = random_keeping_script g ws.Weighted.graph 3 in
        let edited, dirty = Structure.apply_edits ws.Weighted.graph script in
        let ws' = { ws with Weighted.graph = edited } in
        let incremental = L.update scheme ~old:ws ws' edge_query ~dirty in
        let fresh = L.prepare ws' edge_query in
        (match (incremental, fresh) with
        | Ok u, Ok p ->
            check bool
              (Printf.sprintf "seed %d: same report" seed)
              true
              (L.report u = L.report p);
            check bool
              (Printf.sprintf "seed %d: same pairs" seed)
              true
              (L.pairs u = L.pairs p)
        | Error a, Error b ->
            check Alcotest.string
              (Printf.sprintf "seed %d: same error" seed)
              b a
        | Ok _, Error e ->
            Alcotest.failf "seed %d: update ok but prepare failed: %s" seed e
        | Error e, Ok _ ->
            Alcotest.failf "seed %d: prepare ok but update failed: %s" seed e)
  done

let test_multi_scheme_update_matches_prepare () =
  let module M = Wm_watermark.Multi_scheme in
  let q2 =
    Query.make ~params:[ "u" ] ~results:[ "v" ] (Fo.atom "E" [ "v"; "u" ])
  in
  for seed = 0 to 3 do
    let g = Prng.create (0x3417 + seed) in
    let ws =
      Wm_workload.Random_struct.graph g ~n:(8 + Prng.int g 5) ~max_degree:4
        ~edges:12
    in
    let queries = [ edge_query; q2 ] in
    match M.prepare ws queries with
    | Error _ -> ()
    | Ok scheme ->
        let script = random_keeping_script g ws.Weighted.graph 3 in
        let edited, dirty = Structure.apply_edits ws.Weighted.graph script in
        let ws' = { ws with Weighted.graph = edited } in
        (match (M.update scheme ~old:ws ws' queries ~dirty, M.prepare ws' queries) with
        | Ok u, Ok p ->
            check bool
              (Printf.sprintf "seed %d: same report" seed)
              true
              (M.report u = M.report p);
            check bool
              (Printf.sprintf "seed %d: same pairs" seed)
              true
              (M.pairs u = M.pairs p)
        | Error a, Error b ->
            check Alcotest.string
              (Printf.sprintf "seed %d: same error" seed)
              b a
        | Ok _, Error e ->
            Alcotest.failf "seed %d: update ok but prepare failed: %s" seed e
        | Error e, Ok _ ->
            Alcotest.failf "seed %d: prepare ok but update failed: %s" seed e)
  done

let suite =
  [
    Alcotest.test_case "noop edit script" `Quick test_noop_edits;
    Alcotest.test_case "single edits" `Quick test_single_edits;
    Alcotest.test_case "remove isolated element" `Quick test_remove_isolated;
    Alcotest.test_case "non-last removal rejected" `Quick
      test_remove_nonlast_rejected;
    Alcotest.test_case "gaifman refresh" `Quick test_gaifman_refresh;
    Alcotest.test_case "affected elements" `Quick test_affected_elements;
    QCheck_alcotest.to_alcotest prop_reindex_incremental;
    QCheck_alcotest.to_alcotest prop_reindex_default;
    QCheck_alcotest.to_alcotest prop_reindex_jobs1;
    Alcotest.test_case "query refresh == fresh system" `Quick
      test_query_refresh_matches_fresh;
    Alcotest.test_case "local scheme update == prepare" `Quick
      test_local_scheme_update_matches_prepare;
    Alcotest.test_case "multi scheme update == prepare" `Quick
      test_multi_scheme_update_matches_prepare;
  ]
