(* Input families no other section feeds to the neighborhood typer —
   random sparse graphs, random trees, grids, binary tuples with the
   sphere cache on and off, reindex edit scripts, and a clique bridged
   to a path — each checked against the frozen Neighborhood_ref pipeline
   at one and two jobs.  The section and test names are historical: they
   date from a second, bounded-width typing path that has since been
   removed (DESIGN.md 5.14), and are kept so results stay comparable
   across versions. *)

open Wm_util

let equal_index (a : Neighborhood.index) (b : Neighborhood.index) =
  a.rho = b.rho && a.arity = b.arity
  && Tuple.Map.equal Int.equal a.types b.types
  && a.representatives = b.representatives

let sparse_graph g =
  let n = 6 + Prng.int g 20 in
  let edges = n + Prng.int g (n / 2 + 1) in
  (Wm_workload.Random_struct.graph g ~n ~max_degree:3 ~edges).Weighted.graph

(* A uniformly random labeled tree as a graph structure. *)
let tree_graph g =
  let n = 4 + Prng.int g 20 in
  let s = Structure.create Schema.graph n in
  let edges = List.init (n - 1) (fun i -> Tuple.pair (Prng.int g (i + 1)) (i + 1)) in
  Structure.set_relation s "E" (Relation.of_list 2 edges)

let grid_graph w h = (Wm_workload.Grid.structure ~w ~h).Weighted.graph

(* A 5-clique bridged to a path: dense and sparse spheres, and spheres
   straddling both, in one structure. *)
let straddle_graph () =
  let n = 12 in
  let s = Structure.create Schema.graph n in
  let clique = ref [] in
  for a = 0 to 4 do
    for b = a + 1 to 4 do
      clique := Tuple.pair a b :: !clique
    done
  done;
  let path = List.init (n - 5) (fun i -> Tuple.pair (4 + i) (min (n - 1) (5 + i))) in
  Structure.set_relation s "E" (Relation.of_list 2 (!clique @ path))

(* --- index == reference, across workloads ----------------------------- *)

let prop_matches_ref ~name ~count mk =
  QCheck.Test.make ~count ~name
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0xB0D + seed) in
      let base = mk g in
      let rho = Prng.int g 3 in
      let arity = 1 + Prng.int g 2 in
      let jobs = 1 + Prng.int g 2 in
      let tuples = Neighborhood.all_tuples base ~arity in
      let ix = Jobs.with_jobs jobs @@ fun () -> Neighborhood.index base ~rho tuples in
      equal_index ix (Neighborhood_ref.index base ~rho tuples))

let prop_sparse =
  prop_matches_ref ~count:30
    ~name:"index_bounded == index == ref (random sparse)" sparse_graph

let prop_tree =
  prop_matches_ref ~count:30
    ~name:"index_bounded == index == ref (random tree)" tree_graph

let prop_grid =
  prop_matches_ref ~count:10 ~name:"index_bounded == index == ref (grid)"
    (fun g -> grid_graph (2 + Prng.int g 4) (2 + Prng.int g 4))

let prop_cache_off =
  QCheck.Test.make ~count:20 ~name:"bounded path, sphere cache on/off"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x0FF + seed) in
      let base = sparse_graph g in
      let rho = Prng.int g 3 in
      let reference = Neighborhood_ref.index_universe base ~rho ~arity:2 in
      equal_index
        (Neighborhood.index_universe ~sphere_cache:false base ~rho ~arity:2)
        reference
      && equal_index (Neighborhood.index_universe base ~rho ~arity:2) reference)

(* --- the clique-path straddle graph ----------------------------------- *)

let test_straddle () =
  let base = straddle_graph () in
  List.iter
    (fun (rho, arity, jobs) ->
      let tuples = Neighborhood.all_tuples base ~arity in
      let ix =
        Jobs.with_jobs jobs @@ fun () -> Neighborhood.index base ~rho tuples
      in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "straddle rho %d arity %d jobs %d = reference" rho
           arity jobs)
        true
        (equal_index ix (Neighborhood_ref.index base ~rho tuples)))
    [ (1, 1, 1); (1, 1, 2); (2, 1, 1); (1, 2, 2); (0, 2, 1) ]

(* --- reindex over edit scripts ----------------------------------------- *)

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
          | ts ->
              Structure.Delete_tuple
                ("E", List.nth ts (Prng.int g (List.length ts))))
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

let prop_reindex =
  QCheck.Test.make ~count:30 ~name:"bounded reindex == reference from scratch"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x2E1E + seed) in
      let base = sparse_graph g in
      let rho = Prng.int g 3 in
      let arity = 1 + Prng.int g 2 in
      let jobs = 1 + Prng.int g 2 in
      let script = random_script g base (1 + Prng.int g 5) in
      let edited, dirty = Structure.apply_edits base script in
      let inc =
        Jobs.with_jobs jobs @@ fun () ->
        let prev = Neighborhood.index_universe base ~rho ~arity in
        Neighborhood.reindex ~threshold:2.0 ~old:base edited ~prev ~dirty
      in
      equal_index inc (Neighborhood_ref.index_universe edited ~rho ~arity))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_sparse;
    QCheck_alcotest.to_alcotest prop_tree;
    QCheck_alcotest.to_alcotest prop_grid;
    QCheck_alcotest.to_alcotest prop_cache_off;
    QCheck_alcotest.to_alcotest prop_reindex;
    Alcotest.test_case "width-fallback boundary (straddling)" `Quick
      test_straddle;
  ]
