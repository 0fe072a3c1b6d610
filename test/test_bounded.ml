(* The bounded-width fast path (DESIGN.md 5.14): decomposition-driven
   canonical codes must be a pure speedup — bit-identical to the generic
   path and to the frozen Neighborhood_ref pipeline for any structure,
   width bound, job count and cache setting, spheres straddling the
   bound included. *)

open Wm_util

let check = Alcotest.check
let bool = Alcotest.bool

let equal_index (a : Neighborhood.index) (b : Neighborhood.index) =
  a.rho = b.rho && a.arity = b.arity
  && Tuple.Map.equal Int.equal a.types b.types
  && a.representatives = b.representatives

let sparse_graph g =
  let n = 6 + Prng.int g 20 in
  let edges = n + Prng.int g (n / 2 + 1) in
  (Wm_workload.Random_struct.graph g ~n ~max_degree:3 ~edges).Weighted.graph

(* A uniformly random labeled tree as a graph structure: treewidth 1,
   the ideal bounded-path workload. *)
let tree_graph g =
  let n = 4 + Prng.int g 20 in
  let s = Structure.create Schema.graph n in
  let edges = List.init (n - 1) (fun i -> Tuple.pair (Prng.int g (i + 1)) (i + 1)) in
  Structure.set_relation s "E" (Relation.of_list 2 edges)

let grid_graph w h = (Wm_workload.Grid.structure ~w ~h).Weighted.graph

(* A 5-clique (sphere width 4) bridged to a path (sphere width 1): with
   bounds 1..3 the clique-side spheres fall back while the path-side
   spheres take the code path — the straddling case. *)
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

(* --- bounded == generic == reference, across workloads ---------------- *)

let prop_bounded_matches ~name ~count mk =
  QCheck.Test.make ~count ~name
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0xB0D + seed) in
      let base = mk g in
      let rho = Prng.int g 3 in
      let arity = 1 + Prng.int g 2 in
      let width = 1 + Prng.int g 5 in
      let jobs = 1 + Prng.int g 2 in
      let tuples =
        Neighborhood.all_tuples base ~arity
      in
      let generic, bounded =
        Jobs.with_jobs jobs @@ fun () ->
        ( Neighborhood.index ~width_bound:0 base ~rho tuples,
          Neighborhood.index_bounded ~width base ~rho tuples )
      in
      let reference = Neighborhood_ref.index base ~rho tuples in
      equal_index bounded generic && equal_index bounded reference)

let prop_sparse =
  prop_bounded_matches ~count:30
    ~name:"index_bounded == index == ref (random sparse)" sparse_graph

let prop_tree =
  prop_bounded_matches ~count:30
    ~name:"index_bounded == index == ref (random tree)" tree_graph

let prop_grid =
  prop_bounded_matches ~count:10 ~name:"index_bounded == index == ref (grid)"
    (fun g -> grid_graph (2 + Prng.int g 4) (2 + Prng.int g 4))

let prop_cache_off =
  QCheck.Test.make ~count:20 ~name:"bounded path, sphere cache on/off"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x0FF + seed) in
      let base = sparse_graph g in
      let rho = Prng.int g 3 in
      equal_index
        (Neighborhood.index_universe ~sphere_cache:false ~width_bound:3 base
           ~rho ~arity:2)
        (Neighborhood.index_universe ~width_bound:3 base ~rho ~arity:2))

(* --- the width-fallback boundary -------------------------------------- *)

let counter_of snap name =
  match List.assoc_opt name snap.Wm_obs.Obs.counters with
  | Some v -> v
  | None -> 0

let with_stats f =
  let was = Wm_obs.Obs.enabled () in
  Wm_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Wm_obs.Obs.set_enabled was) f

let test_straddle () =
  with_stats @@ fun () ->
  let base = straddle_graph () in
  List.iter
    (fun width ->
      let before = Wm_obs.Obs.snapshot () in
      let bounded = Neighborhood.index_bounded ~width base ~rho:1
          (Neighborhood.all_tuples base ~arity:1) in
      let d = Wm_obs.Obs.diff ~since:before (Wm_obs.Obs.snapshot ()) in
      let generic = Neighborhood.index ~width_bound:0 base ~rho:1
          (Neighborhood.all_tuples base ~arity:1) in
      check bool
        (Printf.sprintf "straddle width %d identical" width)
        true
        (equal_index bounded generic);
      check bool
        (Printf.sprintf "width %d: clique spheres fall back" width)
        true
        (counter_of d "nbh.bw.width_fallbacks" > 0);
      check bool
        (Printf.sprintf "width %d: path spheres bypass iso" width)
        true
        (counter_of d "nbh.bw.iso_bypassed" > 0))
    [ 1; 2; 3 ]

let test_counters () =
  with_stats @@ fun () ->
  let base = grid_graph 6 6 in
  let before = Wm_obs.Obs.snapshot () in
  ignore (Neighborhood.index_universe ~width_bound:8 base ~rho:1 ~arity:2);
  let d = Wm_obs.Obs.diff ~since:before (Wm_obs.Obs.snapshot ()) in
  check bool "decompositions built" true
    (counter_of d "nbh.bw.decompositions" > 0);
  (* arity 2: many tuples share a sphere set, so the per-sphere
     decomposition cache must be hit *)
  check bool "decomposition cache hit" true
    (counter_of d "nbh.bw.decomp_cache_hits" > 0);
  check bool "groups formed" true (counter_of d "nbh.bw.groups" > 0);
  check bool "iso bypassed" true (counter_of d "nbh.bw.iso_bypassed" > 0)

(* --- reindex over edit scripts under the bound ------------------------ *)

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

let prop_reindex_bounded =
  QCheck.Test.make ~count:30 ~name:"bounded reindex == reference from scratch"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x2E1E + seed) in
      let base = sparse_graph g in
      let rho = Prng.int g 3 in
      let arity = 1 + Prng.int g 2 in
      let width = 1 + Prng.int g 4 in
      let jobs = 1 + Prng.int g 2 in
      let script = random_script g base (1 + Prng.int g 5) in
      let edited, dirty = Structure.apply_edits base script in
      let inc =
        Jobs.with_jobs jobs @@ fun () ->
        let prev =
          Neighborhood.index_universe ~width_bound:width base ~rho ~arity
        in
        Neighborhood.reindex ~threshold:2.0 ~width_bound:width ~old:base
          edited ~prev ~dirty
      in
      equal_index inc (Neighborhood_ref.index_universe edited ~rho ~arity))

(* --- the dispatcher: set_width_bound / WMARK_WIDTH_BOUND -------------- *)

let test_dispatcher () =
  let base = straddle_graph () in
  let explicit = Neighborhood.index_universe ~width_bound:2 base ~rho:1 ~arity:1 in
  Fun.protect ~finally:(fun () -> Neighborhood.set_width_bound None)
  @@ fun () ->
  Neighborhood.set_width_bound (Some 2);
  check bool "set_width_bound applies to bare calls" true
    (Neighborhood.width_bound () = Some 2
    && equal_index explicit (Neighborhood.index_universe base ~rho:1 ~arity:1));
  Neighborhood.set_width_bound (Some 0);
  check bool "Some 0 forces the generic path" true
    (Neighborhood.width_bound () = None);
  Neighborhood.set_width_bound None;
  check bool "None defers to the environment" true
    (Neighborhood.width_bound ()
    = (match Sys.getenv_opt "WMARK_WIDTH_BOUND" with
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some k when k >= 1 -> Some k
          | _ -> None)
      | None -> None));
  check bool "negative bound rejected" true
    (try
       Neighborhood.set_width_bound (Some (-1));
       false
     with Invalid_argument _ -> true);
  check bool "index_bounded rejects width 0" true
    (try
       ignore (Neighborhood.index_bounded ~width:0 base ~rho:1 []);
       false
     with Invalid_argument _ -> true)

let test_max_sphere_width () =
  (* path: rho-1 spheres are sub-paths, width 1; the straddle graph's
     clique spheres reach width 4 *)
  let tree = tree_graph (Prng.create 7) in
  check bool "tree spheres have width <= 1" true
    (Neighborhood.max_sphere_width tree ~rho:1 <= 1);
  let st = straddle_graph () in
  check Alcotest.int "straddle max sphere width" 4
    (Neighborhood.max_sphere_width st ~rho:1);
  (* the survey names the exact threshold that ends fallbacks *)
  with_stats @@ fun () ->
  let w = Neighborhood.max_sphere_width st ~rho:1 in
  let before = Wm_obs.Obs.snapshot () in
  ignore
    (Neighborhood.index_bounded ~width:w st ~rho:1
       (Neighborhood.all_tuples st ~arity:1));
  let d = Wm_obs.Obs.diff ~since:before (Wm_obs.Obs.snapshot ()) in
  check Alcotest.int "no fallbacks at the surveyed width" 0
    (counter_of d "nbh.bw.width_fallbacks")

let suite =
  [
    QCheck_alcotest.to_alcotest prop_sparse;
    QCheck_alcotest.to_alcotest prop_tree;
    QCheck_alcotest.to_alcotest prop_grid;
    QCheck_alcotest.to_alcotest prop_cache_off;
    QCheck_alcotest.to_alcotest prop_reindex_bounded;
    Alcotest.test_case "width-fallback boundary (straddling)" `Quick
      test_straddle;
    Alcotest.test_case "bw counters" `Quick test_counters;
    Alcotest.test_case "dispatcher precedence" `Quick test_dispatcher;
    Alcotest.test_case "max_sphere_width survey" `Quick test_max_sphere_width;
  ]
