(* The neighborhood fast path (DESIGN.md 5.9): shared sphere cache,
   member-scan dedupe, CSR adjacency and exact partition refinement must
   be pure speedups — bit-identical to the preserved pre-fast-path
   pipeline (Neighborhood_ref) for any structure, tuple set, job count
   and cache setting. *)

open Wm_util

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let equal_index (a : Neighborhood.index) (b : Neighborhood.index) =
  a.rho = b.rho && a.arity = b.arity
  && Tuple.Map.equal Int.equal a.types b.types
  && a.representatives = b.representatives

let random_graph g =
  let n = 4 + Prng.int g 10 in
  let edges = 1 + Prng.int g (2 * n) in
  (Wm_workload.Random_struct.graph g ~n ~max_degree:4 ~edges).Weighted.graph

(* --- fast path == reference, universe and explicit tuple lists ------- *)

let prop_universe_matches_ref =
  QCheck.Test.make ~count:40 ~name:"index_universe == reference pipeline"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x5EED + seed) in
      let base = random_graph g in
      let rho = Prng.int g 3 in
      let arity = 1 + Prng.int g 2 in
      equal_index
        (Neighborhood.index_universe base ~rho ~arity)
        (Neighborhood_ref.index_universe base ~rho ~arity))

let prop_list_matches_ref =
  (* explicit tuple lists, duplicates included: the fast path must dedupe
     and number types exactly like the reference *)
  QCheck.Test.make ~count:40 ~name:"index (tuple list) == reference pipeline"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x715 + seed) in
      let base = random_graph g in
      let n = Structure.size base in
      let rho = Prng.int g 3 in
      let arity = 1 + Prng.int g 2 in
      let tuples =
        List.init
          (1 + Prng.int g (3 * n))
          (fun _ -> Tuple.of_list (List.init arity (fun _ -> Prng.int g n)))
      in
      equal_index
        (Neighborhood.index base ~rho tuples)
        (Neighborhood_ref.index base ~rho tuples))

let prop_cache_off_identity =
  QCheck.Test.make ~count:40 ~name:"sphere cache on/off is bit-identical"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0xCAC4E + seed) in
      let base = random_graph g in
      let rho = Prng.int g 3 in
      let arity = 1 + Prng.int g 2 in
      equal_index
        (Neighborhood.index_universe ~sphere_cache:false base ~rho ~arity)
        (Neighborhood.index_universe base ~rho ~arity))

let prop_jobs_independent =
  QCheck.Test.make ~count:20 ~name:"fast path is job-count independent"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x90B5 + seed) in
      let base = random_graph g in
      let rho = 1 + Prng.int g 2 in
      let at j =
        Jobs.with_jobs j @@ fun () ->
        Neighborhood.index_universe base ~rho ~arity:2
      in
      equal_index (at 1) (at 2))

(* --- reindex over edit scripts == reference from scratch ------------- *)

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

let prop_reindex_matches_ref =
  (* incremental fast path against the reference pipeline from scratch:
     crosses the anchor/splice logic with the old implementation *)
  QCheck.Test.make ~count:30 ~name:"reindex == reference from scratch"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x2E1D + seed) in
      let base = random_graph g in
      let rho = Prng.int g 3 in
      let arity = 1 + Prng.int g 2 in
      let prev = Neighborhood.index_universe base ~rho ~arity in
      let script = random_script g base (1 + Prng.int g 5) in
      let edited, dirty = Structure.apply_edits base script in
      let inc = Neighborhood.reindex ~threshold:2.0 ~old:base edited ~prev ~dirty in
      equal_index inc (Neighborhood_ref.index_universe edited ~rho ~arity))

(* --- certificates ----------------------------------------------------- *)

let prop_certificate_gf_invariant =
  (* supplying the precomputed Gaifman graph (the fast path does) never
     changes the certificate, and preps agree with the one-shot API *)
  QCheck.Test.make ~count:40 ~name:"certificate invariant under ?gf"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0xCE27 + seed) in
      let base = random_graph g in
      let gf = Gaifman.of_structure base in
      let n = Structure.size base in
      let c = Tuple.pair (Prng.int g n) (Prng.int g n) in
      let nb = Neighborhood.of_tuple base gf ~rho:1 c in
      let gf_sub = Gaifman.of_structure nb.Neighborhood.sub in
      let plain = Iso.certificate nb.Neighborhood.sub nb.Neighborhood.center in
      plain = Iso.certificate ~gf:gf_sub nb.Neighborhood.sub nb.Neighborhood.center
      && plain
         = Iso.certificate_of_prep
             (Iso.prep ~gf:gf_sub nb.Neighborhood.sub nb.Neighborhood.center))

(* --- CSR adjacency ---------------------------------------------------- *)

let prop_of_tuples_matches_of_structure =
  QCheck.Test.make ~count:40 ~name:"Gaifman.of_tuples == of_structure"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0xC52 + seed) in
      let base = random_graph g in
      let n = Structure.size base in
      let tuples =
        Structure.fold_relations
          (fun _ r acc -> Relation.fold (fun t acc -> t :: acc) r acc)
          base []
      in
      let a = Gaifman.of_structure base in
      let b = Gaifman.of_tuples ~n tuples in
      Gaifman.size a = Gaifman.size b
      && List.for_all
           (fun x -> Gaifman.neighbors a x = Gaifman.neighbors b x)
           (Structure.universe base))

(* --- streaming enumeration -------------------------------------------- *)

let cons_list_all_tuples n arity =
  (* the original n^arity construction, verbatim *)
  let rec go k acc =
    if k = 0 then acc
    else
      go (k - 1)
        (List.concat_map (fun rest -> List.init n (fun x -> x :: rest)) acc)
  in
  List.map Tuple.of_list (go arity [ [] ])

let test_all_tuples_order () =
  List.iter
    (fun (n, arity) ->
      let g = Structure.create Schema.graph n in
      check bool
        (Printf.sprintf "n=%d arity=%d" n arity)
        true
        (Neighborhood.all_tuples g ~arity = cons_list_all_tuples n arity))
    [ (1, 0); (4, 0); (3, 1); (4, 2); (3, 3); (2, 4) ]

(* --- observability of the fast path ----------------------------------- *)

let counter_of snap name =
  match List.assoc_opt name snap.Wm_obs.Obs.counters with
  | Some v -> v
  | None -> 0

let with_stats f =
  let was = Wm_obs.Obs.enabled () in
  Wm_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Wm_obs.Obs.set_enabled was) f

let test_cache_counters () =
  with_stats @@ fun () ->
  let g = Prng.create 0xFA57 in
  let base =
    (Wm_workload.Random_struct.graph g ~n:24 ~max_degree:4 ~edges:40)
      .Weighted.graph
  in
  let n = Structure.size base in
  let before = Wm_obs.Obs.snapshot () in
  ignore (Neighborhood.index_universe base ~rho:2 ~arity:2);
  let d = Wm_obs.Obs.diff ~since:before (Wm_obs.Obs.snapshot ()) in
  (* every element's sphere is extracted by BFS exactly once ... *)
  check int "spheres = one BFS per element" n (counter_of d "nbh.spheres");
  (* ... every further lookup hits the cache (2 lookups per tuple, n^2
     tuples, n misses) *)
  check int "cache hits" ((2 * n * n) - n) (counter_of d "nbh.sphere_cache_hits");
  check bool "member scans deduped" true (counter_of d "nbh.subs_deduped" > 0);
  check bool "refinement rounds counted" true
    (counter_of d "nbh.refine_rounds" > 0)

let test_iso_checks_no_worse_than_ref () =
  (* satellite (a): deep bucket keys may not do more exact isomorphism
     tests than the reference's Hashtbl.hash keys *)
  with_stats @@ fun () ->
  let g = Prng.create 41 in
  let base =
    (Wm_workload.Random_struct.graph g ~n:80 ~max_degree:5 ~edges:150)
      .Weighted.graph
  in
  let before = Wm_obs.Obs.snapshot () in
  let ix = Neighborhood.index_universe base ~rho:2 ~arity:1 in
  let mid = Wm_obs.Obs.snapshot () in
  let ix_ref = Neighborhood_ref.index_universe base ~rho:2 ~arity:1 in
  let after = Wm_obs.Obs.snapshot () in
  check bool "same result" true (equal_index ix ix_ref);
  let fast = counter_of (Wm_obs.Obs.diff ~since:before mid) "nbh.iso_checks" in
  let slow = counter_of (Wm_obs.Obs.diff ~since:mid after) "nbh.ref.iso_checks" in
  check bool
    (Printf.sprintf "fast %d <= ref %d" fast slow)
    true (fast <= slow)

(* Compiled FO evaluation (DESIGN.md 5.15): building a query system
   tries O(|R| + n) values — each variable's candidates come from its
   atoms — and never scans the universe. *)
let test_fo_candidates_bounded () =
  with_stats @@ fun () ->
  let bounded name g q ~tuples =
    let before = Wm_obs.Obs.snapshot () in
    let qs = Wm_watermark.Query_system.of_relational g q in
    Wm_watermark.Query_system.precompute qs;
    let d = Wm_obs.Obs.diff ~since:before (Wm_obs.Obs.snapshot ()) in
    let n = Structure.size g in
    let tried = counter_of d "fo.candidates" in
    (* every tuple is some parameter's answer, so |R| is also a floor *)
    check bool
      (Printf.sprintf "%s: |R| = %d <= %d candidates <= 2(|R| + n) = %d" name
         tuples tried
         (2 * (tuples + n)))
      true
      (tuples <= tried && tried <= 2 * (tuples + n));
    check int (name ^ ": no universe scans") 0 (counter_of d "fo.scans")
  in
  let card g r = Relation.cardinal (Structure.relation g r) in
  let travel =
    (Wm_workload.Random_struct.travel (Prng.create 1) ~travels:200 ~transports:800)
      .Weighted.graph
  in
  bounded "travel 200/800" travel Wm_workload.Random_struct.travel_query
    ~tuples:(card travel "Route");
  let grid = (Wm_workload.Grid.structure ~w:20 ~h:20).Weighted.graph in
  bounded "grid neighbours 20x20" grid Wm_workload.Grid.neighbors_query
    ~tuples:(card grid "H" + card grid "V")

(* Direct carrier reads and table-driven tracing (DESIGN.md 5.13), at
   the owner-index benchmark's shape — a bounded-degree random graph
   under the identity query, 128-bit codewords, 10^4 candidates: a trace
   evaluates at most one binomial tail per distinct agreement count, and
   a detect reads the pair endpoints without touching the query
   system. *)
let test_reader_work_bounded () =
  with_stats @@ fun () ->
  let ws =
    Wm_workload.Random_struct.graph (Prng.create 1) ~n:2000 ~max_degree:3
      ~edges:3000
  in
  let w = ws.Weighted.weights in
  let qs =
    Wm_watermark.Query_system.of_custom
      ~params:(List.init (Structure.size ws.Weighted.graph) Tuple.singleton)
      ~result_set:(fun p -> Tuple.Set.singleton p)
      ~weight_arity:1
  in
  let q = Parser.query_of_string ~params:[ "u" ] ~results:[ "v" ] "u = v" in
  let options =
    { Wm_watermark.Local_scheme.default_options with seed = 1; rho = Some 2 }
  in
  let scheme =
    match Wm_watermark.Local_scheme.prepare ~options ~qs ws q with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let fp =
    match Wm_watermark.Fingerprint.of_local ~master:0xF1D1 scheme with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  let length = Wm_watermark.Fingerprint.length fp in
  let planted = Wm_watermark.Fingerprint.mark_for fp "r42" w in
  let candidates = 10_000 in
  let before = Wm_obs.Obs.snapshot () in
  let rep =
    Wm_watermark.Fingerprint.trace ~alpha:1e-6 fp ~original:w ~suspect:planted
      (List.init candidates (fun i -> "r" ^ string_of_int i))
  in
  let d = Wm_obs.Obs.diff ~since:before (Wm_obs.Obs.snapshot ()) in
  check (Alcotest.list Alcotest.string) "planted accused" [ "r42" ]
    rep.Wm_watermark.Fingerprint.accused;
  check int "every candidate scored" candidates (counter_of d "fp.scored");
  let tails = counter_of d "fp.tail_evals" in
  check bool
    (Printf.sprintf "fp.tail_evals %d <= length + 1 = %d" tails (length + 1))
    true
    (tails >= 1 && tails <= length + 1);
  let cap = Wm_watermark.Local_scheme.capacity scheme in
  let marked =
    Wm_watermark.Local_scheme.mark scheme (Codec.random (Prng.create 2) cap) w
  in
  let before = Wm_obs.Obs.snapshot () in
  ignore
    (Wm_watermark.Local_scheme.detect_weights scheme ~original:w ~suspect:marked
       ~length:cap);
  let d = Wm_obs.Obs.diff ~since:before (Wm_obs.Obs.snapshot ()) in
  List.iter
    (fun (name, v) ->
      if String.starts_with ~prefix:"qs." name then
        check int ("detect_weights moves no " ^ name) 0 v)
    d.Wm_obs.Obs.counters

(* Linear-time XML scheme preparation (DESIGN.md 5.3): the automaton
   transitions Pipeline.prepare_xml takes over the document at 2n
   articles stay within 2.2x those at n — a quadratic pass would show a
   ratio near 4 — and likewise Tree_scheme.prepare on a caterpillar, the
   deepest tree of its size. *)
let test_xml_prepare_linear () =
  with_stats @@ fun () ->
  let delta_calls f =
    let before = Wm_obs.Obs.snapshot () in
    (match f () with Ok _ -> () | Error e -> Alcotest.fail e);
    counter_of (Wm_obs.Obs.diff ~since:before (Wm_obs.Obs.snapshot ()))
      "trees.delta_calls"
  in
  let doubling name at n =
    let small = at n and large = at (2 * n) in
    check bool
      (Printf.sprintf "%s: %d delta calls at 2n <= 2.2 x %d at n" name large small)
      true
      (small > 0 && float_of_int large <= 2.2 *. float_of_int small)
  in
  let biblio articles =
    let doc =
      Wm_workload.Biblio_xml.generate (Prng.create articles) ~articles ()
    in
    delta_calls (fun () ->
        Wm_watermark.Pipeline.prepare_xml doc Wm_workload.Biblio_xml.pattern)
  in
  doubling "biblio 200 -> 400 articles" biblio 200;
  let child =
    let phi = Parser.mso_of_string "S1(x,y) | S2(x,y)" in
    let c =
      Wm_trees.Mso_compile.compile ~base:[| "a"; "b" |] ~free:[ "x"; "y" ] phi
    in
    Wm_trees.Tree_query.of_compiled c ~params:[ "x" ] ~results:[ "y" ]
  in
  let caterpillar size =
    let tree = Wm_workload.Trees_gen.caterpillar ~alphabet:[ "a"; "b" ] ~size in
    delta_calls (fun () -> Wm_watermark.Tree_scheme.prepare tree child)
  in
  doubling "caterpillar 500 -> 1000 nodes" caterpillar 500

(* Min-degree elimination (Treewidth): only the eliminated vertex's
   neighbors get new priority keys, so on bounded-width inputs the key
   updates at 2n stay within 2.2x those at n.  A rescan of every alive
   vertex per step would show a ratio near 4. *)
let test_treewidth_elimination_linear () =
  with_stats @@ fun () ->
  let key_updates g =
    let before = Wm_obs.Obs.snapshot () in
    ignore (Wm_cliquewidth.Treewidth.by_min_degree g);
    counter_of (Wm_obs.Obs.diff ~since:before (Wm_obs.Obs.snapshot ()))
      "tw.key_updates"
  in
  let doubling name at n =
    let small = at n and large = at (2 * n) in
    check bool
      (Printf.sprintf "%s: %d key updates at 2n <= 2.2 x %d at n" name large small)
      true
      (small > 0 && float_of_int large <= 2.2 *. float_of_int small)
  in
  let graph n edges =
    Structure.add_pairs (Structure.create Schema.graph n) "E"
      (List.concat_map (fun (a, b) -> [ (a, b); (b, a) ]) edges)
  in
  let ring n = key_updates (graph n (List.init n (fun i -> (i, (i + 1) mod n)))) in
  let random_tree n =
    let g = Prng.create n in
    key_updates
      (graph n (List.init (n - 1) (fun i -> (i + 1, Prng.int g (i + 1)))))
  in
  doubling "ring 2000 -> 4000" ring 2000;
  doubling "random tree 2000 -> 4000" random_tree 2000

let suite =
  [
    QCheck_alcotest.to_alcotest prop_universe_matches_ref;
    QCheck_alcotest.to_alcotest prop_list_matches_ref;
    QCheck_alcotest.to_alcotest prop_cache_off_identity;
    QCheck_alcotest.to_alcotest prop_jobs_independent;
    QCheck_alcotest.to_alcotest prop_reindex_matches_ref;
    QCheck_alcotest.to_alcotest prop_certificate_gf_invariant;
    QCheck_alcotest.to_alcotest prop_of_tuples_matches_of_structure;
    Alcotest.test_case "all_tuples order" `Quick test_all_tuples_order;
    Alcotest.test_case "fast-path cache counters" `Quick test_cache_counters;
    Alcotest.test_case "iso checks <= reference" `Quick
      test_iso_checks_no_worse_than_ref;
    Alcotest.test_case "fo candidates O(|R| + n)" `Quick test_fo_candidates_bounded;
    Alcotest.test_case "reader work bounded" `Quick test_reader_work_bounded;
    Alcotest.test_case "xml prepare linear" `Quick test_xml_prepare_linear;
    Alcotest.test_case "treewidth elimination linear" `Quick
      test_treewidth_elimination_linear;
  ]
