(* The linear Theorem 5 preparation (DESIGN.md 5.3) against its oracles:
   the two-pass active set against the union of every parameter's result
   set, and the Euler-interval / path-replay block phases against the
   reference construction kept in Tree_scheme_ref. *)

open Wm_trees
module Tree_scheme = Wm_watermark.Tree_scheme
module Trees_gen = Wm_workload.Trees_gen

let check = Alcotest.check
let bool = Alcotest.bool

let mso_query text =
  let phi = Parser.mso_of_string text in
  let c = Mso_compile.compile ~base:[| "a"; "b" |] ~free:[ "x"; "y" ] phi in
  Tree_query.of_compiled c ~params:[ "x" ] ~results:[ "y" ]

(* child, tree order and label queries, plus a few whose answer depends on
   where the parameter sits relative to the result *)
let queries =
  lazy
    (List.map mso_query
       [
         "S1(x,y) | S2(x,y)";
         "S1(x,y)";
         "Leq(x,y)";
         "Leq(x,y) & a(y)";
         "b(y)";
         "x = y";
         "a(x) & b(y) & Leq(y,x)";
         "Leq(y,x) & ~(x = y)";
         "exists z. (S1(z,x) & S2(z,y))";
       ])

let random_case seed =
  let g = Prng.create (0x7EE + seed) in
  let size = 1 + Prng.int g 60 in
  let tree =
    if Prng.int g 4 = 0 then Trees_gen.caterpillar ~alphabet:[ "a"; "b" ] ~size
    else Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size
  in
  let qs = Lazy.force queries in
  (g, tree, List.nth qs (Prng.int g (List.length qs)))

(* The binary tree and compiled query Pipeline.prepare_xml builds. *)
let xml_case doc pattern =
  let constants = Wm_xml.Pattern.constants pattern in
  let tree = Wm_xml.Encode.to_binary_abstract ~constants doc in
  let alphabet = Wm_xml.Encode.abstract_alphabet ~constants doc in
  (tree, Wm_xml.Pattern.compile pattern ~alphabet)

let xml_cases () =
  List.map
    (fun articles ->
      xml_case
        (Wm_workload.Biblio_xml.generate (Prng.create articles) ~articles ())
        Wm_workload.Biblio_xml.pattern)
    [ 3; 12; 40 ]
  @ List.map
      (fun students ->
        xml_case
          (Wm_workload.School_xml.generate (Prng.create students) ~students ())
          Wm_workload.School_xml.example4_pattern)
      [ 4; 20; 60 ]
  @ [ (Wm_xml.Encode.to_binary_abstract Wm_workload.School_xml.example4,
       Wm_xml.Pattern.compile Wm_workload.School_xml.example4_pattern
         ~alphabet:(Wm_xml.Encode.abstract_alphabet Wm_workload.School_xml.example4)) ]

(* Parse trees of clique-width terms under the Theorem 4 adjacency and
   distance-two queries (k = s = 1). *)
let cw_cases () =
  let open Wm_cliquewidth in
  let g = Prng.create 0xC11 in
  List.concat_map
    (fun labels ->
      let terms =
        Cw_term.clique 7 :: Cw_term.path 9
        :: List.init 3 (fun i -> Cw_term.random g ~labels ~vertices:(4 + (5 * i)))
      in
      List.concat_map
        (fun term ->
          let labels = max labels (Cw_term.width term) in
          let tree = Cw_parse.to_tree ~labels term in
          (tree, Cw_adjacency.query ~labels)
          :: (if labels <= 2 then [ (tree, Cw_adjacency.distance2_query ~labels) ]
              else []))
        terms)
    [ 2; 3 ]

let same_active (tree, q) =
  Tuple.Set.equal (Tree_query.active q tree) (Tree_scheme_ref.active q tree)

let same_scheme ?options (tree, q) =
  match (Tree_scheme.prepare ?options tree q, Tree_scheme_ref.prepare ?options tree q) with
  | Ok s, Ok (pairs, regions, report) ->
      Tree_scheme.pairs s = pairs
      && Tree_scheme.regions s = regions
      && Tree_scheme.report s = report
  | Error e, Error e' -> e = e'
  | _ -> false

(* --- the active set ---------------------------------------------------- *)

let prop_active_random =
  QCheck.Test.make ~count:150
    ~name:"active == union of result sets (random trees, caterpillars)"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let _, tree, q = random_case seed in
      same_active (tree, q))

let test_active_documents () =
  List.iteri
    (fun i c -> check bool (Printf.sprintf "xml case %d" i) true (same_active c))
    (xml_cases ())

let test_active_cliquewidth () =
  List.iteri
    (fun i c -> check bool (Printf.sprintf "cw case %d" i) true (same_active c))
    (cw_cases ())

(* --- the block phases -------------------------------------------------- *)

let prop_scheme_random =
  QCheck.Test.make ~count:150
    ~name:"pairs, regions, report == reference (random trees, options)"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g, tree, q = random_case seed in
      let block_size =
        match Prng.int g 3 with 0 -> None | _ -> Some (2 + Prng.int g 8)
      in
      let options =
        { Tree_scheme.block_size; pairs_per_block = 1 + Prng.int g 3 }
      in
      same_scheme ~options (tree, q))

let test_scheme_documents () =
  List.iteri
    (fun i c ->
      check bool (Printf.sprintf "xml case %d" i) true (same_scheme c);
      check bool
        (Printf.sprintf "xml case %d, blocks of 4" i)
        true
        (same_scheme
           ~options:{ Tree_scheme.block_size = Some 4; pairs_per_block = 2 }
           c))
    (xml_cases ())

let test_scheme_cliquewidth () =
  List.iteri
    (fun i c -> check bool (Printf.sprintf "cw case %d" i) true (same_scheme c))
    (cw_cases ())

let suite =
  [
    QCheck_alcotest.to_alcotest prop_active_random;
    Alcotest.test_case "active == union on XML documents" `Quick
      test_active_documents;
    Alcotest.test_case "active == union on clique-width parse trees" `Quick
      test_active_cliquewidth;
    QCheck_alcotest.to_alcotest prop_scheme_random;
    Alcotest.test_case "scheme == reference on XML documents" `Quick
      test_scheme_documents;
    Alcotest.test_case "scheme == reference on clique-width parse trees" `Quick
      test_scheme_cliquewidth;
  ]
