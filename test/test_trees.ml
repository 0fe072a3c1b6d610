(* Tests for Wm_trees: binary trees, tree automata (deterministic and
   nondeterministic), and the MSO -> automaton compilation of Lemma 2.
   The compiled automata are checked against the brute-force MSO oracle on
   randomly generated trees — that equivalence is experiment E8's claim. *)

open Wm_trees
open Wm_workload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let int64 = Alcotest.int64
let float = Alcotest.float
let list = Alcotest.list
let array = Alcotest.array
let option = Alcotest.option
let _ = (int, bool, string, int64, float, (fun x -> list x), (fun x -> array x), (fun x -> option x))

(* A small fixed tree:        a0
                             /  \
                            b1    a4
                           /  \     \
                          a2   b3    b5          (ids in preorder) *)
let tree1 =
  Btree.of_spec_with_alphabet [ "a"; "b" ]
    Btree.(
      node "a" (node "b" (leaf "a") (leaf "b")) (N ("a", None, Some (leaf "b"))))

let test_btree_shape () =
  check int "size" 6 (Btree.size tree1);
  check int "root" 0 (Btree.root tree1);
  check (option int) "left of root" (Some 1) (Btree.left tree1 0);
  check (option int) "right of root" (Some 4) (Btree.right tree1 0);
  check (option int) "right of 4" (Some 5) (Btree.right tree1 4);
  check (option int) "left of 4" None (Btree.left tree1 4);
  check (option int) "parent of 5" (Some 4) (Btree.parent tree1 5);
  check string "label 2" "a" (Btree.label_name tree1 2);
  check bool "leaf" true (Btree.is_leaf tree1 3);
  check bool "not leaf" false (Btree.is_leaf tree1 1);
  check int "depth" 2 (Btree.depth tree1 5)

let test_btree_order () =
  check bool "root ancestor of all" true (Btree.ancestor_or_equal tree1 0 5);
  check bool "reflexive" true (Btree.ancestor_or_equal tree1 3 3);
  check bool "not ancestor" false (Btree.ancestor_or_equal tree1 1 5);
  check bool "strict" true (Btree.strictly_below tree1 1 3);
  check bool "strict irreflexive" false (Btree.strictly_below tree1 3 3);
  check int "lca cousins" 0 (Btree.lca tree1 2 5);
  check int "lca siblings" 1 (Btree.lca tree1 2 3);
  check int "lca ancestor" 1 (Btree.lca tree1 1 3)

let test_btree_traversals () =
  check (list int) "subtree of 1" [ 1; 2; 3 ] (Btree.subtree_nodes tree1 1);
  check int "subtree size" 3 (Btree.subtree_size tree1 1);
  let post = Array.to_list (Btree.postorder tree1) in
  check (list int) "postorder" [ 2; 3; 1; 5; 4; 0 ] post;
  check (list int) "a-labeled" [ 0; 2; 4 ] (Btree.nodes_with_label tree1 "a")

let test_btree_to_structure () =
  let g = Btree.to_structure tree1 in
  check bool "S1(0,1)" true (Relation.mem (Tuple.pair 0 1) (Structure.relation g "S1"));
  check bool "S2(0,4)" true (Relation.mem (Tuple.pair 0 4) (Structure.relation g "S2"));
  check bool "Leq(0,5)" true (Relation.mem (Tuple.pair 0 5) (Structure.relation g "Leq"));
  check bool "Leq reflexive" true (Relation.mem (Tuple.pair 3 3) (Structure.relation g "Leq"));
  check bool "a(2)" true (Relation.mem (Tuple.singleton 2) (Structure.relation g "a"))

(* Parity-of-'a' automaton over alphabet {a=0, b=1}. *)
let parity_a =
  Dta.make ~nstates:2 ~nlabels:2
    ~final:(fun q -> q = 1)
    (fun ql qr l ->
      let c q = if q < 0 then 0 else q in
      (c ql + c qr + if l = 0 then 1 else 0) mod 2)

let plain_label tree v = Btree.label tree v

let test_dta_run () =
  (* tree1 has three 'a' nodes -> odd -> accept. *)
  check bool "accepts odd" true
    (Dta.accepts parity_a tree1 ~label_of:(plain_label tree1));
  let states = Dta.run parity_a tree1 ~label_of:(plain_label tree1) in
  check int "leaf a state" 1 states.(2);
  check int "leaf b state" 0 states.(3);
  check int "root state" 1 states.(0)

let test_dta_boolean_ops () =
  let all = Dta.accept_all ~nlabels:2 and none = Dta.accept_none ~nlabels:2 in
  check bool "all accepts" true (Dta.accepts all tree1 ~label_of:(plain_label tree1));
  check bool "none rejects" false (Dta.accepts none tree1 ~label_of:(plain_label tree1));
  check bool "complement flips" false
    (Dta.accepts (Dta.complement parity_a) tree1 ~label_of:(plain_label tree1));
  let both = Dta.product parity_a all ~final:( && ) in
  check bool "product with all" true
    (Dta.accepts both tree1 ~label_of:(plain_label tree1));
  check bool "equivalent to itself" true (Dta.equivalent parity_a parity_a);
  check bool "not equivalent to complement" false
    (Dta.equivalent parity_a (Dta.complement parity_a))

let test_dta_empty () =
  check bool "none empty" true (Dta.is_empty (Dta.accept_none ~nlabels:2));
  check bool "parity not empty" false (Dta.is_empty parity_a);
  (* intersection of parity with its complement is empty *)
  check bool "p & ~p empty" true
    (Dta.is_empty (Dta.product parity_a (Dta.complement parity_a) ~final:( && )))

let test_dta_reduce_minimize () =
  (* Pad parity with junk states via product with accept_all twice, then
     minimize back down to 2 states. *)
  let padded =
    Dta.product (Dta.product parity_a (Dta.accept_all ~nlabels:2) ~final:( && ))
      (Dta.accept_all ~nlabels:2) ~final:( && )
  in
  let m = Dta.minimize padded in
  check int "minimized to 2" 2 (Dta.nstates m);
  check bool "language preserved" true (Dta.equivalent m parity_a)

let test_run_with_hole () =
  let states = Dta.run parity_a tree1 ~label_of:(plain_label tree1) in
  (* Cutting at any node and re-inserting its computed state reproduces the
     root state. *)
  for v = 1 to Btree.size tree1 - 1 do
    check int
      (Printf.sprintf "hole at %d" v)
      states.(Btree.root tree1)
      (Dta.run_with_hole parity_a tree1 ~label_of:(plain_label tree1) ~hole:v
         (Some states.(v)))
  done;
  (* Removing the left subtree of the root (2 a's inside incl. root? the
     subtree at 1 holds one 'a') changes parity accordingly. *)
  let without_left =
    Dta.run_with_hole parity_a tree1 ~label_of:(plain_label tree1) ~hole:1 None
  in
  (* Remaining 'a's: nodes 0 and 4 -> even -> state 0. *)
  check int "hole=None drops subtree" 0 without_left

let test_nta_determinize_preserves () =
  let nta = Nta.of_dta parity_a in
  let det = Nta.determinize nta in
  check bool "same language" true (Dta.equivalent (Dta.minimize det) parity_a);
  let g = Prng.create 11 in
  for _ = 1 to 30 do
    let t = Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:(1 + Prng.int g 15) in
    let lbl v = Btree.label t v in
    check bool "nta eval agrees" (Dta.accepts parity_a t ~label_of:lbl)
      (Nta.accepts nta t ~label_of:lbl)
  done

(* --- MSO compilation versus the oracle ------------------------------ *)

let base = [| "a"; "b" |]

let oracle_holds tree ~elems phi =
  Mso.holds (Btree.to_structure tree) ~elems ~sets:[] phi

let agree_on_tree phi free tree =
  let compiled = Mso_compile.compile ~base ~free phi in
  let n = Btree.size tree in
  let rec assignments = function
    | [] -> [ [] ]
    | v :: rest ->
        List.concat_map
          (fun partial -> List.init n (fun node -> (v, node) :: partial))
          (assignments rest)
  in
  List.for_all
    (fun elems ->
      Mso_compile.accepts compiled tree ~elems ~sets:[]
      = oracle_holds tree ~elems phi)
    (assignments free)

let check_formula name text free =
  let phi = Parser.mso_of_string text in
  let g = Prng.create 2024 in
  for i = 1 to 12 do
    let size = 1 + Prng.int g 9 in
    let tree = Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size in
    if not (agree_on_tree phi free tree) then
      Alcotest.fail
        (Printf.sprintf "%s: mismatch on random tree #%d (size %d)" name i size)
  done

let test_mso_label () = check_formula "a(x)" "a(x)" [ "x" ]
let test_mso_s1 () = check_formula "S1" "S1(x,y)" [ "x"; "y" ]
let test_mso_s2 () = check_formula "S2" "S2(x,y)" [ "x"; "y" ]
let test_mso_leq () = check_formula "Leq" "Leq(x,y)" [ "x"; "y" ]
let test_mso_eq () = check_formula "eq" "x = y" [ "x"; "y" ]
let test_mso_child () = check_formula "Child" "Child(x,y)" [ "x"; "y" ]
let test_mso_desc () = check_formula "Desc" "Desc(x,y)" [ "x"; "y" ]

(* The unranked atoms compile to the automata of their definitions in the
   binary vocabulary: a child is the S1 child or reached from it along an
   S2-chain (every S2-closed set holding it), a proper descendant lies at
   or below the S1 child. *)
let test_mso_unranked_definitions () =
  let compile text =
    (Mso_compile.compile ~base ~free:[ "x"; "y" ] (Parser.mso_of_string text))
      .Mso_compile.auto
  in
  List.iter
    (fun (atom, definition) ->
      let a = compile atom and d = compile definition in
      check int (atom ^ " states") (Dta.nstates d) (Dta.nstates a);
      check bool (atom ^ " = its definition") true (Dta.equivalent a d))
    [
      ( "Child(x,y)",
        "exists z. (S1(x,z) & forallS X. ((z in X & forall u. forall w. ((u \
         in X & S2(u,w)) -> w in X)) -> y in X))" );
      ("Desc(x,y)", "exists z. (S1(x,z) & Leq(z,y))");
    ]

let test_mso_not () = check_formula "negated S1" "~S1(x,y)" [ "x"; "y" ]

let test_mso_exists () =
  check_formula "has left child" "exists y. S1(x,y)" [ "x" ]

let test_mso_sentence () =
  check_formula "some a exists" "exists x. a(x)" []

let test_mso_root () =
  (* x is the root iff nothing is strictly above it. *)
  check_formula "root" "forall y. (Leq(y,x) -> y = x)" [ "x" ]

let test_mso_leaf () =
  check_formula "leaf" "~(exists y. (S1(x,y) | S2(x,y)))" [ "x" ]

let test_mso_set_quantifier () =
  (* Leq via set closure: x <= y iff every child-closed set containing x
     contains y.  This is the classic MSO definition of reachability and a
     strong end-to-end test of projection/complement/product. *)
  check_formula "Leq via sets"
    "forallS X. ((x in X & forall u. forall v. ((u in X & (S1(u,v) | S2(u,v))) -> v in X)) -> y in X)"
    [ "x"; "y" ]

let test_mso_leq_definability () =
  (* The set-based definition compiles to an automaton equivalent to the
     direct Leq atom's. *)
  let direct = Mso_compile.compile ~base ~free:[ "x"; "y" ]
      (Parser.mso_of_string "Leq(x,y)")
  in
  let viasets = Mso_compile.compile ~base ~free:[ "x"; "y" ]
      (Parser.mso_of_string
         "forallS X. ((x in X & forall u. forall v. ((u in X & (S1(u,v) | S2(u,v))) -> v in X)) -> y in X)")
  in
  (* Compare on trees (not raw language equality: the set-based automaton
     may differ outside singleton-annotated trees). *)
  let g = Prng.create 5 in
  for _ = 1 to 10 do
    let tree = Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:(1 + Prng.int g 8) in
    let n = Btree.size tree in
    for x = 0 to n - 1 do
      for y = 0 to n - 1 do
        let elems = [ ("x", x); ("y", y) ] in
        check bool "defs agree"
          (Mso_compile.accepts direct tree ~elems ~sets:[])
          (Mso_compile.accepts viasets tree ~elems ~sets:[])
      done
    done
  done

let test_tree_query_basics () =
  (* psi(x, y) = "y is a child of x" as a query: k = 1, s = 1. *)
  let phi = Parser.mso_of_string "S1(x,y) | S2(x,y)" in
  let compiled = Mso_compile.compile ~base ~free:[ "x"; "y" ] phi in
  let q = Tree_query.of_compiled compiled ~params:[ "x" ] ~results:[ "y" ] in
  check bool "member" true
    (Tree_query.member q tree1 (Tuple.singleton 0) (Tuple.singleton 1));
  check bool "not member" false
    (Tree_query.member q tree1 (Tuple.singleton 0) (Tuple.singleton 2));
  let w0 = Tree_query.result_set q tree1 (Tuple.singleton 0) in
  check (list int) "children of root" [ 1; 4 ]
    (List.map (fun t -> t.(0)) (Tuple.Set.elements w0));
  (* Active = all non-root nodes. *)
  let active = Tree_query.active q tree1 in
  check int "active count" 5 (Tuple.Set.cardinal active);
  (* f with unit weights counts children. *)
  let w = Trees_gen.random_weights (Prng.create 1) tree1 ~lo:1 ~hi:1 in
  check int "f = #children" 2 (Tree_query.f q tree1 ~weights:w (Tuple.singleton 0))

(* Property: determinization of a projected automaton preserves the
   nondeterministic semantics. *)
let prop_determinize_agrees =
  QCheck.Test.make ~count:40 ~name:"determinize agrees with NTA simulation"
    QCheck.(int_range 1 40)
    (fun seed ->
      let g = Prng.create seed in
      let alpha = Alphabet.make ~base_size:2 ~bits:1 in
      (* Build an NTA by projecting the bit of a singleton automaton
         product. *)
      let phi = Parser.mso_of_string "exists x. a(x)" in
      let compiled = Mso_compile.compile ~base ~free:[] phi in
      ignore alpha;
      let tree = Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:(1 + Prng.int g 12) in
      Mso_compile.accepts compiled tree ~elems:[] ~sets:[]
      = List.exists (fun v -> Btree.label_name tree v = "a")
          (List.init (Btree.size tree) Fun.id))

(* Random-automaton algebra: boolean operations and minimization must act
   on the recognized languages, not just on the particular automata built
   by the MSO compiler. *)
let random_dta g ~nstates ~nlabels =
  let table =
    Array.init ((nstates + 1) * (nstates + 1) * nlabels) (fun _ ->
        Prng.int g nstates)
  in
  let finals = Array.init nstates (fun _ -> Prng.bool g) in
  Dta.make ~nstates ~nlabels
    ~final:(fun q -> finals.(q))
    (fun ql qr l ->
      table.((((ql + 1) * (nstates + 1)) + (qr + 1)) * nlabels + l))

let dta_gen = QCheck.int_range 1 10_000

let with_random_setup seed f =
  let g = Prng.create seed in
  let nlabels = 2 in
  let a = random_dta g ~nstates:(2 + Prng.int g 3) ~nlabels in
  let b = random_dta g ~nstates:(2 + Prng.int g 3) ~nlabels in
  let trees =
    List.init 10 (fun _ ->
        Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:(1 + Prng.int g 12))
  in
  f a b trees

let prop_product_is_intersection =
  QCheck.Test.make ~count:50 ~name:"product(&&) recognizes the intersection"
    dta_gen
    (fun seed ->
      with_random_setup seed (fun a b trees ->
          let both = Dta.product a b ~final:( && ) in
          List.for_all
            (fun t ->
              let lbl v = Btree.label t v in
              Dta.accepts both t ~label_of:lbl
              = (Dta.accepts a t ~label_of:lbl && Dta.accepts b t ~label_of:lbl))
            trees))

let prop_complement_is_negation =
  QCheck.Test.make ~count:50 ~name:"complement recognizes the complement"
    dta_gen
    (fun seed ->
      with_random_setup seed (fun a _ trees ->
          let not_a = Dta.complement a in
          List.for_all
            (fun t ->
              let lbl v = Btree.label t v in
              Dta.accepts not_a t ~label_of:lbl
              = not (Dta.accepts a t ~label_of:lbl))
            trees))

let prop_minimize_preserves_language =
  QCheck.Test.make ~count:50 ~name:"minimize preserves the language" dta_gen
    (fun seed ->
      with_random_setup seed (fun a _ trees ->
          let m = Dta.minimize a in
          Dta.equivalent a m
          && List.for_all
               (fun t ->
                 let lbl v = Btree.label t v in
                 Dta.accepts m t ~label_of:lbl = Dta.accepts a t ~label_of:lbl)
               trees))

let prop_de_morgan_automata =
  QCheck.Test.make ~count:40 ~name:"~(A & B) = ~A | ~B on automata" dta_gen
    (fun seed ->
      with_random_setup seed (fun a b _ ->
          Dta.equivalent
            (Dta.complement (Dta.product a b ~final:( && )))
            (Dta.product (Dta.complement a) (Dta.complement b) ~final:( || ))))

let prop_determinize_of_dta_is_identity_language =
  QCheck.Test.make ~count:40 ~name:"determinize(of_dta) preserves language"
    dta_gen
    (fun seed ->
      with_random_setup seed (fun a _ _ ->
          Dta.equivalent a (Nta.determinize (Nta.of_dta a))))

(* --- Bit-identical compilation ----------------------------------------

   A digest of an automaton's state count, final states and full
   transition table.  The digests below pin the construction, not the
   marks: the tree scheme takes its collision groups by smallest member
   node, so a renumbering that keeps the language leaves pairs and marked
   outputs unchanged (DESIGN.md 5.4).  A changed digest means the compiler
   builds a different automaton; compare size and language
   ([Dta.equivalent]) with the old one before re-recording it. *)
let dta_digest d =
  let b = Buffer.create 4096 in
  let n = Dta.nstates d and nl = Dta.nlabels d in
  Printf.bprintf b "%d %d|" n nl;
  for q = 0 to n - 1 do
    if Dta.is_final d q then Printf.bprintf b "%d," q
  done;
  Buffer.add_char b '|';
  for ql = -1 to n - 1 do
    for qr = -1 to n - 1 do
      for l = 0 to nl - 1 do
        Printf.bprintf b "%d," (Dta.delta d ql qr l)
      done
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let extra_tags = List.init 4 (Printf.sprintf "x%d")

(* The E8 formula suite, over {a, b} and over {a, b} plus [extra_tags]. *)
let e8_digests =
  [
    ( "a(x)", [ "x" ],
      "affefd82543a0f8d9507bc61e13733be", "6636740fcdbdeb25f881ac78b88a3585" );
    ( "S1(x,y)", [ "x"; "y" ],
      "7ec3e9962011539f1a3886fb4eba6c22", "fc75719a022195a915e4bd18e565cffa" );
    ( "Leq(x,y)", [ "x"; "y" ],
      "7bf5c9bbff6d45e5747bc6b5c878a198", "cc547d5a307b66366e59ca0a71264d69" );
    ( "exists y. S1(x,y)", [ "x" ],
      "937cab5f83f86ad66df9426bc0923cca", "6d8e1b111f6924c96eeb52d6030804c3" );
    ( "forall y. (Leq(y,x) -> y = x)", [ "x" ],
      "8d4ec50c3d2d647b204e38ff8a1b8047", "3ef62affa7a6eb7a90e47ae1c13d2594" );
    ( "~(exists y. (S1(x,y) | S2(x,y)))", [ "x" ],
      "75ad38fa6ab53c8d62ba78a7e2400896", "39840fdb5163f94c424a9843cf0ece19" );
    ( "exists z. ((S1(x,z) | S2(x,z)) & (S1(z,y) | S2(z,y)))", [ "x"; "y" ],
      "99ec44ade8a7708acc5fb9082717e7e1", "dcdb803fa75560a4aec7a725583ad2fe" );
    ( "forallS X. ((x in X & forall u. forall v. ((u in X & (S1(u,v) | \
       S2(u,v))) -> v in X)) -> y in X)",
      [ "x"; "y" ],
      "95a0e239d8f1d06970492717e1318196", "7b2010aafee4e545c313812d6e7e4b74" );
    ( "Child(x,y)", [ "x"; "y" ],
      "2ddae6b390c58b96723378e89220b09a", "4eff7f39d94fba16db3dbe7f9f2666d5" );
    ( "Desc(x,y)", [ "x"; "y" ],
      "8ae9a89991a761e61b2993f85fe80d01", "bfa31bbeb5cb7442ebbe2118f8b4e5ab" );
  ]

let test_e8_digests () =
  List.iter
    (fun (text, free, plain, extended) ->
      let phi = Parser.mso_of_string text in
      List.iter
        (fun (base, want) ->
          let c = Mso_compile.compile ~base:(Array.of_list base) ~free phi in
          check string
            (Printf.sprintf "%s over %d letters" text (List.length base))
            want (dta_digest c.Mso_compile.auto))
        [ ([ "a"; "b" ], plain); ([ "a"; "b" ] @ extra_tags, extended) ])
    e8_digests

(* The reachable-only product equals the full pairing construction,
   tabulated naively, followed by [reduce] — entry for entry, numbering
   included. *)
let naive_product a b ~final =
  let na = Dta.nstates a and nb = Dta.nstates b in
  let split q = if q < 0 then (-1, -1) else (q / nb, q mod nb) in
  Dta.reduce
    (Dta.make ~nstates:(na * nb) ~nlabels:(Dta.nlabels a)
       ~final:(fun q -> final (Dta.is_final a (q / nb)) (Dta.is_final b (q mod nb)))
       (fun ql qr l ->
         let qla, qlb = split ql and qra, qrb = split qr in
         (Dta.delta a qla qra l * nb) + Dta.delta b qlb qrb l))

let prop_product_is_naive_product =
  QCheck.Test.make ~count:60 ~name:"product = reduce (naive full product)"
    dta_gen
    (fun seed ->
      let g = Prng.create seed in
      let nlabels = 1 + Prng.int g 4 in
      (* Targets drawn from a prefix of the states leave some unreachable. *)
      let sparse_dta () =
        let nstates = 1 + Prng.int g 6 in
        let range = if Prng.bool g then nstates else 1 + Prng.int g nstates in
        let table =
          Array.init ((nstates + 1) * (nstates + 1) * nlabels) (fun _ ->
              Prng.int g range)
        in
        let finals = Array.init nstates (fun _ -> Prng.bool g) in
        Dta.make ~nstates ~nlabels ~final:(Array.get finals) (fun ql qr l ->
            table.((((ql + 1) * (nstates + 1)) + (qr + 1)) * nlabels + l))
      in
      let a = sparse_dta () and b = sparse_dta () in
      List.for_all
        (fun final ->
          dta_digest (Dta.product a b ~final)
          = dta_digest (naive_product a b ~final))
        [ ( && ); ( || ); ( <> ) ])

(* Projection then determinization is existential quantification over the
   projected bit: brute force over every set of nodes that could carry
   it. *)
let prop_determinize_project_is_exists =
  QCheck.Test.make ~count:40 ~name:"determinize (project d) = exists a bit set"
    dta_gen
    (fun seed ->
      let g = Prng.create seed in
      let bits = 1 + Prng.int g 2 in
      let alpha = Alphabet.make ~base_size:2 ~bits in
      let small = Alphabet.make ~base_size:2 ~bits:(bits - 1) in
      let d =
        random_dta g ~nstates:(2 + Prng.int g 4) ~nlabels:(Alphabet.size alpha)
      in
      let bit = Prng.int g bits in
      let det = Nta.determinize (Nta.project d ~alpha ~bit) in
      let names = List.init (Alphabet.size small) (Printf.sprintf "l%d") in
      List.for_all
        (fun _ ->
          let tree =
            Trees_gen.random_tree g ~alphabet:names ~size:(1 + Prng.int g 8)
          in
          let n = Btree.size tree in
          let some_set =
            List.exists
              (fun set ->
                Dta.accepts d tree ~label_of:(fun v ->
                    Alphabet.insert_bit small bit
                      ((set lsr v) land 1 = 1)
                      (Btree.label tree v)))
              (List.init (1 lsl n) Fun.id)
          in
          Dta.accepts det tree ~label_of:(Btree.label tree) = some_set)
        (List.init 8 Fun.id))

(* The O(n*m) context-acceptance result_set must agree with per-candidate
   automaton runs. *)
let prop_result_set_fast_agrees =
  QCheck.Test.make ~count:30 ~name:"fast result_set = per-candidate runs"
    QCheck.(int_range 1 60)
    (fun seed ->
      let g = Prng.create (900 + seed) in
      let tree =
        Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:(2 + Prng.int g 25)
      in
      let phi = Parser.mso_of_string "Leq(x,y) & a(y)" in
      let compiled =
        Mso_compile.compile ~base:[| "a"; "b" |] ~free:[ "x"; "y" ] phi
      in
      let q = Tree_query.of_compiled compiled ~params:[ "x" ] ~results:[ "y" ] in
      let n = Btree.size tree in
      List.for_all
        (fun x ->
          let fast = Tree_query.result_set q tree (Tuple.singleton x) in
          List.for_all
            (fun y ->
              Tuple.Set.mem (Tuple.singleton y) fast
              = Tree_query.member q tree (Tuple.singleton x) (Tuple.singleton y))
            (List.init n Fun.id))
        (List.init n Fun.id))

let suite =
  [
    ("btree shape", `Quick, test_btree_shape);
    ("btree order/lca", `Quick, test_btree_order);
    ("btree traversals", `Quick, test_btree_traversals);
    ("btree to structure", `Quick, test_btree_to_structure);
    ("dta run", `Quick, test_dta_run);
    ("dta boolean ops", `Quick, test_dta_boolean_ops);
    ("dta emptiness", `Quick, test_dta_empty);
    ("dta reduce/minimize", `Quick, test_dta_reduce_minimize);
    ("dta run with hole", `Quick, test_run_with_hole);
    ("nta determinize", `Quick, test_nta_determinize_preserves);
    ("mso: label atom", `Quick, test_mso_label);
    ("mso: S1", `Quick, test_mso_s1);
    ("mso: S2", `Quick, test_mso_s2);
    ("mso: Leq", `Quick, test_mso_leq);
    ("mso: equality", `Quick, test_mso_eq);
    ("mso: unranked Child", `Quick, test_mso_child);
    ("mso: unranked Desc", `Quick, test_mso_desc);
    ("mso: Child/Desc = their definitions", `Quick, test_mso_unranked_definitions);
    ("mso: negation", `Quick, test_mso_not);
    ("mso: exists", `Quick, test_mso_exists);
    ("mso: sentence", `Quick, test_mso_sentence);
    ("mso: root definition", `Quick, test_mso_root);
    ("mso: leaf definition", `Quick, test_mso_leaf);
    ("mso: set quantifier closure", `Slow, test_mso_set_quantifier);
    ("mso: Leq definability", `Slow, test_mso_leq_definability);
    ("tree query basics", `Quick, test_tree_query_basics);
    ("E8 automata are bit-identical", `Quick, test_e8_digests);
    QCheck_alcotest.to_alcotest prop_determinize_agrees;
    QCheck_alcotest.to_alcotest prop_result_set_fast_agrees;
    QCheck_alcotest.to_alcotest prop_product_is_intersection;
    QCheck_alcotest.to_alcotest prop_complement_is_negation;
    QCheck_alcotest.to_alcotest prop_minimize_preserves_language;
    QCheck_alcotest.to_alcotest prop_de_morgan_automata;
    QCheck_alcotest.to_alcotest prop_determinize_of_dta_is_identity_language;
    QCheck_alcotest.to_alcotest prop_product_is_naive_product;
    QCheck_alcotest.to_alcotest prop_determinize_project_is_exists;
  ]
