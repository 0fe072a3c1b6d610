(* The compiled FO evaluator (DESIGN.md 5.15) against the reference
   interpreter (Eval_ref): random formulas of quantifier rank <= 3 over
   random structures of at most 8 elements, then the repository's named
   queries on random instances.  Binders reuse a four-name pool, so
   shadowing and repeated atom variables come up constantly. *)

open Wm_workload

let check = Alcotest.check
let bool = Alcotest.bool

let schema =
  Schema.make
    [
      { Schema.name = "E"; arity = 2 };
      { Schema.name = "P"; arity = 1 };
      { Schema.name = "T"; arity = 3 };
    ]

let names = [| "x"; "y"; "z"; "u" |]

let random_structure g =
  let n = Prng.int g 9 in
  let s = ref (Structure.create schema n) in
  if n > 0 then
    List.iter
      (fun (r, arity, count) ->
        for _ = 1 to count do
          s := Structure.add_tuple !s r (Array.init arity (fun _ -> Prng.int g n))
        done)
      [ ("E", 2, Prng.int g (3 * n)); ("P", 1, Prng.int g n); ("T", 3, Prng.int g (2 * n)) ];
  !s

let formula_gen =
  let open QCheck.Gen in
  let var = oneofa names in
  let atom =
    frequency
      [
        (3, map2 (fun a b -> Fo.atom "E" [ a; b ]) var var);
        (2, map (fun a -> Fo.atom "P" [ a ]) var);
        (2, map3 (fun a b c -> Fo.atom "T" [ a; b; c ]) var var var);
        (2, map2 Fo.eq var var);
        (1, oneofl [ Fo.True; Fo.False ]);
      ]
  in
  let rec go rank size =
    if size <= 0 then atom
    else
      let sub = go rank (size / 2) in
      let inner = go (rank - 1) (size - 1) in
      frequency
        ([
           (2, atom);
           (1, map Fo.neg (go rank (size - 1)));
           (2, map2 (fun a b -> Fo.And (a, b)) sub sub);
           (2, map2 (fun a b -> Fo.Or (a, b)) sub sub);
           (1, map2 (fun a b -> Fo.Implies (a, b)) sub sub);
         ]
        @
        if rank = 0 then []
        else
          [
            (2, map2 (fun x a -> Fo.Exists (x, a)) var inner);
            (1, map2 (fun x a -> Fo.Forall (x, a)) var inner);
            (* guarded shapes: a binder whose body leads with an atom on it *)
            ( 2,
              map3
                (fun x y a -> Fo.Exists (x, Fo.And (Fo.atom "E" [ y; x ], a)))
                var var inner );
            ( 1,
              map3
                (fun x y a -> Fo.Forall (x, Fo.Implies (Fo.atom "E" [ x; y ], a)))
                var var inner );
          ])
  in
  int_range 0 10 >>= go 3

(* A case: a structure seed and a formula. *)
let arbitrary_case =
  QCheck.make
    QCheck.Gen.(pair (int_range 0 1_000_000) formula_gen)
    ~print:(fun (seed, phi) -> Printf.sprintf "seed=%d %s" seed (Fo.to_string phi))

(* Binds every name (some twice, so later bindings shadow), the same way
   in both evaluators' environments. *)
let random_bindings g n =
  let once = Array.to_list (Array.map (fun x -> (x, Prng.int g n)) names) in
  once @ List.filter_map (fun (x, _) -> if Prng.bool g then Some (x, Prng.int g n) else None) once

let envs bindings =
  ( List.fold_left (fun env (x, v) -> Eval.bind env x v) Eval.empty_env bindings,
    List.fold_left (fun env (x, v) -> Eval_ref.Smap.add x v env) Eval_ref.Smap.empty bindings )

let prop_holds =
  QCheck.Test.make ~count:300 ~name:"holds = reference" arbitrary_case
    (fun (seed, phi) ->
      let g = Prng.create seed in
      let s = random_structure g in
      let n = Structure.size s in
      n = 0
      || List.for_all
           (fun _ ->
             let env, env_ref = envs (random_bindings g n) in
             Eval.holds s env phi = Eval_ref.holds s env_ref phi)
           [ 1; 2; 3 ])

let prop_satisfying =
  QCheck.Test.make ~count:300 ~name:"satisfying = reference" arbitrary_case
    (fun (seed, phi) ->
      let g = Prng.create seed in
      let s = random_structure g in
      let n = Structure.size s in
      (* result names may repeat and may shadow bound ones *)
      let vars = List.init (Prng.int g 3) (fun _ -> names.(Prng.int g 4)) in
      let env, env_ref = envs (if n = 0 then [] else random_bindings g n) in
      n = 0
      || Tuple.Set.equal
           (Eval.satisfying s env vars phi)
           (Eval_ref.satisfying s env_ref vars phi))

(* Splits the free variables into up to two parameters and the results. *)
let query_of g phi =
  let free = Fo.free_vars phi in
  let k = min (Prng.int g 3) (List.length free) in
  let params = List.filteri (fun i _ -> i < k) free in
  let results = List.filteri (fun i _ -> i >= k) free in
  let results = if results = [] then [ "w" ] else results in
  Query.make ~params ~results phi

let agrees s q =
  let compiled = Query.result_set s q in
  List.for_all
    (fun a -> Tuple.Set.equal (compiled a) (Eval_ref.result_set s q a))
    (Query.all_params s q)

let prop_result_set =
  QCheck.Test.make ~count:200 ~name:"Query.result_set = reference" arbitrary_case
    (fun (seed, phi) ->
      let g = Prng.create seed in
      let s = random_structure g in
      agrees s (query_of g phi))

(* One compiled closure shared by the pool's domains: each call has its
   own environment, so answers match the sequential reference. *)
let prop_result_set_pool =
  QCheck.Test.make ~count:50 ~name:"compiled result_set across domains"
    arbitrary_case
    (fun (seed, phi) ->
      let g = Prng.create seed in
      let s = random_structure g in
      let q = query_of g phi in
      let params = Array.of_list (Query.all_params s q) in
      let compiled = Query.result_set s q in
      let got = Wm_par.Pool.parallel_map compiled params in
      Array.for_all2
        (fun a w -> Tuple.Set.equal w (Eval_ref.result_set s q a))
        params got)

(* --- named queries ---------------------------------------------------- *)

let two_away =
  Query.make ~params:[ "u" ] ~results:[ "v" ]
    Fo.(exists "w" (atom "E" [ "u"; "w" ] &&& atom "E" [ "w"; "v" ]))

let identity = Parser.query_of_string ~params:[ "u" ] ~results:[ "v" ] "u = v"

let test_named_queries () =
  List.iter
    (fun seed ->
      let g = Prng.create seed in
      let travel =
        (Random_struct.travel g ~travels:(3 + Prng.int g 6) ~transports:(5 + Prng.int g 15))
          .Weighted.graph
      in
      let rings = (Random_struct.regular_rings g ~n:(3 + Prng.int g 30)).Weighted.graph in
      let grid = (Grid.structure ~w:(1 + Prng.int g 5) ~h:(1 + Prng.int g 5)).Weighted.graph in
      let bip, bip_q =
        Bipartite.to_marking_problem (Bipartite.random g ~n:(1 + Prng.int g 5) ~p:0.5)
      in
      List.iter
        (fun (name, s, q) ->
          check bool (Printf.sprintf "%s, seed %d" name seed) true (agrees s q);
          check bool (Printf.sprintf "%s active, seed %d" name seed) true
            (Tuple.Set.equal (Query.active s q)
               (List.fold_left
                  (fun acc a -> Tuple.Set.union acc (Eval_ref.result_set s q a))
                  Tuple.Set.empty (Query.all_params s q))))
        [
          ("travel", travel, Random_struct.travel_query);
          ("grid neighbours", grid, Grid.neighbors_query);
          ("bipartite", bip.Weighted.graph, bip_q);
          ("two_away", rings, two_away);
          ("u = v", rings, identity);
        ])
    [ 1; 2; 3; 4; 5 ]

let test_unknown_relation () =
  let s = (Random_struct.regular_rings (Prng.create 7) ~n:12).Weighted.graph in
  (* never reached: the conjunction fails on [false] first *)
  let dead =
    Query.make ~params:[ "u" ] ~results:[ "v" ]
      Fo.(atom "E" [ "u"; "v" ] ||| (False &&& atom "Nope" [ "u"; "v" ]))
  in
  check bool "dead branch evaluates" true (agrees s dead);
  let live = Fo.atom "Nope" [ "x" ] in
  check bool "reached: Not_found" true
    (match Eval.holds s (Eval.bind Eval.empty_env "x" 0) live with
    | exception Not_found -> true
    | _ -> false)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_holds;
    QCheck_alcotest.to_alcotest prop_satisfying;
    QCheck_alcotest.to_alcotest prop_result_set;
    QCheck_alcotest.to_alcotest prop_result_set_pool;
    Alcotest.test_case "named queries = reference" `Quick test_named_queries;
    Alcotest.test_case "unknown relation in a dead branch" `Quick test_unknown_relation;
  ]
