(* Oracles for the carrier readers (DESIGN.md 5.13 and the detection
   section): every weights-based reader classifies carriers straight
   from the suspect's weights at the pair endpoints, and must agree with
   the map- and server-based reads it replaced; tracing looks p-values up
   from one tail per distinct agreement count, and must agree with the
   per-candidate computation float for float. *)

open Wm_watermark
open Wm_workload

let check = Alcotest.check
let bool = Alcotest.bool

(* --- reference readers ------------------------------------------------ *)

(* The paper's server model, written out: ask every parameter, rebuild
   the observed weights, decode bit i as the sign of pair i's difference
   (an unobserved endpoint reads delta 0). *)
let server_decode qs pairs ~original ~suspect ~length =
  let observed =
    Query_system.reconstruct qs (Query_system.server qs suspect)
  in
  let delta b =
    match Tuple.Map.find_opt b observed with
    | Some v -> v - Weighted.get original b
    | None -> 0
  in
  let message = Bitvec.create length in
  List.iteri
    (fun i { Pairing.fst; snd } ->
      if i < length then Bitvec.set message i (delta fst - delta snd > 0))
    pairs;
  message

(* Per-bit agreement of one codeword with the decided bits. *)
let reference_score t decoded rid =
  let cw = Fingerprint.codeword t rid in
  let agree = ref 0 and trials = ref 0 in
  Array.iteri
    (fun i -> function
      | Some b ->
          incr trials;
          if b = Bitvec.get cw i then incr agree
      | None -> ())
    decoded;
  (!agree, !trials)

let endpoints_active active pairs =
  List.for_all
    (fun { Pairing.fst; snd } ->
      Tuple.Set.mem fst active && Tuple.Set.mem snd active)
    pairs

(* The three suspects of the scheme oracles: the clean marked copy, the
   copy under +-2 noise, and the copy with a second marking (another
   message, i.e. another recipient's copy) spliced in tuple by tuple. *)
let suspects g ~active ~mark w =
  let marked = mark 1 in
  [
    ("clean", marked);
    ( "noise",
      Adversary.apply g (Adversary.Uniform_noise { amplitude = 2 }) ~active
        marked );
    ( "spliced",
      Adversary.apply_collusion g Adversary.Coalition_mix ~active
        [| marked; mark 2 |] );
    ("original", w);
  ]

let adjacency = Parser.query_of_string ~params:[ "u" ] ~results:[ "v" ] "E(u,v)"

let two_away =
  Parser.query_of_string ~params:[ "u" ] ~results:[ "v" ]
    "exists w. E(u,w) & E(w,v)"

(* --- schemes: direct read == server-model read ------------------------ *)

let prop_local_detect_weights =
  QCheck.Test.make ~count:20
    ~name:"local scheme: detect_weights == detect over an honest server"
    QCheck.(pair (int_range 1 10_000) (int_range 20 120))
    (fun (seed, n) ->
      let g = Prng.create seed in
      let ws = Random_struct.graph g ~n ~max_degree:3 ~edges:(3 * n / 2) in
      match
        Local_scheme.prepare
          ~options:{ Local_scheme.default_options with rho = Some 1; seed }
          ws adjacency
      with
      | Error _ -> QCheck.assume_fail ()
      | Ok scheme ->
          let w = ws.Weighted.weights in
          let qs = Local_scheme.query_system scheme in
          let pairs = Local_scheme.pairs scheme in
          let cap = Local_scheme.capacity scheme in
          let mark s =
            Local_scheme.mark scheme (Codec.random (Prng.create (seed + s)) cap) w
          in
          endpoints_active (Query_system.active_set qs) pairs
          && List.for_all
               (fun (_, suspect) ->
                 let length = 1 + Prng.int g cap in
                 let direct =
                   Local_scheme.detect_weights scheme ~original:w ~suspect ~length
                 in
                 Bitvec.equal direct
                   (Local_scheme.detect scheme ~original:w
                      ~server:(Query_system.server qs suspect) ~length)
                 && Bitvec.equal direct
                      (server_decode qs pairs ~original:w ~suspect ~length))
               (suspects g ~active:(Query_system.active qs) ~mark w))

let child_query () =
  let phi = Parser.mso_of_string "S1(x,y) | S2(x,y)" in
  let compiled =
    Wm_trees.Mso_compile.compile ~base:[| "a"; "b" |] ~free:[ "x"; "y" ] phi
  in
  Wm_trees.Tree_query.of_compiled compiled ~params:[ "x" ] ~results:[ "y" ]

let prop_tree_detect_weights =
  QCheck.Test.make ~count:8
    ~name:"tree scheme: detect_weights == detect over an honest server"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let g = Prng.create seed in
      let tree =
        Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:(80 + Prng.int g 60)
      in
      match Tree_scheme.prepare tree (child_query ()) with
      | Error _ -> QCheck.assume_fail ()
      | Ok scheme ->
          let w = Trees_gen.random_weights g tree ~lo:5 ~hi:50 in
          let qs = Tree_scheme.query_system scheme in
          let pairs = Tree_scheme.pairs scheme in
          let cap = Tree_scheme.capacity scheme in
          let mark s =
            Tree_scheme.mark scheme (Codec.random (Prng.create (seed + s)) cap) w
          in
          endpoints_active (Query_system.active_set qs) pairs
          && List.for_all
               (fun (_, suspect) ->
                 let length = 1 + Prng.int g cap in
                 let direct =
                   Tree_scheme.detect_weights scheme ~original:w ~suspect ~length
                 in
                 Bitvec.equal direct
                   (Tree_scheme.detect scheme ~original:w
                      ~server:(Query_system.server qs suspect) ~length)
                 && Bitvec.equal direct
                      (server_decode qs pairs ~original:w ~suspect ~length))
               (suspects g ~active:(Query_system.active qs) ~mark w))

(* The multi-query server: every registered query is asked, parameters
   tagged by query index (the scheme's own disjoint union). *)
let combined g queries =
  let systems = List.map (Query_system.of_relational g) queries in
  let arr = Array.of_list systems in
  let tag i a = Tuple.concat (Tuple.singleton i) a in
  ( Query_system.of_custom
      ~params:
        (List.concat
           (List.mapi
              (fun i qs -> List.map (tag i) (Query_system.params qs))
              systems))
      ~result_set:(fun tagged ->
        Query_system.result_set arr.(tagged.(0))
          (Array.sub tagged 1 (Array.length tagged - 1)))
      ~weight_arity:1,
    List.fold_left
      (fun acc qs -> Tuple.Set.union acc (Query_system.active_set qs))
      Tuple.Set.empty systems )

let prop_multi_detect_weights =
  QCheck.Test.make ~count:10
    ~name:"multi scheme: detect_weights == server-model read"
    QCheck.(pair (int_range 1 10_000) (int_range 30 90))
    (fun (seed, n) ->
      let g = Prng.create seed in
      let ws = Random_struct.regular_rings g ~n in
      let queries = [ adjacency; two_away ] in
      match
        Multi_scheme.prepare
          ~options:{ Local_scheme.default_options with rho = Some 2; seed }
          ws queries
      with
      | Error _ -> QCheck.assume_fail ()
      | Ok scheme ->
          let w = ws.Weighted.weights in
          let qs, active = combined ws.Weighted.graph queries in
          let pairs = Multi_scheme.pairs scheme in
          let cap = Multi_scheme.capacity scheme in
          let mark s =
            Multi_scheme.mark scheme (Codec.random (Prng.create (seed + s)) cap) w
          in
          endpoints_active active pairs
          && List.for_all
               (fun (_, suspect) ->
                 let length = 1 + Prng.int g cap in
                 Bitvec.equal
                   (Multi_scheme.detect_weights scheme ~original:w ~suspect ~length)
                   (server_decode qs pairs ~original:w ~suspect ~length))
               (suspects g ~active:(Tuple.Set.elements active) ~mark w))

(* --- fingerprints: the direct read and table-driven tracing ----------- *)

let identity_query = Parser.query_of_string ~params:[ "u" ] ~results:[ "v" ] "u = v"

let identity_scheme ~seed ~n =
  let ws = Random_struct.regular_rings (Prng.create seed) ~n in
  let qs =
    Query_system.of_custom
      ~params:(List.init (Structure.size ws.Weighted.graph) Tuple.singleton)
      ~result_set:(fun p -> Tuple.Set.singleton p)
      ~weight_arity:1
  in
  match Local_scheme.prepare ~qs ws identity_query with
  | Error e -> failwith ("prepare: " ^ e)
  | Ok scheme -> (scheme, ws.Weighted.weights)

let fingerprint ?length ?times ~master scheme =
  match Fingerprint.of_local ?length ?times ~master scheme with
  | Error e -> failwith ("fingerprint: " ^ e)
  | Ok t -> t

let first n l = List.filteri (fun i _ -> i < n) l

let prop_read_matches_classify =
  QCheck.Test.make ~count:20
    ~name:"Fingerprint.read == classify_carrier over the endpoint map"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let g = Prng.create seed in
      let scheme, w = identity_scheme ~seed ~n:(200 + Prng.int g 200) in
      let t = fingerprint ~master:seed scheme in
      let pairs =
        first (Fingerprint.length t * Fingerprint.times t) (Local_scheme.pairs scheme)
      in
      let active = Query_system.active (Local_scheme.query_system scheme) in
      let copy = Fingerprint.mark_for t "a" w in
      List.for_all
        (fun suspect ->
          let observed =
            List.fold_left
              (fun acc { Pairing.fst; snd } ->
                Tuple.Map.add fst (Weighted.get suspect fst)
                  (Tuple.Map.add snd (Weighted.get suspect snd) acc))
              Tuple.Map.empty pairs
          in
          Fingerprint.read t ~original:w ~suspect
          = Array.of_list
              (List.map (Detector.classify_carrier ~original:w ~observed) pairs))
        [
          copy;
          Adversary.apply g (Adversary.Uniform_noise { amplitude = 2 }) ~active copy;
          Adversary.apply_collusion g Adversary.Coalition_interleave ~active
            [| copy; Fingerprint.mark_for t "b" w |];
          w;
        ])

(* A suspect whose decoded bits are exactly [decoded]: with one
   repetition, bit i is carrier i, oriented for [Some b] and left silent
   for [None]. *)
let suspect_of_decoded pairs w decoded =
  Weighted.apply_marks w
    (List.concat
       (List.mapi
          (fun i { Pairing.fst; snd } ->
            match decoded.(i) with
            | Some true -> [ (fst, 1); (snd, -1) ]
            | Some false -> [ (fst, -1); (snd, 1) ]
            | None -> [])
          pairs))

let prop_trace_matches_reference =
  QCheck.Test.make ~count:40
    ~name:"trace scores == per-candidate score + binomial_tail"
    QCheck.(pair (int_range 1 10_000) (int_range 0 2))
    (fun (seed, mode) ->
      let g = Prng.create seed in
      let scheme, w = identity_scheme ~seed:(1 + (seed mod 7)) ~n:400 in
      let length = 1 + Prng.int g (min 64 (Local_scheme.capacity scheme)) in
      let t = fingerprint ~length ~times:1 ~master:seed scheme in
      let decoded =
        Array.init length (fun _ ->
            match mode with
            | 0 -> None (* nothing decided *)
            | 1 -> Some (Prng.bool g) (* everything decided *)
            | _ -> if Prng.int g 3 = 0 then None else Some (Prng.bool g))
      in
      let suspect =
        suspect_of_decoded (first length (Local_scheme.pairs scheme)) w decoded
      in
      let candidates =
        List.init (1 + Prng.int g 300) (fun _ -> "c" ^ string_of_int (Prng.int g 500))
      in
      let alpha = if Prng.bool g then 0.01 else 1e-6 in
      let rep = Fingerprint.trace ~alpha t ~original:w ~suspect candidates in
      Fingerprint.decode t (Fingerprint.read t ~original:w ~suspect) = decoded
      && List.map (fun (s : Fingerprint.score) -> s.rid) rep.scores = candidates
      && List.for_all
           (fun (s : Fingerprint.score) ->
             let agreements, trials = reference_score t decoded s.rid in
             let pvalue = Detector.binomial_tail ~trials ~successes:agreements in
             Fingerprint.score t decoded s.rid = (agreements, trials)
             && s.agreements = agreements && s.trials = trials
             && rep.decided = trials
             && Float.equal s.pvalue pvalue
             && s.accused = (pvalue <= rep.threshold))
           rep.scores)

(* --- the Sidak threshold at tiny alpha -------------------------------- *)

let test_sidak_tiny_alpha () =
  let s = Detector.sidak ~alpha:1e-10 ~tests:10_000_000 in
  let approx = 1e-10 /. 1e7 in
  check bool "alpha 1e-10 over 10^7 tests is positive" true (s > 0.);
  check bool "within 1e-9 relative of alpha / n" true
    (Float.abs (s -. approx) /. approx < 1e-9);
  check bool "alpha 1e-30 over 1000 tests is positive" true
    (Detector.sidak ~alpha:1e-30 ~tests:1000 > 0.);
  check bool "alpha 1 stays 1" true (Detector.sidak ~alpha:1. ~tests:1000 = 1.)

let test_trace_tiny_alpha () =
  let scheme, w = identity_scheme ~seed:11 ~n:900 in
  let t = fingerprint ~length:128 ~master:0xBEEF scheme in
  let planted = Fingerprint.mark_for t "r421" w in
  let rep =
    Fingerprint.trace ~alpha:1e-30 t ~original:w ~suspect:planted
      (List.init 1000 (fun i -> "r" ^ string_of_int i))
  in
  check bool "threshold positive" true (rep.threshold > 0.);
  check (Alcotest.list Alcotest.string) "planted recipient accused" [ "r421" ]
    rep.accused

let suite =
  [
    QCheck_alcotest.to_alcotest prop_local_detect_weights;
    QCheck_alcotest.to_alcotest prop_tree_detect_weights;
    QCheck_alcotest.to_alcotest prop_multi_detect_weights;
    QCheck_alcotest.to_alcotest prop_read_matches_classify;
    QCheck_alcotest.to_alcotest prop_trace_matches_reference;
    ("sidak at tiny alpha", `Quick, test_sidak_tiny_alpha);
    ("trace at alpha 1e-30", `Quick, test_trace_tiny_alpha);
  ]
