(* Experiment harness: one table per reproduced artifact of the paper.

     dune exec bench/main.exe            -- all experiments
     dune exec bench/main.exe -- e5 e7   -- a subset
     dune exec bench/main.exe -- --jobs 4 --json BENCH_PR2.json

   Experiments run one after another; --jobs sets the process-wide job
   count their parallel sections use, and --json writes per-experiment
   wall times, recorded scalars and counter deltas to a machine-readable
   trajectory file.

   Experiment ids and the paper artifacts they reproduce are indexed in
   DESIGN.md section 4; paper-vs-measured is recorded in EXPERIMENTS.md. *)

open Qpwm
open Wm_oracles

(* Wall-clock, not CPU time: parallel speedups are invisible to
   [Sys.time], which sums over domains. *)
let secs f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* --- scalar trajectory ------------------------------------------------
   Experiments may record named scalars; --json dumps them next to the
   per-experiment wall time. *)

let scalars : (string, (string * Json.t) list ref) Hashtbl.t = Hashtbl.create 8

let record_scalars ~experiment kvs =
  match Hashtbl.find_opt scalars experiment with
  | Some r -> r := !r @ kvs
  | None -> Hashtbl.add scalars experiment (ref kvs)

(* [with_jobs j f] runs [f] under the process-wide job count [j] and
   restores the previous count afterwards. *)
let with_jobs j f =
  let prev = Par.jobs () in
  Par.set_jobs (Some j);
  Fun.protect ~finally:(fun () -> Par.set_jobs (Some prev)) f

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Embed/detect straight from an explicit pair list (E3/E4 use synthetic
   pair sets outside any prepared scheme). *)
let embed_pairs pairs message w =
  Weighted.apply_marks w (Pairing.orientation_marks pairs message)

let read_pairs pairs ~original ~suspect ~length =
  let message = Bitvec.create length in
  List.iteri
    (fun i { Pairing.fst; snd } ->
      if i < length then begin
        let d t = Weighted.get suspect t - Weighted.get original t in
        Bitvec.set message i (d fst - d snd > 0)
      end)
    pairs;
  message

(* ------------------------------------------------------------------ *)
(* E1 — Figures 1-4: the worked example of Section 3. *)

let e1 () =
  header "E1. Figures 1-4: neighborhood types, classes, pair marking";
  let ws = Paper_examples.figure1 in
  let g = ws.Weighted.graph in
  let q = Paper_examples.figure1_query in
  let qs = Query_system.of_relational g q in
  let name x = Structure.name_of g x in
  let ix = Neighborhood.index g ~rho:1 (Query.all_params g q) in
  Printf.printf "ntp(1, G) = %d (paper: 3)\n" (Neighborhood.ntp ix);
  let canonical = Array.to_list ix.Neighborhood.representatives in
  let pairs = Pairing.s_partition qs ~canonical in
  let t = Texttab.create [ "u"; "type"; "W_u"; "cl(u)"; "distortion" ] in
  let classes = Pairing.classes qs ~canonical in
  let marks =
    Pairing.orientation_marks pairs (Codec.of_int ~bits:(List.length pairs) 1)
  in
  let w' = Weighted.apply_marks ws.Weighted.weights marks in
  Structure.iter_universe
    (fun x ->
      let a = Tuple.singleton x in
      let w_u =
        Query_system.result_set qs a |> Tuple.Set.elements
        |> List.map (fun b -> name b.(0))
        |> String.concat " "
      in
      let cl =
        match List.assoc_opt a classes with
        | Some c -> String.concat "," (List.map string_of_int c)
        | None -> "-"
      in
      Texttab.addf t "%s|%d|%s|%s|%+d" (name x)
        (Neighborhood.type_of ix a)
        w_u cl
        (Query_system.f qs w' a - Query_system.f qs ws.Weighted.weights a))
    g;
  Texttab.print t;
  Printf.printf "pairs: %s; max split = %d (certifies |distortion| <= 1)\n"
    (String.concat ", "
       (List.map
          (fun p ->
            Printf.sprintf "(%s,%s)" (name p.Pairing.fst.(0)) (name p.Pairing.snd.(0)))
          pairs))
    (Pairing.max_split qs pairs)

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 1: #Mark(=1) equals the permanent. *)

let e2 () =
  header "E2. Theorem 1: #Mark on the reduction instance vs the permanent";
  let t =
    Texttab.create
      [ "n"; "edges"; "permanent"; "#Mark(all=1)"; "equal"; "perm ms"; "#Mark ms" ]
  in
  List.iter
    (fun (n, p, seed) ->
      let bg =
        if seed = 0 then Bipartite.complete n
        else Bipartite.random (Prng.create seed) ~n ~p
      in
      let edges =
        Array.fold_left
          (fun acc row -> acc + Array.fold_left (fun a b -> if b then a + 1 else a) 0 row)
          0 bg.Bipartite.adj
      in
      let perm, pt = secs (fun () -> Bipartite.permanent bg) in
      let ws, q = Bipartite.to_marking_problem bg in
      let cnt, ct = secs (fun () -> Capacity.count_matchings ws q) in
      Texttab.addf t "%d|%d|%d|%d|%s|%.2f|%.2f" n edges perm cnt
        (if perm = cnt then "yes" else "NO")
        (pt *. 1000.) (ct *. 1000.))
    [ (2, 0.7, 11); (3, 0.7, 16); (3, 0., 0); (4, 0.7, 17); (4, 0., 0); (5, 0.7, 15); (5, 0.7, 17) ];
  Texttab.print t;
  print_endline
    "The counts agree row by row: counting exact-capacity markings computes\n\
     the permanent, the paper's #P-hardness witness.  #Mark cost grows much\n\
     faster than Ryser's 2^n n — the brute force is only usable on toys."

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 2: impossibility on the fully shattered family. *)

let e3 () =
  header "E3. Theorem 2: on shattered families, distortion = bits";
  let t =
    Texttab.create
      [ "n=|W|"; "VC"; "maximal"; "h (+1 marks)"; "max distortion"; "tw(nxn grid) <=" ]
  in
  List.iter
    (fun n ->
      let ws = Shatter.full n in
      let qs = Query_system.of_relational ws.Weighted.graph Shatter.query in
      let vc =
        if n <= 8 then
          string_of_int
            (Vc.dimension (Query_vc.of_query ws.Weighted.graph Shatter.query).Query_vc.fam)
        else "= n"
      in
      let maximal =
        if n <= 8 then
          if Query_vc.maximal_on ws.Weighted.graph Shatter.query then "yes" else "NO"
        else "yes"
      in
      let g = Prng.create (100 + n) in
      List.iter
        (fun h ->
          if h >= 1 && h <= n then begin
            let marked =
              Prng.sample g h (Array.of_list (Query_system.active qs))
            in
            let marks = Array.to_list (Array.map (fun w -> (w, 1)) marked) in
            let d = Distortion.of_marks qs marks in
            (* A *computed* tree-width upper bound for the n x n grid, from
               an actual validated decomposition (the exact value is
               min(w,h) = n). *)
            let grid = (Grid.structure ~w:n ~h:n).Weighted.graph in
            Texttab.addf t "%d|%s|%s|%d|%d|%d" n vc maximal h d
              (Treewidth.heuristic_width grid)
          end)
        [ 1; n / 2; n ])
    [ 4; 8; 12 ];
  Texttab.print t;
  print_endline
    "Every h same-sign distortions cost exactly h on some query (the\n\
     parameter enumerating the marked subset), so hiding |W|^(1-q eps) bits\n\
     within distortion 1/eps is impossible: no watermarking scheme exists.\n\
     Grids realize the same obstruction for MSO (Theorem 6) while their\n\
     tree-width grows (last column: a validated min-degree decomposition's\n\
     width, an upper bound on the exact value n)."

(* ------------------------------------------------------------------ *)
(* E4 — Remark 1: half-shattered family, n/4 bits at distortion 0. *)

let e4 () =
  header "E4. Remark 1: unbounded VC yet n/4 bits at zero distortion";
  let t =
    Texttab.create
      [ "n=|W|"; "VC"; "pairs"; "max split"; "global distortion"; "detected" ]
  in
  List.iter
    (fun n ->
      let ws = Shatter.half n in
      let qs = Query_system.of_relational ws.Weighted.graph Shatter.query in
      let vc =
        if n <= 12 then
          string_of_int
            (Vc.dimension (Query_vc.of_query ws.Weighted.graph Shatter.query).Query_vc.fam)
        else "n/2"
      in
      let rec pair_up = function
        | a :: b :: rest ->
            { Pairing.fst = Tuple.singleton a; snd = Tuple.singleton b }
            :: pair_up rest
        | _ -> []
      in
      let pairs = pair_up (Shatter.half_free n) in
      let bits = List.length pairs in
      let g = Prng.create n in
      let worst = ref 0 and detected = ref 0 in
      let trials = 64 in
      for _ = 1 to trials do
        let message = Codec.random g bits in
        let marked = embed_pairs pairs message ws.Weighted.weights in
        worst := max !worst (Distortion.global qs ws.Weighted.weights marked);
        if
          Bitvec.equal message
            (read_pairs pairs ~original:ws.Weighted.weights ~suspect:marked
               ~length:bits)
        then incr detected
      done;
      Texttab.addf t "%d|%s|%d|%d|%d|%d/%d" n vc bits
        (Pairing.max_split qs pairs)
        !worst !detected trials)
    [ 8; 12; 16; 20 ];
  Texttab.print t;
  print_endline
    "VC grows with n (unbounded on the class) yet n/4 bits embed with zero\n\
     distortion and perfect detection: maximal VC-dimension, not merely\n\
     unbounded, is what Theorem 2 needs."

(* ------------------------------------------------------------------ *)
(* E5 — Theorem 3: the local scheme on bounded-degree structures. *)

let e5 () =
  header "E5. Theorem 3: capacity and certified distortion on STRUCT_k";
  let q = Paper_examples.figure1_query in
  let t =
    Texttab.create
      [ "|U|"; "|W|"; "ntp"; "eps"; "budget"; "capacity"; "max |dist|";
        "detected"; "prepare ms" ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun epsilon ->
          let ws = Random_struct.regular_rings (Prng.create n) ~n in
          let options =
            { Local_scheme.default_options with rho = Some 1; epsilon }
          in
          let scheme, ms = secs (fun () -> Local_scheme.prepare ~options ws q) in
          match scheme with
          | Error e -> Printf.printf "n=%d eps=%.2f: %s\n" n epsilon e
          | Ok scheme ->
              let r = Local_scheme.report scheme in
              let qs = Local_scheme.query_system scheme in
              let g = Prng.create (n + 1) in
              let cap = Local_scheme.capacity scheme in
              let worst = ref 0 and ok = ref 0 in
              let trials = 10 in
              for _ = 1 to trials do
                let message = Codec.random g cap in
                let marked = Local_scheme.mark scheme message ws.Weighted.weights in
                worst := max !worst (Distortion.global qs ws.Weighted.weights marked);
                if
                  Bitvec.equal message
                    (Local_scheme.detect_weights scheme
                       ~original:ws.Weighted.weights ~suspect:marked ~length:cap)
                then incr ok
              done;
              Texttab.addf t "%d|%d|%d|%.2f|%d|%d|%d|%d/%d|%.1f" n
                r.Local_scheme.active r.Local_scheme.ntp epsilon
                r.Local_scheme.budget cap !worst !ok trials (ms *. 1000.))
        [ 1.0; 0.5; 0.25 ])
    [ 40; 80; 160; 320 ];
  Texttab.print t;
  (* Ablation (DESIGN.md 3.3): the paper's randomized eps-good draw vs the
     greedy admission used by default.  Same certificate, different
     capacity and retry behavior. *)
  let t2 =
    Texttab.create
      [ "|W|"; "selection"; "capacity"; "max split"; "prepare ms" ]
  in
  List.iter
    (fun n ->
      let ws = Random_struct.regular_rings (Prng.create n) ~n in
      List.iter
        (fun (name, selection) ->
          let options =
            { Local_scheme.default_options with rho = Some 1; selection }
          in
          let scheme, ms = secs (fun () -> Local_scheme.prepare ~options ws q) in
          match scheme with
          | Error e -> Texttab.addf t2 "%d|%s|%s|-|-" n name e
          | Ok scheme ->
              let r = Local_scheme.report scheme in
              Texttab.addf t2 "%d|%s|%d|%d|%.1f" n name
                r.Local_scheme.pairs_selected r.Local_scheme.max_split
                (ms *. 1000.))
        [ ("greedy", `Greedy); ("random x500", `Random 500) ])
    [ 60; 120; 240 ];
  Texttab.print ~title:"ablation: greedy vs the paper's randomized selection" t2;
  print_endline
    "Capacity grows with |W| and with the allowed distortion 1/eps; the\n\
     measured max distortion never exceeds the certified budget, and\n\
     detection is exact in the non-adversarial model — Theorem 3's shape.\n\
     Both selection rules certify the same worst-case split; greedy\n\
     admission dominates the randomized draw's capacity (the draw's p is\n\
     calibrated for the worst-case eta, which is loose on rings)."

(* ------------------------------------------------------------------ *)
(* E6 — Remark 2: |W| = 5000, 1/eps = 40, 8 bits, 64 copies. *)

let e6 () =
  header "E6. Remark 2: |W| = 5000, distortion budget 40, 64 marked copies";
  let n = 5000 in
  let ws = Random_struct.regular_rings (Prng.create 7) ~n in
  let g = ws.Weighted.graph in
  (* Adjacency evaluated through the Gaifman view: semantically identical
     to psi(u,v) = E(u,v) (the FO evaluator equivalence is covered by the
     test suite); this keeps the 5000-element sweep interactive. *)
  let gf = Gaifman.of_structure g in
  let qs =
    Query_system.of_custom
      ~params:(List.init (Structure.size g) Tuple.singleton)
      ~result_set:(fun a ->
        Tuple.Set.of_list (List.map Tuple.singleton (Gaifman.neighbors gf a.(0))))
      ~weight_arity:1
  in
  let epsilon = 1. /. 40. in
  let options = { Local_scheme.default_options with rho = Some 1; epsilon } in
  let scheme, ms =
    secs (fun () ->
        Local_scheme.prepare ~options ~qs ws Paper_examples.figure1_query)
  in
  match scheme with
  | Error e -> print_endline ("prepare failed: " ^ e)
  | Ok scheme ->
      let r = Local_scheme.report scheme in
      Printf.printf
        "|W| = %d, ntp = %d, capacity = %d pairs, budget = %d (prepare %.0f ms)\n"
        r.Local_scheme.active r.Local_scheme.ntp r.Local_scheme.pairs_selected
        r.Local_scheme.budget (ms *. 1000.);
      let bits = 8 in
      Printf.printf
        "paper arithmetic: |W|^(1/4) = %.1f bits -> embed %d bits -> 2^%d = 64 copies\n"
        (float_of_int n ** 0.25) bits bits;
      let copies =
        List.init 64 (fun i ->
            (i, Local_scheme.mark scheme (Codec.of_int ~bits i) ws.Weighted.weights))
      in
      let all_ok =
        List.for_all
          (fun (i, marked) ->
            Codec.to_int
              (Local_scheme.detect_weights scheme ~original:ws.Weighted.weights
                 ~suspect:marked ~length:bits)
            = i)
          copies
      in
      let distinct =
        List.length
          (List.sort_uniq compare
             (List.map (fun (_, m) -> List.map snd (Weighted.bindings m)) copies))
      in
      let worst =
        List.fold_left
          (fun acc (_, m) -> max acc (Distortion.global qs ws.Weighted.weights m))
          0 copies
      in
      Printf.printf
        "64 copies: %d distinct, all identified: %s, worst distortion %d <= 40\n"
        distinct
        (if all_ok then "yes" else "NO")
        worst

(* ------------------------------------------------------------------ *)
(* E7 — Theorem 5: the tree scheme. *)

let tree_queries =
  lazy
    (let mk text =
       let phi = Parser.mso_of_string text in
       let compiled =
         Mso_compile.compile ~base:[| "a"; "b" |] ~free:[ "x"; "y" ] phi
       in
       Tree_query.of_compiled compiled ~params:[ "x" ] ~results:[ "y" ]
     in
     [
       ("child", mk "S1(x,y) | S2(x,y)");
       ("a-descendant", mk "Leq(x,y) & a(y)");
       ("left-child", mk "S1(x,y)");
     ])

let e7 () =
  header "E7. Theorem 5: pairs found vs the |W|/4m prediction";
  let t =
    Texttab.create
      [ "query"; "m"; "size"; "|W|"; "|W|/4m"; "capacity"; "max |dist|";
        "detected"; "prepare ms" ]
  in
  List.iter
    (fun (qname, q) ->
      List.iter
        (fun size ->
          let g = Prng.create (size + 13) in
          let tree = Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size in
          let scheme, ms = secs (fun () -> Tree_scheme.prepare tree q) in
          match scheme with
          | Error e -> Printf.printf "%s size=%d: %s\n" qname size e
          | Ok scheme ->
              let r = Tree_scheme.report scheme in
              let weights = Trees_gen.random_weights g tree ~lo:10 ~hi:99 in
              let qs = Tree_scheme.query_system scheme in
              let cap = Tree_scheme.capacity scheme in
              let worst = ref 0 and ok = ref 0 in
              let trials = 5 in
              for _ = 1 to trials do
                let message = Codec.random g cap in
                let marked = Tree_scheme.mark scheme message weights in
                worst := max !worst (Distortion.global qs weights marked);
                if
                  Bitvec.equal message
                    (Tree_scheme.detect_weights scheme ~original:weights
                       ~suspect:marked ~length:cap)
                then incr ok
              done;
              Texttab.addf t "%s|%d|%d|%d|%d|%d|%d|%d/%d|%.0f" qname
                r.Tree_scheme.states size r.Tree_scheme.active
                r.Tree_scheme.predicted_pairs cap !worst !ok trials (ms *. 1000.))
        [ 150; 300; 600 ])
    (Lazy.force tree_queries);
  Texttab.print t;
  print_endline
    "Capacity tracks the Theta(|W|/m) prediction (the lemma's |W|/4m with\n\
     behavioral pairing finding twins in most blocks), and the per-message\n\
     distortion never exceeds 1 — stronger than the 1/eps budget the\n\
     theorem asks for."

(* ------------------------------------------------------------------ *)
(* E8 — Lemma 2: MSO-to-automaton compilation. *)

let e8 () =
  header "E8. Lemma 2: compiled automata agree with the MSO oracle";
  let formulas =
    [
      ("label", "a(x)", [ "x" ]);
      ("left child", "S1(x,y)", [ "x"; "y" ]);
      ("tree order", "Leq(x,y)", [ "x"; "y" ]);
      ("has left child", "exists y. S1(x,y)", [ "x" ]);
      ("is root", "forall y. (Leq(y,x) -> y = x)", [ "x" ]);
      ("is leaf", "~(exists y. (S1(x,y) | S2(x,y)))", [ "x" ]);
      ( "grandchild",
        "exists z. ((S1(x,z) | S2(x,z)) & (S1(z,y) | S2(z,y)))",
        [ "x"; "y" ] );
      ( "order via sets",
        "forallS X. ((x in X & forall u. forall v. ((u in X & (S1(u,v) | S2(u,v))) -> v in X)) -> y in X)",
        [ "x"; "y" ] );
      ("unranked child", "Child(x,y)", [ "x"; "y" ]);
      ("unranked desc", "Desc(x,y)", [ "x"; "y" ]);
    ]
  in
  let all_agree = ref true in
  let t =
    Texttab.create
      [ "formula"; "free"; "states"; "labels"; "compile ms"; "oracle checks"; "agree" ]
  in
  List.iter
    (fun (name, text, free) ->
      let phi = Parser.mso_of_string text in
      let compiled, ms =
        secs (fun () -> Mso_compile.compile ~base:[| "a"; "b" |] ~free phi)
      in
      let g = Prng.create 77 in
      let checks = ref 0 and agree = ref true in
      for _ = 1 to 6 do
        let size = 1 + Prng.int g 7 in
        let tree = Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size in
        let struct_view = Btree.to_structure tree in
        let rec assignments = function
          | [] -> [ [] ]
          | v :: rest ->
              List.concat_map
                (fun partial -> List.init size (fun node -> (v, node) :: partial))
                (assignments rest)
        in
        List.iter
          (fun elems ->
            incr checks;
            let a = Mso_compile.accepts compiled tree ~elems ~sets:[] in
            let o = Mso.holds struct_view ~elems ~sets:[] phi in
            if a <> o then agree := false)
          (assignments free)
      done;
      if not !agree then all_agree := false;
      Texttab.addf t "%s|%d|%d|%d|%.1f|%d|%s" name (List.length free)
        (Dta.nstates compiled.Mso_compile.auto)
        (Alphabet.size compiled.Mso_compile.alpha)
        (ms *. 1000.) !checks
        (if !agree then "yes" else "NO"))
    formulas;
  Texttab.print t;
  record_scalars ~experiment:"e8" [ ("all_agree", Json.Bool !all_agree) ];
  (* A real pattern as the tag alphabet grows: every table the compiler
     builds has one column per letter of Sigma x {0,1}^K.  "compile
     states" sums the sizes of the partial automata one compile builds
     (trees.compile.states), a deterministic measure of its work. *)
  let doc = Biblio_xml.generate (Prng.create 60) ~articles:60 () in
  let tags = Encode.abstract_alphabet doc in
  let t2 =
    Texttab.create [ "extra tags"; "tags"; "states"; "compile ms"; "compile states" ]
  in
  let compile_states alphabet =
    let was = Obs.enabled () in
    Obs.set_enabled true;
    let since = Obs.snapshot () in
    ignore (Pattern.compile Biblio_xml.pattern ~alphabet);
    let d = Obs.diff ~since (Obs.snapshot ()) in
    Obs.set_enabled was;
    Option.value ~default:0 (List.assoc_opt "trees.compile.states" d.Obs.counters)
  in
  let biblio_states = ref 0 in
  List.iter
    (fun extra ->
      let alphabet = tags @ List.init extra (Printf.sprintf "x%d") in
      let runs =
        List.init 3 (fun _ ->
            secs (fun () -> Pattern.compile Biblio_xml.pattern ~alphabet))
      in
      let ms = 1000. *. List.nth (List.sort compare (List.map snd runs)) 1 in
      let states = compile_states alphabet in
      if extra = 0 then biblio_states := states;
      Texttab.addf t2 "%d|%d|%d|%.1f|%d" extra (List.length alphabet)
        (Dta.nstates (Tree_query.automaton (fst (List.hd runs))))
        ms states;
      record_scalars ~experiment:"e8"
        [ (Printf.sprintf "biblio_compile_ms_extra%d" extra, Json.Float ms) ])
    [ 0; 8; 16 ];
  record_scalars ~experiment:"e8"
    [ ("biblio_compile_states", Json.Int !biblio_states) ];
  Texttab.print
    ~title:
      (Printf.sprintf "Pattern.compile %s, median of 3"
         (Pattern.to_string Biblio_xml.pattern))
    t2;
  Printf.printf
    "Child and descendant steps compile through the Child and Desc atoms:\n\
     one Biblio compile builds %d intermediate states (CI bound 300).\n"
    !biblio_states

(* ------------------------------------------------------------------ *)
(* E9 — Example 4 at scale: XML watermarking. *)

let e9 () =
  header "E9. Example 4: XML school documents";
  let pattern = School_xml.example4_pattern in
  Printf.printf "f(Robert) on the paper's document = %d (paper: 28)\n"
    (Pattern.f_value pattern School_xml.example4 "Robert");
  let t =
    Texttab.create
      [ "students"; "nodes"; "|W|"; "m"; "capacity"; "node dist <= 1";
        "worst value dist"; "detected"; "prepare ms" ]
  in
  List.iter
    (fun students ->
      let doc = School_xml.generate (Prng.create students) ~students () in
      let prepared, ms = secs (fun () -> Pipeline.prepare_xml doc pattern) in
      match prepared with
      | Error e -> Printf.printf "students=%d: %s\n" students e
      | Ok xs ->
          let r = Tree_scheme.report xs.Pipeline.scheme in
          let cap = Tree_scheme.capacity xs.Pipeline.scheme in
          let message = Codec.random (Prng.create (students + 1)) cap in
          let marked = Pipeline.mark_xml xs ~message doc in
          let node_ok =
            List.for_all
              (fun a ->
                let sum d =
                  List.fold_left
                    (fun s v -> s + Option.value ~default:0 (Utree.value_of d v))
                    0 (Pattern.eval_node pattern d a)
                in
                abs (sum marked - sum doc) <= 1)
              (Pattern.structural_params pattern doc)
          in
          let names =
            List.sort_uniq compare
              (List.map (Utree.label doc) (Pattern.structural_params pattern doc))
          in
          let worst_value =
            List.fold_left
              (fun acc n ->
                max acc
                  (abs
                     (Pattern.f_value pattern marked n
                     - Pattern.f_value pattern doc n)))
              0 names
          in
          let decoded =
            Pipeline.detect_xml xs ~original:doc ~suspect:marked ~length:cap
          in
          Texttab.addf t "%d|%d|%d|%d|%d|%s|%d|%s|%.0f" students
            (Utree.size doc) r.Tree_scheme.active r.Tree_scheme.states cap
            (if node_ok then "yes" else "NO")
            worst_value
            (if Bitvec.equal decoded message then "yes" else "NO")
            (ms *. 1000.))
    [ 30; 100; 300 ];
  Texttab.print t;
  (* A second, deeper document family: bibliography//article[author=$a]/
     citations — the descendant axis in anger. *)
  let bpattern = Biblio_xml.pattern in
  let t2 =
    Texttab.create
      [ "articles"; "nodes"; "|W|"; "m"; "capacity"; "node dist <= 1";
        "detected"; "prepare ms" ]
  in
  List.iter
    (fun articles ->
      let doc = Biblio_xml.generate (Prng.create articles) ~articles () in
      let prepared, ms = secs (fun () -> Pipeline.prepare_xml doc bpattern) in
      match prepared with
      | Error e -> Printf.printf "articles=%d: %s\n" articles e
      | Ok xs ->
          let r = Tree_scheme.report xs.Pipeline.scheme in
          let cap = Tree_scheme.capacity xs.Pipeline.scheme in
          let message = Codec.random (Prng.create (articles + 1)) cap in
          let marked = Pipeline.mark_xml xs ~message doc in
          let node_ok =
            List.for_all
              (fun a ->
                let sum d =
                  List.fold_left
                    (fun s v -> s + Option.value ~default:0 (Utree.value_of d v))
                    0 (Pattern.eval_node bpattern d a)
                in
                abs (sum marked - sum doc) <= 1)
              (Pattern.structural_params bpattern doc)
          in
          let decoded =
            Pipeline.detect_xml xs ~original:doc ~suspect:marked ~length:cap
          in
          Texttab.addf t2 "%d|%d|%d|%d|%d|%s|%s|%.0f" articles
            (Utree.size doc) r.Tree_scheme.active r.Tree_scheme.states cap
            (if node_ok then "yes" else "NO")
            (if Bitvec.equal decoded message then "yes" else "NO")
            (ms *. 1000.))
    [ 40; 120 ];
  Texttab.print
    ~title:"bibliography//article[author=$a]/citations (descendant axis)" t2;
  (* Scaling of Pipeline.prepare_xml on the same family: wall time (median
     of 3) and the automaton transitions taken over the document, which
     must grow linearly — the CI guard bounds each doubling's ratio. *)
  let t3 =
    Texttab.create
      [ "articles"; "nodes"; "|W|"; "capacity"; "prepare ms";
        "trees.delta_calls"; "x prev" ]
  in
  let prev = ref None and worst = ref 0. in
  let rows =
    List.map
      (fun articles ->
        let doc = Biblio_xml.generate (Prng.create articles) ~articles () in
        let was = Obs.enabled () in
        Obs.set_enabled true;
        let since = Obs.snapshot () in
        let runs =
          List.init 3 (fun _ -> secs (fun () -> Pipeline.prepare_xml doc bpattern))
        in
        let d = Obs.diff ~since (Obs.snapshot ()) in
        Obs.set_enabled was;
        let calls =
          Option.value ~default:0
            (List.assoc_opt "trees.delta_calls" d.Obs.counters)
          / 3
        in
        let ms =
          1000. *. List.nth (List.sort compare (List.map snd runs)) 1
        in
        let active, cap =
          match fst (List.hd runs) with
          | Ok xs ->
              ( (Tree_scheme.report xs.Pipeline.scheme).Tree_scheme.active,
                Tree_scheme.capacity xs.Pipeline.scheme )
          | Error _ -> (0, 0)
        in
        let ratio =
          match !prev with
          | Some p ->
              let r = float_of_int calls /. float_of_int p in
              worst := Float.max !worst r;
              Printf.sprintf "%.2f" r
          | None -> "-"
        in
        prev := Some calls;
        let nodes = Utree.size doc in
        Texttab.addf t3 "%d|%d|%d|%d|%.1f|%d|%s" articles nodes active cap ms
          calls ratio;
        Json.Obj
          [
            ("articles", Json.Int articles);
            ("nodes", Json.Int nodes);
            ("prepare_ms", Json.Float ms);
            ("delta_calls", Json.Int calls);
          ])
      [ 400; 800; 1600; 3200 ]
  in
  record_scalars ~experiment:"e9" [ ("xml_scaling", Json.List rows) ];
  Texttab.print ~title:"Pipeline.prepare_xml scaling (biblio)" t3;
  Printf.printf
    "Node-level distortion respects the Theorem 5 certificate everywhere;\n\
     value-level distortion (a first name unions its occurrences) stays\n\
     far below the occurrence-count bound.  The nested bibliography family\n\
     exercises the // axis end to end; preparing it takes at most %.2fx the\n\
     transitions per doubling of the document (CI bound 2.2).\n"
    !worst

(* ------------------------------------------------------------------ *)
(* E10 — Fact 1: detection under attack, redundancy sweep. *)

let e10 () =
  header "E10. Fact 1: detection rate vs attacker budget and redundancy";
  let ws = Random_struct.regular_rings (Prng.create 11) ~n:160 in
  let q = Paper_examples.figure1_query in
  let options = { Local_scheme.default_options with rho = Some 1 } in
  match Local_scheme.prepare ~options ws q with
  | Error e -> print_endline e
  | Ok scheme ->
      let base = Robust.of_local scheme in
      let qs = Local_scheme.query_system scheme in
      let active = Query_system.active qs in
      let bits = 4 in
      let trials = 25 in
      let t =
        Texttab.create [ "attack"; "budget d'"; "R=1"; "R=3"; "R=5" ]
      in
      let rate times attack_of seed budget_out =
        if times * bits > base.Robust.capacity then "n/a"
        else begin
          let ok = ref 0 in
          for k = 1 to trials do
            let g = Prng.create (seed + k) in
            let message = Codec.random g bits in
            let marked = Robust.mark base ~times message ws.Weighted.weights in
            let attacked = Adversary.apply g (attack_of ()) ~active marked in
            budget_out := max !budget_out (Distortion.global qs marked attacked);
            let decoded =
              Robust.detect base ~times ~length:bits
                ~original:ws.Weighted.weights
                ~server:(Query_system.server qs attacked)
            in
            if Bitvec.equal decoded message then incr ok
          done;
          Printf.sprintf "%.2f" (float_of_int !ok /. float_of_int trials)
        end
      in
      let row name attack_of seed =
        let budget = ref 0 in
        let r1 = rate 1 attack_of seed budget in
        let r3 = rate 3 attack_of (seed + 1000) budget in
        let r5 = rate 5 attack_of (seed + 2000) budget in
        Texttab.add_row t [ name; string_of_int !budget; r1; r3; r5 ]
      in
      row "none" (fun () -> Adversary.Constant_offset { delta = 0 }) 1;
      row "offset +9" (fun () -> Adversary.Constant_offset { delta = 9 }) 2;
      List.iter
        (fun count ->
          row
            (Printf.sprintf "%d flips +-1" count)
            (fun () -> Adversary.Random_flips { count; amplitude = 1 })
            (10 + count))
        [ 4; 16; 48; 120 ];
      row "uniform noise +-1" (fun () -> Adversary.Uniform_noise { amplitude = 1 }) 3;
      row "uniform noise +-2" (fun () -> Adversary.Uniform_noise { amplitude = 2 }) 4;
      Texttab.print t;
      print_endline
        "Higher redundancy survives bigger budgets; offsets are free for the\n\
         attacker but useless (pair differences cancel them) — the Fact 1\n\
         crossover in action."

(* ------------------------------------------------------------------ *)
(* E11 — Theorems 7-8: incremental updates and auto-collusion. *)

let e11 () =
  header "E11. Incremental updates";
  let ws = Random_struct.regular_rings (Prng.create 5) ~n:100 in
  let q = Paper_examples.figure1_query in
  let options = { Local_scheme.default_options with rho = Some 1 } in
  match Local_scheme.prepare ~options ws q with
  | Error e -> print_endline e
  | Ok scheme ->
      let bits = min 8 (Local_scheme.capacity scheme) in
      let t = Texttab.create [ "scenario"; "outcome" ] in
      let g = Prng.create 17 in
      (* Theorem 7 sweep: random weights-only updates. *)
      let ok = ref 0 in
      let trials = 20 in
      for _ = 1 to trials do
        let message = Codec.random g bits in
        let marked = Local_scheme.mark scheme message ws.Weighted.weights in
        let updated =
          List.fold_left
            (fun w t ->
              if Prng.bernoulli g 0.4 then Weighted.add_delta w t (Prng.int g 100)
              else w)
            ws.Weighted.weights
            (Weighted.support ws.Weighted.weights)
        in
        let propagated =
          Incremental.propagate ~original:ws.Weighted.weights ~marked ~updated
        in
        if
          Bitvec.equal message
            (Local_scheme.detect_weights scheme ~original:updated
               ~suspect:propagated ~length:bits)
        then incr ok
      done;
      Texttab.addf t "weights-only updates (Thm 7)|%d/%d detected" !ok trials;
      (* Theorem 8: type-preservation decisions. *)
      let triangles k =
        Structure.add_pairs
          (Structure.create Schema.graph (3 * k))
          "E"
          (List.concat_map
             (fun c ->
               let b = 3 * c in
               List.concat_map
                 (fun (x, y) -> [ (b + x, b + y); (b + y, b + x) ])
                 [ (0, 1); (1, 2); (2, 0) ])
             (List.init k Fun.id))
      in
      let verdict old_g new_g =
        match
          Incremental.update_decision ~rho:1 ~arity:1 ~old_graph:old_g
            ~new_graph:new_g
        with
        | `Keep_mark -> "keep mark"
        | `Remark_required -> "re-mark required"
      in
      Texttab.addf t "insert a triangle (Thm 8)|%s"
        (verdict (triangles 4) (triangles 6));
      Texttab.addf t "bridge two triangles (Thm 8)|%s"
        (verdict (triangles 4)
           (Structure.add_pairs (triangles 4) "E" [ (0, 3); (3, 0) ]));
      (* Auto-collusion. *)
      let m1 = Codec.random (Prng.create 3) bits in
      let m2 = Codec.random (Prng.create 4) bits in
      let c1 = Local_scheme.mark scheme m1 ws.Weighted.weights in
      let c2 = Local_scheme.mark scheme m2 ws.Weighted.weights in
      let avg = Incremental.average c1 c2 in
      let d1 =
        Codec.hamming m1
          (Local_scheme.detect_weights scheme ~original:ws.Weighted.weights
             ~suspect:avg ~length:bits)
      in
      Texttab.addf t "auto-collusion: average 2 copies|%d/%d bits still read as copy 1"
        (bits - d1) bits;
      Texttab.print t;
      print_endline
        "Weights-only updates never lose the mark; structural updates are\n\
         safe exactly when type-preserving; averaging two versions destroys\n\
         the disagreeing bits (only bits where both copies agree survive)."

(* ------------------------------------------------------------------ *)
(* E12 — the Agrawal-Kiernan comparison. *)

let e12 () =
  header "E12. Query distortion: Agrawal-Kiernan vs the Theorem 3 scheme";
  let ws = Random_struct.travel (Prng.create 21) ~travels:100 ~transports:250 in
  let q = Random_struct.travel_query in
  let qs = Query_system.of_relational ws.Weighted.graph q in
  let stats w =
    let a =
      Array.of_list
        (List.map (fun (_, v) -> float_of_int v) (Weighted.bindings w))
    in
    (Stats.mean a, Stats.stddev a)
  in
  let m0, s0 = stats ws.Weighted.weights in
  let t =
    Texttab.create
      [ "scheme"; "touched"; "mean shift"; "stddev shift"; "max query dist";
        "detected"; "rounding(8)" ]
  in
  List.iter
    (fun (gamma, xi) ->
      let p = { Agrawal_kiernan.key = 0xFEED; gamma; xi } in
      let marked = Agrawal_kiernan.mark p ws.Weighted.weights in
      let m1, s1 = stats marked in
      let attacked =
        Adversary.apply (Prng.create 9)
          (Adversary.Rounding { multiple = 8 })
          ~active:(Weighted.support marked) marked
      in
      Texttab.addf t "AK gamma=%d xi=%d|%d|%.2f|%.2f|%d|%s|%s" gamma xi
        (List.length (Agrawal_kiernan.marked_positions p ws.Weighted.weights))
        (m1 -. m0) (s1 -. s0)
        (Distortion.global qs ws.Weighted.weights marked)
        (if Agrawal_kiernan.is_detected p marked then "yes" else "NO")
        (if Agrawal_kiernan.is_detected p attacked then "survives" else "erased"))
    [ (8, 2); (4, 4); (2, 6) ];
  (let options = { Local_scheme.default_options with rho = Some 1 } in
   match Local_scheme.prepare ~options ws q with
   | Error e -> print_endline e
   | Ok scheme ->
       let cap = Local_scheme.capacity scheme in
       let message = Codec.random (Prng.create 2) cap in
       let marked = Local_scheme.mark scheme message ws.Weighted.weights in
       let m1, s1 = stats marked in
       let attacked =
         Adversary.apply (Prng.create 9)
           (Adversary.Rounding { multiple = 8 })
           ~active:(Query_system.active qs) marked
       in
       let after_attack =
         Local_scheme.detect_weights scheme ~original:ws.Weighted.weights
           ~suspect:attacked ~length:cap
       in
       let survived = cap - Codec.hamming message after_attack in
       Texttab.addf t "Theorem 3 (%d bits)|%d|%.2f|%.2f|%d|%s|%d/%d bits" cap
         (2 * cap) (m1 -. m0) (s1 -. s0)
         (Distortion.global qs ws.Weighted.weights marked)
         (if
            Bitvec.equal message
              (Local_scheme.detect_weights scheme ~original:ws.Weighted.weights
                 ~suspect:marked ~length:cap)
          then "yes"
          else "NO")
         survived cap);
  Texttab.print t;
  print_endline
    "Both preserve global mean/stddev (the only guarantee [1] gives), but\n\
     AK's max parametric-query distortion grows with gamma and xi while the\n\
     Theorem 3 scheme's stays at its certificate of 1.  Low-bit laundering\n\
     (rounding) erases AK; our pair differences partially survive it and\n\
     redundancy (E10) recovers the rest."

(* ------------------------------------------------------------------ *)
(* E13 — ablation: the aggregate swap (note in Section 1).  The sum in f
   can be replaced by mean, min or max without losing the positive
   results. *)

let e13 () =
  header "E13. Aggregate ablation: sum vs mean/min/max under pair marking";
  let q = Paper_examples.figure1_query in
  let t =
    Texttab.create
      [ "|W|"; "bits"; "max sum dist"; "max mean dist"; "max min dist"; "max max dist" ]
  in
  List.iter
    (fun n ->
      let ws = Random_struct.regular_rings (Prng.create n) ~n in
      let options = { Local_scheme.default_options with rho = Some 1 } in
      match Local_scheme.prepare ~options ws q with
      | Error e -> print_endline e
      | Ok scheme ->
          let qs = Local_scheme.query_system scheme in
          let cap = Local_scheme.capacity scheme in
          let g = Prng.create (n * 3) in
          let worst = Array.make 4 0. in
          for _ = 1 to 8 do
            let marked =
              Local_scheme.mark scheme (Codec.random g cap) ws.Weighted.weights
            in
            List.iteri
              (fun i agg ->
                worst.(i) <-
                  Float.max worst.(i)
                    (Distortion.global_agg agg qs ws.Weighted.weights marked))
              [ Distortion.Sum; Distortion.Mean; Distortion.Min; Distortion.Max ]
          done;
          Texttab.addf t "%d|%d|%.2f|%.2f|%.2f|%.2f" n cap worst.(0) worst.(1)
            worst.(2) worst.(3))
    [ 60; 120; 240 ];
  Texttab.print t;
  print_endline
    "All four aggregates stay within the certificate: sums by the split\n\
     argument, means because a contained pair contributes 0 and a split\n\
     pair at most 1/|W_a|, min/max because every weight moves by <= 1."

(* ------------------------------------------------------------------ *)
(* E14 — several registered queries at once. *)

let e14 () =
  header "E14. Multi-query preservation (psi_1, ..., psi_k simultaneously)";
  let adjacency = Paper_examples.figure1_query in
  let two_away =
    Query.make ~params:[ "u" ] ~results:[ "v" ]
      Fo.(exists "w" (atom "E" [ "u"; "w" ] &&& atom "E" [ "w"; "v" ]))
  in
  let t =
    Texttab.create
      [ "|U|"; "queries"; "capacity"; "budget"; "dist q1"; "dist q2"; "detected" ]
  in
  List.iter
    (fun n ->
      let ws = Random_struct.regular_rings (Prng.create (n + 2)) ~n in
      let options = { Local_scheme.default_options with rho = Some 2 } in
      match Multi_scheme.prepare ~options ws [ adjacency; two_away ] with
      | Error e -> Printf.printf "n=%d: %s\n" n e
      | Ok scheme ->
          let r = Multi_scheme.report scheme in
          let cap = Multi_scheme.capacity scheme in
          let g = Prng.create 4 in
          let worst = Array.make 2 0 in
          let ok = ref 0 in
          let trials = 8 in
          for _ = 1 to trials do
            let message = Codec.random g cap in
            let marked = Multi_scheme.mark scheme message ws.Weighted.weights in
            List.iter
              (fun (qi, d) -> worst.(qi) <- max worst.(qi) d)
              (Multi_scheme.distortion scheme ws.Weighted.weights marked);
            if
              Bitvec.equal message
                (Multi_scheme.detect_weights scheme ~original:ws.Weighted.weights
                   ~suspect:marked ~length:cap)
            then incr ok
          done;
          Texttab.addf t "%d|%d|%d|%d|%d|%d|%d/%d" n r.Multi_scheme.queries cap
            r.Multi_scheme.budget worst.(0) worst.(1) !ok trials)
    [ 40; 80; 160; 1280 ];
  Texttab.print t;
  print_endline
    "One pair selection certifies both registered queries at once — the\n\
     paper's 'straightforward by simple projection techniques' extension.";
  (* The query systems behind those rows, built alone: compiled evaluation
     (DESIGN.md 5.15) against the n^(r+s) result tuples brute force
     would try. *)
  let t2 =
    Texttab.create
      [ "|U|"; "query"; "build ms"; "fo.candidates"; "n^(r+s)"; "ratio" ]
  in
  let sizes = [ 40; 80; 160; 1280 ] in
  List.iter
    (fun n ->
      let g = (Random_struct.regular_rings (Prng.create (n + 2)) ~n).Weighted.graph in
      List.iter
        (fun (name, q) ->
          let was = Obs.enabled () in
          Obs.set_enabled true;
          let since = Obs.snapshot () in
          let (), dt =
            secs (fun () ->
                Query_system.precompute (Query_system.of_relational g q))
          in
          let d = Obs.diff ~since (Obs.snapshot ()) in
          Obs.set_enabled was;
          let candidates =
            Option.value ~default:0 (List.assoc_opt "fo.candidates" d.Obs.counters)
          in
          let brute =
            int_of_float
              (float_of_int n
              ** float_of_int (Query.param_arity q + Query.result_arity q))
          in
          let ratio = float_of_int candidates /. float_of_int brute in
          Texttab.addf t2 "%d|%s|%.2f|%d|%d|%.4f" n name (1000. *. dt) candidates
            brute ratio;
          if n = List.fold_left max 0 sizes then
            record_scalars ~experiment:"e14"
              [
                (name ^ "_candidates", Json.Int candidates);
                (name ^ "_brute_force", Json.Int brute);
                (name ^ "_ratio", Json.Float ratio);
              ])
        [ ("adjacency", adjacency); ("two_away", two_away) ])
    sizes;
  record_scalars ~experiment:"e14" [ ("max_n", Json.Int (List.fold_left max 0 sizes)) ];
  Texttab.print ~title:"Query-system build (of_relational + precompute)" t2

(* ------------------------------------------------------------------ *)
(* E15 — detection statistics: confidence, false positives, collusion. *)

let e15 () =
  header "E15. Detection statistics: confidence, false positives, collusion";
  let ws = Random_struct.regular_rings (Prng.create 19) ~n:120 in
  let q = Paper_examples.figure1_query in
  let options = { Local_scheme.default_options with rho = Some 1 } in
  match Local_scheme.prepare ~options ws q with
  | Error e -> print_endline e
  | Ok scheme ->
      let cap = min 12 (Local_scheme.capacity scheme) in
      let g = Prng.create 23 in
      let message = Codec.random g cap in
      let verdict_of suspect =
        Detector.read_weights (Local_scheme.pairs scheme)
          ~original:ws.Weighted.weights ~suspect ~length:cap
      in
      let t =
        Texttab.create
          [ "suspect"; "strong"; "weak"; "silent"; "confidence"; "marked?"; "p(match id)" ]
      in
      let row name suspect =
        let v = verdict_of suspect in
        Texttab.addf t "%s|%d|%d|%d|%.2f|%s|%.2g" name v.Detector.strong
          v.Detector.weak v.Detector.silent v.Detector.confidence
          (if Detector.is_marked v then "yes" else "no")
          (Detector.match_pvalue ~expected:message v)
      in
      row "marked copy" (Local_scheme.mark scheme message ws.Weighted.weights);
      row "original (innocent twin)" ws.Weighted.weights;
      row "innocent with +-1 noise"
        (Adversary.apply (Prng.create 5)
           (Adversary.Uniform_noise { amplitude = 1 })
           ~active:(Query_system.active (Local_scheme.query_system scheme))
           ws.Weighted.weights);
      List.iter
        (fun k ->
          let copies =
            List.init k (fun _ ->
                Local_scheme.mark scheme (Codec.random g cap) ws.Weighted.weights)
          in
          row
            (Printf.sprintf "%d-party collusion (average)" k)
            (Incremental.average_many copies))
        [ 2; 4; 8 ];
      Texttab.print t;
      print_endline
        "A marked copy shows every carrier intact (confidence 1, p ~ 2^-bits);\n\
         innocent servers show silence and no significant match; colluders\n\
         erode the strong-carrier count as k grows — the false-positive side\n\
         of Fact 1's limited-knowledge assumption, quantified."

(* ------------------------------------------------------------------ *)
(* E16 — Theorem 4: bounded clique-width via parse trees. *)

let e16 () =
  header "E16. Theorem 4: watermarking bounded clique-width graphs";
  let t =
    Texttab.create
      [ "graph"; "n"; "max degree"; "cwd <="; "m"; "capacity";
        "graph-query dist"; "detected" ]
  in
  let run ?(distance2 = false) name term labels =
    let tree = Cw_parse.to_tree ~labels term in
    let q =
      if distance2 then Cw_adjacency.distance2_query ~labels
      else Cw_adjacency.query ~labels
    in
    match Tree_scheme.prepare tree q with
    | Error e -> Printf.printf "%s: %s\n" name e
    | Ok scheme ->
        let graph = Cw_term.eval term in
        let gf = Gaifman.of_structure graph in
        let n = Structure.size graph in
        let graph_w =
          Weighted.of_list 1 (List.init n (fun i -> (Tuple.singleton i, 50 + i)))
        in
        let tw = Cw_parse.vertex_weights tree graph_w in
        let cap = Tree_scheme.capacity scheme in
        let g = Prng.create 3 in
        let worst = ref 0 and ok = ref 0 in
        let trials = 5 in
        let f w u =
          List.fold_left
            (fun s v -> s + Weighted.get_elt w v)
            0 (Gaifman.neighbors gf u)
        in
        for _ = 1 to trials do
          let message = Codec.random g cap in
          let marked_tw = Tree_scheme.mark scheme message tw in
          (if distance2 then
             (* graph query = distance-2 neighborhood sums; equal to the
                tree-side view by the tested correspondence *)
             worst :=
               max !worst
                 (Distortion.global (Tree_scheme.query_system scheme) tw marked_tw)
           else begin
             let marked_gw = Cw_parse.weights_to_graph tree marked_tw in
             Structure.iter_universe
               (fun u -> worst := max !worst (abs (f marked_gw u - f graph_w u)))
               graph
           end);
          if
            Bitvec.equal message
              (Tree_scheme.detect_weights scheme ~original:tw ~suspect:marked_tw
                 ~length:cap)
          then incr ok
        done;
        Texttab.addf t "%s|%d|%d|%d|%d|%d|%d|%d/%d" name n
          (Gaifman.max_degree gf) labels
          (Tree_scheme.report scheme).Tree_scheme.states cap !worst !ok trials
  in
  run "clique K40" (Cw_term.clique 40) 2;
  run "clique K80" (Cw_term.clique 80) 2;
  run "path P80" (Cw_term.path 80) 3;
  run "random cwd<=3, 60 v"
    (Cw_term.random (Prng.create 31) ~labels:3 ~vertices:60) 3;
  run "random cwd<=4, 100 v"
    (Cw_term.random (Prng.create 37) ~labels:4 ~vertices:100) 4;
  run ~distance2:true "K60, distance-2 query" (Cw_term.clique 60) 2;
  Texttab.print t;
  print_endline
    "Cliques have unbounded degree (Theorem 3's k blows up with n) but\n\
     clique-width 2: the parse-tree automaton has a size independent of\n\
     degree, and the marked parse-tree weights bound the distortion of the\n\
     *graph* adjacency query by 1 — Theorem 4 end to end."

(* ------------------------------------------------------------------ *)
(* E17 — indirect access on a query budget: how much of the mark a
   detector recovers when it can only afford a fraction of the possible
   queries.  (The paper's detector asks *all* parameters; a practical owner
   probing a pirate web form cannot.) *)

let e17 () =
  header "E17. Detection under a query budget (partial indirect access)";
  let ws = Random_struct.regular_rings (Prng.create 29) ~n:200 in
  let q = Paper_examples.figure1_query in
  match Local_scheme.prepare ws q with
  | Error e -> print_endline e
  | Ok scheme ->
      let qs = Local_scheme.query_system scheme in
      let cap = min 16 (Local_scheme.capacity scheme) in
      let params = Array.of_list (Query_system.params qs) in
      let t =
        Texttab.create
          [ "queries asked"; "fraction"; "carriers seen"; "bits correct"; "full id" ]
      in
      let trials = 20 in
      List.iter
        (fun fraction ->
          let asked = max 1 (int_of_float (fraction *. float_of_int (Array.length params))) in
          let seen = ref 0 and correct = ref 0 and full = ref 0 in
          for k = 1 to trials do
            let g = Prng.create (1000 + k) in
            let message = Codec.random g cap in
            let marked = Local_scheme.mark scheme message ws.Weighted.weights in
            let server = Query_system.server qs marked in
            let subset = Array.to_list (Prng.sample g asked params) in
            let observed = Query_system.reconstruct_some qs server subset in
            let v =
              Detector.read (Local_scheme.pairs scheme)
                ~original:ws.Weighted.weights ~observed ~length:cap
            in
            seen := !seen + v.Detector.strong + v.Detector.weak;
            correct := !correct + (cap - Codec.hamming message v.Detector.decoded);
            if Bitvec.equal message v.Detector.decoded then incr full
          done;
          Texttab.addf t "%d|%.2f|%.1f/%d|%.1f/%d|%d/%d" asked fraction
            (float_of_int !seen /. float_of_int trials)
            cap
            (float_of_int !correct /. float_of_int trials)
            cap !full trials)
        [ 0.02; 0.05; 0.1; 0.25; 0.5; 1.0 ];
      Texttab.print t;
      print_endline
        "Carriers become visible as soon as some asked parameter's result\n\
         set contains them; on rings each element sits in two parameters'\n\
         results, so coverage (hence recovered bits) rises quickly with the\n\
         budget and full identification needs only a modest fraction."

(* ------------------------------------------------------------------ *)
(* E18 — the paper's "note on relative error": marking by relative
   perturbation (w -> w(1 +- eps)) trivially bounds *relative* query
   distortion by eps, but (1) small weights get fragile, often vanishing
   marks, and (2) absolute distortion scales with the weights, which is
   wrong when "error is less tolerable as weights increase". *)

let e18 () =
  header "E18. Relative vs absolute perturbation (the note on relative error)";
  let q = Paper_examples.figure1_query in
  let eps = 0.01 in
  let t =
    Texttab.create
      [ "scheme"; "weights"; "abs global dist"; "local dist";
        "dead pairs"; "bits recovered" ]
  in
  let run label weigh_fn =
    let g = (Random_struct.regular_rings (Prng.create 3) ~n:120).Weighted.graph in
    let ws = Weighted.weigh weigh_fn g in
    let scheme =
      match Local_scheme.prepare ws q with Ok s -> s | Error e -> failwith e
    in
    let qs = Local_scheme.query_system scheme in
    let pairs = Local_scheme.pairs scheme in
    let cap = List.length pairs in
    let message = Codec.random (Prng.create 4) cap in
    (* Relative marking: a bit orients the pair as (x(1+eps), x(1-eps)),
       rounded back to integers — the scheme the note dismisses. *)
    let scale w tup d =
      let v = Weighted.get w tup in
      Weighted.set w tup
        (int_of_float (Float.round (float_of_int v *. (1. +. (d *. eps)))))
    in
    let rel =
      List.fold_left
        (fun (w, i) { Pairing.fst; snd } ->
          let dir = if Bitvec.get message i then 1. else -1. in
          (scale (scale w fst dir) snd (-.dir), i + 1))
        (ws.Weighted.weights, 0) pairs
      |> fst
    in
    let report name marked =
      let dead =
        List.fold_left
          (fun acc { Pairing.fst; snd } ->
            let moved tup =
              Weighted.get marked tup <> Weighted.get ws.Weighted.weights tup
            in
            if moved fst || moved snd then acc else acc + 1)
          0 pairs
      in
      let v =
        Detector.read_weights pairs ~original:ws.Weighted.weights
          ~suspect:marked ~length:cap
      in
      Texttab.addf t "%s|%s|%d|%d|%d/%d|%d/%d" name label
        (Distortion.global qs ws.Weighted.weights marked)
        (Weighted.local_distance ws.Weighted.weights marked)
        dead cap
        (cap - Codec.hamming message v.Detector.decoded)
        cap
    in
    report "relative 1%" rel;
    report "absolute +-1" (Local_scheme.mark scheme message ws.Weighted.weights)
  in
  run "tiny (1..4)" (fun v -> 1 + (v mod 4));
  run "large (~10^4)" (fun v -> 10_000 + v);
  Texttab.print t;
  print_endline
    "Relative marking keeps the *relative* distortion at 1% by fiat, but\n\
     pairs of small weights round back to themselves (no recoverable\n\
     signal), and on large weights the absolute query distortion is two\n\
     orders of magnitude above the +-1 scheme's certificate — both\n\
     objections of the paper's note, measured."

(* ------------------------------------------------------------------ *)
(* E19 — structural attacks and survivable detection.  A redistributor
   who deletes rows, samples a subset, renumbers the universe or prunes
   XML subtrees defeats any detector keyed by element/node id.  The
   survivable detector realigns the surviving carriers (names for rows,
   path signatures for XML value nodes), treats the rest as erasures,
   and conditions its p-value on what survived. *)

let e19 () =
  header "E19. Structural attacks: erasures, realignment, survivability";
  (* Relational: the full deterministic grid of attack_suite. *)
  let ws =
    Random_struct.travel (Prng.create 19) ~travels:100 ~transports:400
  in
  let q = Random_struct.travel_query in
  (match
     Attack_suite.run ~seed:19 ~redundancies:[ 1; 5 ] ~message_bits:4
       ~workload:"travel database (100 travels, 400 transports)" ws q
   with
  | Error e -> print_endline e
  | Ok report -> print_string (Attack_suite.render report));
  (* XML: the same story against subtree deletion and reordering. *)
  let students = 300 in
  let doc = School_xml.generate (Prng.create 20) ~students () in
  let p = School_xml.example4_pattern in
  match Pipeline.prepare_xml doc p with
  | Error e -> print_endline e
  | Ok xs ->
      let scheme = xs.Pipeline.scheme in
      let bits = 4 in
      let base = Robust.of_tree scheme in
      let times = Robust.redundancy_for base ~message_length:bits in
      let message = Codec.of_int ~bits 0b1011 in
      let marked =
        Utree.with_weights doc
          (Robust.mark base ~times message (Utree.weights doc))
      in
      let t =
        Texttab.create
          [ "tree attack"; "erased"; "p-value"; "survivable"; "aligned" ]
      in
      List.iteri
        (fun i attack ->
          let g = Prng.create (100 + i) in
          let suspect = Adversary.apply_tree g attack marked in
          let rv, _ =
            Survivable.detect_tree
              ~pairs:(Tree_scheme.pairs scheme)
              ~times ~length:bits ~original:doc suspect
          in
          let naive =
            match
              Pipeline.detect_xml xs ~original:doc ~suspect ~length:(bits * times)
            with
            | decoded ->
                Bitvec.equal message (Codec.majority_decode ~times decoded)
            | exception _ -> false
          in
          Texttab.addf t "%s|%d/%d|%.2g|%s|%s"
            (Adversary.describe_tree attack)
            rv.Survivable.carriers.Detector.erased (times * bits)
            (Survivable.match_pvalue ~expected:message rv)
            (if Bitvec.equal message rv.Survivable.message then "recovered"
             else "LOST")
            (if naive then "recovered" else "LOST"))
        [
          Adversary.Delete_subtrees { fraction = 0.1 };
          Adversary.Delete_subtrees { fraction = 0.25 };
          Adversary.Reorder_siblings;
          Adversary.Strip_values { fraction = 0.2 };
        ];
      Printf.printf "\nXML (school, %d students): %d bits at redundancy %d\n"
        students bits times;
      Texttab.print t;
      print_endline
        "Deleting rows or subtrees erases carriers instead of flipping\n\
         them: the erasure-aware majority still recovers the message and\n\
         the p-value is computed over survivors only, while the id-keyed\n\
         aligned detector reads garbage as soon as ids shift."

(* ------------------------------------------------------------------ *)
(* E20 — strong scaling of the wm_par pool: the two heaviest parallel
   call sites (neighborhood type indexing, the attack grid) swept over
   job counts, asserting along the way that every job count produces the
   jobs=1 result bit for bit.  Each sweep sets the process-wide job
   count through [with_jobs], so the pool runs exactly that many
   domains once it has grown to the largest count. *)

let e20 () =
  header "E20. Strong scaling: wm_par pool, jobs in {1, 2, 4}";
  let job_counts = [ 1; 2; 4 ] in
  Printf.printf "recommended domains on this machine: %d\n"
    (Domain.recommended_domain_count ());
  let t =
    Texttab.create [ "workload"; "jobs"; "wall s"; "speedup"; "= jobs 1" ]
  in
  let speedups = ref [] in
  let sweep name run equal =
    let baseline = ref None in
    let t1 = ref 1.0 in
    List.iter
      (fun j ->
        let x, dt = secs (fun () -> with_jobs j run) in
        let same =
          match !baseline with
          | None ->
              baseline := Some x;
              t1 := dt;
              true
          | Some b -> equal b x
        in
        Texttab.addf t "%s|%d|%.3f|%.2fx|%s" name j dt (!t1 /. dt)
          (if same then "yes" else "NO");
        if j > 1 then
          speedups :=
            Printf.sprintf "%s %.2fx at jobs %d" name (!t1 /. dt) j
            :: !speedups;
        record_scalars ~experiment:"e20"
          [
            (Printf.sprintf "%s_wall_s_j%d" name j, Json.Float dt);
            (Printf.sprintf "%s_speedup_j%d" name j, Json.Float (!t1 /. dt));
            (Printf.sprintf "%s_identical_j%d" name j, Json.Bool same);
          ];
        if not same then
          failwith (Printf.sprintf "e20: %s at jobs=%d diverged from jobs=1" name j))
      job_counts
  in
  (* Workload A: rho-2 type indexing of a bounded-degree random graph —
     sphere extraction plus in-bucket isomorphism, the Theorem 3
     preprocessing cost. *)
  let wsa = Random_struct.graph (Prng.create 41) ~n:420 ~max_degree:6 ~edges:940 in
  let ga = wsa.Weighted.graph in
  sweep "ntp-index"
    (fun () -> Neighborhood.index_universe ga ~rho:2 ~arity:1)
    (fun (a : Neighborhood.index) b ->
      Tuple.Map.equal ( = ) a.Neighborhood.types b.Neighborhood.types
      && a.Neighborhood.representatives = b.Neighborhood.representatives);
  (* Workload B: the E19 attack grid at redundancy 5, one pool task per
     cell. *)
  let wsb = Random_struct.travel (Prng.create 19) ~travels:100 ~transports:400 in
  sweep "attack-grid"
    (fun () ->
      match
        Attack_suite.run ~seed:19 ~redundancies:[ 5 ] ~message_bits:4
          wsb Random_struct.travel_query
      with
      | Ok r -> r
      | Error e -> failwith ("e20: " ^ e))
    ( = );
  Texttab.print t;
  Printf.printf "pool size after the sweeps: %d runners\n" (Par.pool_size ());
  Printf.printf
    "Every job count reproduces the jobs=1 report exactly (the pool's\n\
     determinism contract).  Measured speedups over jobs 1, on %d\n\
     recommended domains: %s.\n"
    (Domain.recommended_domain_count ())
    (String.concat ", " (List.rev !speedups))

(* ------------------------------------------------------------------ *)
(* E21 — incremental neighborhood-index maintenance: after an edit
   script touching a handful of elements, Neighborhood.reindex recomputes
   spheres only inside the dirty region (Gaifman locality) and splices
   the result into the previous index, bit-identical to a from-scratch
   index_universe.  The point of the experiment is the wall-clock gap on
   the largest bench instance. *)

let e21 () =
  header "E21. Incremental reindex vs full re-index (Gaifman locality)";
  let t =
    Texttab.create
      [ "instance"; "edit script"; "dirty"; "full s"; "incr s"; "speedup"; "identical" ]
  in
  let case ~instance ~g ~rho ~arity ~prev name edits =
    let edited, dirty = Structure.apply_edits g edits in
    let full, t_full = secs (fun () -> Neighborhood.index_universe edited ~rho ~arity) in
    let inc, t_inc = secs (fun () -> Neighborhood.reindex ~old:g edited ~prev ~dirty) in
    let same =
      Tuple.Map.equal ( = ) full.Neighborhood.types inc.Neighborhood.types
      && full.Neighborhood.representatives = inc.Neighborhood.representatives
    in
    let speedup = t_full /. t_inc in
    Texttab.addf t "%s|%s|%d|%.4f|%.4f|%.1fx|%s" instance name
      (List.length dirty) t_full t_inc speedup
      (if same then "yes" else "NO");
    if not same then failwith ("e21: incremental reindex diverged on " ^ name);
    speedup
  in
  (* Main instance: a 40x40 grid — 1600 elements, the largest structure
     the bench types, and the paper's regime (bounded degree, bounded
     type diversity): the dirty sphere is tiny and so is the set of old
     types the incremental path must anchor. *)
  let grid = (Grid.structure ~w:40 ~h:40).Weighted.graph in
  let rho = 2 and arity = 1 in
  let prev, t_prev = secs (fun () -> Neighborhood.index_universe grid ~rho ~arity) in
  Printf.printf
    "grid 40x40: %d elements, rho=%d, ntp=%d (%.3f s full index)\n"
    (Structure.size grid) rho (Neighborhood.ntp prev) t_prev;
  let gcase = case ~instance:"grid 40x40" ~g:grid ~rho ~arity ~prev in
  let mid = Grid.vertex ~h:40 20 20 in
  let single =
    gcase "1 tuple insert"
      [ Structure.Insert_tuple ("H", Tuple.pair mid (Grid.vertex ~h:40 23 23)) ]
  in
  let _ =
    gcase "1 tuple delete"
      [ Structure.Delete_tuple ("H", Tuple.pair mid (Grid.vertex ~h:40 21 20)) ]
  in
  let _ =
    gcase "8-edit script"
      (List.concat
         [
           List.init 4 (fun i ->
               Structure.Insert_tuple
                 ("V", Tuple.pair (Grid.vertex ~h:40 i i) (Grid.vertex ~h:40 (i + 2) i)));
           [ Structure.Add_element None ];
           List.init 3 (fun i ->
               Structure.Insert_tuple ("H", Tuple.pair (Grid.vertex ~h:40 30 i) 1600));
         ])
  in
  (* Contrast row: a random bounded-degree graph where nearly every
     element has its own type (ntp ~ n).  Anchoring one representative
     per surviving old type then costs as much as re-typing everything —
     locality buys nothing when the type count grows with the instance. *)
  let wsr = Random_struct.graph (Prng.create 41) ~n:420 ~max_degree:6 ~edges:940 in
  let gr = wsr.Weighted.graph in
  let prev_r, _ = secs (fun () -> Neighborhood.index_universe gr ~rho ~arity) in
  let _ =
    case ~instance:"random n=420" ~g:gr ~rho ~arity ~prev:prev_r
      "1 tuple insert"
      [ Structure.Insert_tuple ("E", Tuple.pair 17 230) ]
  in
  Texttab.print t;
  record_scalars ~experiment:"e21"
    [
      ("grid_full_index_wall_s", Json.Float t_prev);
      ("grid_ntp", Json.Int (Neighborhood.ntp prev));
      ("single_edit_speedup", Json.Float single);
      ("single_edit_meets_5x", Json.Bool (single >= 5.0));
    ];
  Printf.printf
    "A single-tuple edit dirties O(degree^rho) of the grid's %d elements;\n\
     the incremental path re-types that sphere plus one anchor per old\n\
     type and re-buckets by cached certificate (DESIGN.md 5.7).  The\n\
     acceptance bar is a >=5x speedup on the single-edit rows; the random\n\
     row shows the honest limit when ntp ~ n.\n"
    (Structure.size grid)

(* ------------------------------------------------------------------ *)
(* E22 — observability: what the wm_obs layer costs on the two heaviest
   workloads of E20/E21, and the per-phase breakdown it buys.  Each
   workload is timed best-of-3 with collection off, then best-of-3 with
   collection on; the acceptance bar is overhead below 5% on the E21
   index workload.  The enable flag is process-global; the experiment
   restores it when done. *)

let e22 () =
  header "E22. Observability overhead and per-phase breakdown";
  (* Interleaved off/on pairs, the order flipped every other pair, after
     one untimed warm-up run: host noise then hits both sides alike, and
     the verdict comes from the median of the per-pair overheads. *)
  let pairs = 7 in
  (* Workload A: the E21 full index of the 40x40 grid. *)
  let grid = (Grid.structure ~w:40 ~h:40).Weighted.graph in
  let index () = ignore (Neighborhood.index_universe grid ~rho:2 ~arity:1) in
  (* Workload B: the E20 attack grid at redundancy 5. *)
  let wsb = Random_struct.travel (Prng.create 19) ~travels:100 ~transports:400 in
  let attack () =
    match
      Attack_suite.run ~seed:19 ~redundancies:[ 5 ] ~message_bits:4 wsb
        Random_struct.travel_query
    with
    | Ok _ -> ()
    | Error e -> failwith ("e22: " ^ e)
  in
  let was = Obs.enabled () in
  let t =
    Texttab.create
      [ "workload"; "off s"; "on s"; "overhead"; "q1 .. q3"; "< 5%" ]
  in
  let measure name f =
    let timed enabled =
      Obs.set_enabled enabled;
      snd (secs f)
    in
    ignore (timed false);
    let since = Obs.snapshot () in
    let runs =
      Array.init pairs (fun i ->
          if i mod 2 = 0 then
            let off = timed false in
            (off, timed true)
          else
            let on = timed true in
            (timed false, on))
    in
    let d = Obs.diff ~since (Obs.snapshot ()) in
    let med a = Stats.quantile 0.5 a in
    let off = med (Array.map fst runs) and on = med (Array.map snd runs) in
    let pcts = Array.map (fun (off, on) -> (on -. off) /. off *. 100.) runs in
    let pct = med pcts
    and q1 = Stats.quantile 0.25 pcts
    and q3 = Stats.quantile 0.75 pcts in
    Texttab.addf t "%s|%.3f|%.3f|%+.1f%%|%+.1f .. %+.1f%%|%s" name off on pct
      q1 q3
      (if pct < 5. then "yes" else "NO");
    record_scalars ~experiment:"e22"
      [
        (name ^ "_off_wall_s", Json.Float off);
        (name ^ "_on_wall_s", Json.Float on);
        (name ^ "_overhead_pct", Json.Float pct);
        (name ^ "_overhead_q1_pct", Json.Float q1);
        (name ^ "_overhead_q3_pct", Json.Float q3);
      ];
    (d, pct)
  in
  let di, pi = measure "ntp-index" index in
  let da, _ = measure "attack-grid" attack in
  Obs.set_enabled was;
  Texttab.print t;
  Printf.printf
    "(medians over %d interleaved off/on pairs; overhead quartiles q1 .. q3)\n"
    pairs;
  print_newline ();
  Printf.printf "per-phase breakdown — ntp-index (grid 40x40, %d runs):\n"
    pairs;
  print_string (Obs_report.render di);
  print_newline ();
  Printf.printf "per-phase breakdown — attack grid (R=5, %d runs):\n" pairs;
  print_string (Obs_report.render da);
  record_scalars ~experiment:"e22"
    [ ("pairs", Json.Int pairs); ("overhead_below_5pct", Json.Bool (pi < 5.0)) ];
  print_newline ();
  print_endline
    "Recording is one domain-local increment per event, so the counters\n\
     are near-free; the timers/spans cost two clock reads per call.  The\n\
     acceptance bar (median ntp-index overhead < 5%) is recorded as\n\
     overhead_below_5pct."

(* ------------------------------------------------------------------ *)
(* E23 — the neighborhood-typing fast path (DESIGN.md 5.9): per-index
   sphere cache, member-scan dedupe, CSR adjacency and exact partition
   refinement, measured against the preserved pre-PR pipeline
   (Neighborhood_ref) at jobs=1 on the two heaviest typing workloads
   (E20's random graph, E21's grid).  Both pipelines must produce
   bit-identical indexes; the acceptance bar is a >=2x speedup on the
   spheres (materialization) phase of the E20 workload.  The iso-check
   counts under the old Hashtbl.hash bucket keys and the new deep keys
   are recorded for the CI regression guard. *)

let e23 () =
  header "E23. Neighborhood-typing fast path vs pre-PR pipeline (jobs=1)";
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let run_obs f =
    let since = Obs.snapshot () in
    let x, dt = secs f in
    (x, dt, Obs.diff ~since (Obs.snapshot ()))
  in
  (* best of 2, keeping the obs diff of the faster run *)
  let best f =
    let (_, d1, _) as r1 = run_obs f in
    let (_, d2, _) as r2 = run_obs f in
    if d2 < d1 then r2 else r1
  in
  let timer_s d name =
    match List.assoc_opt name d.Obs.timers with
    | Some tt -> tt.Obs.seconds
    | None -> 0.
  in
  let counter_v d name =
    Option.value ~default:0 (List.assoc_opt name d.Obs.counters)
  in
  let t =
    Texttab.create
      [ "workload"; "pipeline"; "wall s"; "spheres s"; "iso checks"; "identical" ]
  in
  let compare_on ~name g ~rho ~arity =
    let ix_new, t_new, d_new =
      best (fun () ->
          with_jobs 1 @@ fun () -> Neighborhood.index_universe g ~rho ~arity)
    in
    let ix_ref, t_ref, d_ref =
      best (fun () ->
          with_jobs 1 @@ fun () ->
          Neighborhood_ref.index_universe g ~rho ~arity)
    in
    let same =
      Tuple.Map.equal ( = ) ix_new.Neighborhood.types ix_ref.Neighborhood.types
      && ix_new.Neighborhood.representatives = ix_ref.Neighborhood.representatives
    in
    if not same then failwith ("e23: fast path diverged from reference on " ^ name);
    let sp_new = timer_s d_new "nbh.index.spheres" in
    let sp_ref = timer_s d_ref "nbh.ref.index.spheres" in
    let ic_new = counter_v d_new "nbh.iso_checks" in
    let ic_ref = counter_v d_ref "nbh.ref.iso_checks" in
    Texttab.addf t "%s|reference|%.3f|%.3f|%d|%s" name t_ref sp_ref ic_ref "-";
    Texttab.addf t "%s|fast path|%.3f|%.3f|%d|%s" name t_new sp_new ic_new "yes";
    Printf.printf
      "%s: wall %.2fx, spheres phase %.2fx; cache hits %d, member scans \
       deduped %d, refine rounds %d\n"
      name (t_ref /. t_new) (sp_ref /. sp_new)
      (counter_v d_new "nbh.sphere_cache_hits")
      (counter_v d_new "nbh.subs_deduped")
      (counter_v d_new "nbh.refine_rounds");
    (t_ref /. t_new, sp_ref /. sp_new, ic_new, ic_ref)
  in
  (* Workload A (the acceptance one): the E20 rho-2 unary typing of a
     bounded-degree random graph, ntp ~ n. *)
  let wsa = Random_struct.graph (Prng.create 41) ~n:420 ~max_degree:6 ~edges:940 in
  let wall_a, spheres_a, ic_new, ic_ref =
    compare_on ~name:"random n=420" wsa.Weighted.graph ~rho:2 ~arity:1
  in
  (* Workload B: the E21 40x40 grid — few types, heavy sphere overlap. *)
  let grid = (Grid.structure ~w:40 ~h:40).Weighted.graph in
  let wall_b, spheres_b, _, _ =
    compare_on ~name:"grid 40x40" grid ~rho:2 ~arity:1
  in
  (* Workload C: binary tuples — n^2 parameters share n element spheres,
     so the cache and the member-scan dedupe carry the whole phase. *)
  let wsc = Random_struct.graph (Prng.create 7) ~n:80 ~max_degree:5 ~edges:170 in
  let wall_c, spheres_c, _, _ =
    compare_on ~name:"random n=80 arity=2" wsc.Weighted.graph ~rho:1 ~arity:2
  in
  Obs.set_enabled was;
  Texttab.print t;
  record_scalars ~experiment:"e23"
    [
      ("wall_speedup", Json.Float wall_a);
      ("spheres_speedup", Json.Float spheres_a);
      ("grid_wall_speedup", Json.Float wall_b);
      ("grid_spheres_speedup", Json.Float spheres_b);
      ("arity2_wall_speedup", Json.Float wall_c);
      ("arity2_spheres_speedup", Json.Float spheres_c);
      ("iso_checks_new", Json.Int ic_new);
      ("iso_checks_baseline", Json.Int ic_ref);
      ("spheres_meets_2x", Json.Bool (spheres_a >= 2.0));
    ];
  Printf.printf
    "The fast path shares one sphere BFS per element, one member scan per\n\
     distinct sphere and one sub-Gaifman graph per tuple, and refines to\n\
     the exact 1-WL fixpoint instead of size-many hashed rounds.  The\n\
     acceptance bar (spheres-phase speedup >= 2x on the random workload,\n\
     output bit-identical) is recorded as spheres_meets_2x; the iso-check\n\
     counts feed the CI guard against bucket-key regressions.\n"

(* E24 — detect-and-recover robustness curves (DESIGN.md 5.10): mark the
   travel workload, protect it with Recovery capsules (Gaifman-local
   groups, keyed certificates replicated across sibling groups), then
   sweep three attack families over increasing intensity and compare the
   detection rate of the plain survivable pipeline against
   repair-then-detect.  The acceptance bar: repair never hurts (repaired
   rate >= unrepaired on every row — the CI guard), and strictly improves
   on at least one distortion and one mix-and-match row at an intensity
   where the unrepaired detector fails.  Every trial owns a PRNG derived
   from (row, trial) and all inner phases run at jobs=1, so the table is
   bit-identical at any --jobs. *)

let e24 () =
  header "E24. Repair-then-detect robustness curves (Recovery capsules)";
  let bits = 4 and times = 5 and trials = 8 in
  let message = Codec.of_int ~bits 0b1011 in
  let ws = Random_struct.travel (Prng.create 24) ~travels:100 ~transports:400 in
  let scheme =
    match Local_scheme.prepare ws Random_struct.travel_query with
    | Ok s -> s
    | Error e -> failwith ("e24: " ^ e)
  in
  let base = Robust.of_local scheme in
  let qs = Local_scheme.query_system scheme in
  Query_system.precompute qs;
  let active = Query_system.active qs in
  let nactive = List.length active in
  let marked_w = Robust.mark base ~times message ws.Weighted.weights in
  let marked = { ws with Weighted.weights = marked_w } in
  let cap = Recovery.protect marked in
  (* the second copy mix-and-match splices from: same instance, marked
     with the complement message *)
  let other_w =
    Robust.mark base ~times
      (Codec.of_int ~bits (lnot 0b1011 land ((1 lsl bits) - 1)))
      ws.Weighted.weights
  in
  let detect_plain suspect =
    let rv, _ =
      with_jobs 1 @@ fun () ->
      Survivable.detect_structure scheme ~times ~length:bits ~original:ws
        ~suspect
    in
    Bitvec.equal message rv.Survivable.message
  in
  let detect_rep suspect =
    let rv, report, _ =
      with_jobs 1 @@ fun () ->
      Recovery.detect_repaired cap scheme ~times ~length:bits ~original:ws
        ~suspect
    in
    (Bitvec.equal message rv.Survivable.message, report.Recovery.repaired)
  in
  let t =
    Texttab.create
      [ "attack"; "intensity"; "unrepaired"; "repaired"; "groups/trial" ]
  in
  let rows_json = ref [] in
  let run_row idx (family, label, intensity) =
    let un = ref 0 and rp = ref 0 and groups = ref 0 in
    for trial = 0 to trials - 1 do
      let g = Prng.create (0xE24001 + (7919 * idx) + trial) in
      let suspect =
        match family with
        | `Flips ->
            let count = int_of_float (intensity *. float_of_int nactive) in
            {
              ws with
              Weighted.weights =
                Adversary.apply g
                  (Adversary.Random_flips { count; amplitude = 2 })
                  ~active marked_w;
            }
        | `Mix ->
            {
              ws with
              Weighted.weights =
                Adversary.apply g
                  (Adversary.Mix_and_match
                     { other = other_w; fraction = intensity })
                  ~active marked_w;
            }
        | `Delete ->
            Adversary.apply_structural g
              (Adversary.Delete_tuples { fraction = intensity })
              marked
      in
      if detect_plain suspect then incr un;
      let ok, k = detect_rep suspect in
      if ok then incr rp;
      groups := !groups + k
    done;
    let fr x = float_of_int x /. float_of_int trials in
    Texttab.addf t "%s|%.2f|%.2f|%.2f|%.1f" label intensity (fr !un) (fr !rp)
      (float_of_int !groups /. float_of_int trials);
    rows_json :=
      Json.Obj
        [
          ("attack", Json.String label);
          ("intensity", Json.Float intensity);
          ("unrepaired", Json.Float (fr !un));
          ("repaired", Json.Float (fr !rp));
        ]
      :: !rows_json;
    (label, fr !un, fr !rp)
  in
  let grid =
    List.concat
      [
        List.map
          (fun i -> (`Flips, "random flips", i))
          [ 0.25; 0.5; 0.75; 1.0 ];
        List.map
          (fun i -> (`Mix, "mix-and-match", i))
          [ 0.25; 0.5; 0.75; 1.0 ];
        List.map (fun i -> (`Delete, "delete elements", i)) [ 0.2; 0.4; 0.6 ];
      ]
  in
  let results = List.mapi run_row grid in
  Texttab.print t;
  let monotone =
    List.for_all (fun (_, un, rp) -> rp >= un) results
  in
  let strict lbl =
    List.exists (fun (l, un, rp) -> l = lbl && un < 1.0 && rp > un) results
  in
  record_scalars ~experiment:"e24"
    [
      ("rows", Json.List (List.rev !rows_json));
      ("trials_per_row", Json.Int trials);
      ("groups", Json.Int (Recovery.ngroups cap));
      ("repair_never_hurts", Json.Bool monotone);
      ("strict_improvement_flips", Json.Bool (strict "random flips"));
      ("strict_improvement_mix", Json.Bool (strict "mix-and-match"));
    ];
  Printf.printf
    "Weight-level attacks leave every certificate host alive, so repair\n\
     restores the marked weights exactly and the repaired detector stays\n\
     at 1.00 after the unrepaired one collapses; deletions also remove\n\
     certificate copies, so recovery degrades only when all %d replica\n\
     hosts of a group die together.  repair_never_hurts and the two\n\
     strict_improvement flags feed the CI guard.\n"
    Recovery.default_options.Recovery.redundancy

(* ------------------------------------------------------------------ *)
(* E25: watermarking as a service.  Drives the wm_serve engine through
   the qpwm-serve/1 protocol (encode -> handle -> decode, exactly the
   bytes the wire would carry) on two datasets: a big regular-rings
   instance (10^6 elements unless overridden) prepared with the identity
   query system and a Gaifman-component-sharded index, and a small
   "live" dataset taking the structural-update/audit/repair traffic.
   Measures sustained mixed request throughput and pins the two sharding
   identities (sharded index = unsharded index, sharded detect =
   unsharded detect).

   WMARK_E25_N and WMARK_E25_REQS override the big-instance size and the
   request count so CI can run a small configuration; the committed
   BENCH_PR7.json comes from the full run. *)

let e25 () =
  header "E25. Watermarking as a service: scheduler + sharding (wm_serve)";
  let env_int name default floor =
    match Option.bind (Sys.getenv_opt name) int_of_string_opt with
    | Some v when v >= floor -> v
    | _ -> default
  in
  let n = env_int "WMARK_E25_N" 1_000_000 100 in
  let reqs = env_int "WMARK_E25_REQS" 4_000 100 in
  let engine = Serve_engine.create () in
  let send what req =
    let payload =
      Serve_engine.handle engine (Serve_protocol.encode_request req)
    in
    match Serve_protocol.decode_response payload with
    | Ok ({ Serve_protocol.status = `Ok _; _ } as r) -> r
    | Ok { Serve_protocol.status = `Err m; _ } ->
        failwith (Printf.sprintf "e25 %s: %s" what m)
    | Error m -> failwith (Printf.sprintf "e25 %s: bad response: %s" what m)
  in
  let field r k =
    match Serve_protocol.field r k with
    | Some v -> v
    | None -> failwith ("e25: missing response field " ^ k)
  in
  let prepare id ~shard =
    Serve_protocol.Prepare
      {
        id;
        seed = 25;
        rho = Some 1;
        epsilon = 1.0;
        shard;
        qspec = Serve_protocol.Identity;
      }
  in
  (* -- sharded = unsharded, on a mid-size instance ------------------- *)
  let mid = min n 50_000 in
  let _ = send "gen mid" (Serve_protocol.Gen { id = "mid"; n = mid; seed = 7 }) in
  let p0, unshard_s = secs (fun () -> send "prepare mid" (prepare "mid" ~shard:false)) in
  let msg = String.init 64 (fun i -> if (i * 5 + 1) mod 3 = 0 then '1' else '0') in
  let _ = send "mark mid" (Serve_protocol.Mark ("mid", msg)) in
  let d0 =
    send "detect mid" (Serve_protocol.Detect { id = "mid"; length = 64; shard = false })
  in
  let p1, shard_s = secs (fun () -> send "re-prepare mid" (prepare "mid" ~shard:true)) in
  let d1 =
    send "detect mid sharded"
      (Serve_protocol.Detect { id = "mid"; length = 64; shard = true })
  in
  let index_equal =
    List.for_all
      (fun k -> field p0 k = field p1 k)
      [ "capacity"; "ntp"; "pairs_available"; "active"; "max_split" ]
  in
  let detect_equal = d0.Serve_protocol.fields = d1.Serve_protocol.fields in
  let t = Texttab.create [ "step"; "value" ] in
  Texttab.addf t "mid size|%d" mid;
  Texttab.addf t "prepare unsharded|%.2f s" unshard_s;
  Texttab.addf t "prepare sharded|%.2f s" shard_s;
  Texttab.addf t "sharded index = unsharded|%b" index_equal;
  Texttab.addf t "sharded detect = unsharded|%b" detect_equal;
  (* -- the big dataset ----------------------------------------------- *)
  let _, gen_s =
    secs (fun () -> send "gen big" (Serve_protocol.Gen { id = "big"; n; seed = 0x25 }))
  in
  let pb, prep_s = secs (fun () -> send "prepare big" (prepare "big" ~shard:true)) in
  let capacity = int_of_string (field pb "capacity") in
  let _ = send "mark big" (Serve_protocol.Mark ("big", msg)) in
  let db0 =
    send "detect big" (Serve_protocol.Detect { id = "big"; length = 64; shard = false })
  in
  let db1 =
    send "detect big sharded"
      (Serve_protocol.Detect { id = "big"; length = 64; shard = true })
  in
  let big_detect_equal = db0.Serve_protocol.fields = db1.Serve_protocol.fields in
  Texttab.addf t "big size|%d" n;
  Texttab.addf t "gen big|%.2f s" gen_s;
  Texttab.addf t "prepare big (sharded)|%.2f s" prep_s;
  Texttab.addf t "big capacity|%d bits" capacity;
  Texttab.addf t "big sharded detect = unsharded|%b" big_detect_equal;
  (* -- live dataset for writer-heavy traffic ------------------------- *)
  let live_n = 2_000 in
  let _ = send "gen live" (Serve_protocol.Gen { id = "live"; n = live_n; seed = 3 }) in
  let _ = send "prepare live" (prepare "live" ~shard:true) in
  let _ = send "mark live" (Serve_protocol.Mark ("live", "1010")) in
  (* the vault takes weight-level damage (setw) plus audit/repair; the
     live dataset takes structural updates, which invalidate a capsule
     by design, so the two writer families get separate datasets *)
  let _ = send "gen vault" (Serve_protocol.Gen { id = "vault"; n = live_n; seed = 5 }) in
  let _ = send "prepare vault" (prepare "vault" ~shard:false) in
  let _ = send "mark vault" (Serve_protocol.Mark ("vault", "1100")) in
  let _ =
    send "protect vault"
      (Serve_protocol.Protect { id = "vault"; key = 0x5EC2E7; redundancy = 2; group_size = 4 })
  in
  (* -- sustained mixed workload -------------------------------------- *)
  let g = Prng.create 0xE25 in
  let edge_present = ref false in
  let detect_req () =
    Serve_protocol.Detect { id = "big"; length = 64; shard = Prng.bool g }
  in
  let next_request () =
    let r = Prng.int g 100 in
    if r < 40 then detect_req ()
    else if r < 50 then
      (* a batch frame: 16 reads scheduled concurrently on the pool *)
      Serve_protocol.Batch
        (List.init 16 (fun _ ->
             Serve_protocol.encode_request (detect_req ())))
    else if r < 70 then
      Serve_protocol.Mark
        ( "big",
          String.init 64 (fun _ -> if Prng.bool g then '1' else '0') )
    else if r < 80 then
      Serve_protocol.Setw
        { id = "big"; value = 100 + Prng.int g 900; elt = [ Prng.int g n ] }
    else if r < 85 then Serve_protocol.Info "big"
    else if r < 90 then
      Serve_protocol.Detect { id = "live"; length = 4; shard = false }
    else if r < 93 then Serve_protocol.Audit "vault"
    else if r < 95 then
      Serve_protocol.Setw
        { id = "vault"; value = 100 + Prng.int g 900; elt = [ Prng.int g live_n ] }
    else if r < 98 then begin
      (* structural update: toggle one extra edge between two rings of
         the live instance, re-preparing incrementally each time *)
      let a = 0 and b = live_n - 1 in
      let op = if !edge_present then "delete" else "insert" in
      edge_present := not !edge_present;
      Serve_protocol.Update
        ( "live",
          Printf.sprintf "%s E %d %d\n%s E %d %d\n" op a b op b a )
    end
    else Serve_protocol.Repair "vault"
  in
  let workload = List.init reqs (fun _ -> next_request ()) in
  let answered = ref 0 and failed = ref 0 in
  let (), mixed_s =
    secs (fun () ->
        List.iter
          (fun req ->
            let what = Serve_protocol.op_name req in
            let r = send what req in
            (match r.Serve_protocol.status with
            | `Ok _ -> ()
            | `Err _ -> incr failed);
            answered :=
              !answered
              + (match req with Serve_protocol.Batch subs -> List.length subs | _ -> 1))
          workload)
  in
  let rps = float_of_int !answered /. mixed_s in
  Texttab.addf t "mixed requests|%d (%d frames)" !answered reqs;
  Texttab.addf t "mixed wall|%.2f s" mixed_s;
  Texttab.addf t "throughput|%.0f req/s" rps;
  Texttab.addf t "failures|%d" !failed;
  Texttab.print t;
  record_scalars ~experiment:"e25"
    [
      ("n", Json.Int n);
      ("requests", Json.Int !answered);
      ("throughput_rps", Json.Float rps);
      ("failures", Json.Int !failed);
      ("capacity_big", Json.Int capacity);
      ("prepare_big_s", Json.Float prep_s);
      ("sharded_index_equal", Json.Bool index_equal);
      ("sharded_detect_equal", Json.Bool (detect_equal && big_detect_equal));
    ];
  Printf.printf
    "The engine answers the mixed stream against the %d-element\n\
     instance at %.0f req/s: detection reads only the asked prefix of\n\
     the %d-bit scheme, marking rewrites O(message) weights, and\n\
     weights-only updates ride Theorem 7 in O(log n).  Sharding by\n\
     Gaifman component reproduces the unsharded index and verdicts bit\n\
     for bit (sharded_index_equal, sharded_detect_equal feed the CI\n\
     guard).\n"
    n rps capacity

(* ------------------------------------------------------------------ *)
(* E26 — the flat-memory core (PR 8): end-to-end tuples/second.

   Builds, marks and detects over the same op streams twice — once on
   the columnar Relation/Weighted and once on the frozen pre-flat
   representations (Relation_ref/Weighted_ref) — at 10^5 and 10^6
   elements, asserting bit-identical outputs (marked weight bindings,
   decoded message) along the way.  The CI guard reads
   load_detect_speedup (>= 2x required) and outputs_equal from
   BENCH_PR8.json.

   WMARK_E26_N overrides the larger instance size so CI runs small; the
   committed BENCH_PR8.json comes from the full run. *)

let e26 () =
  header "E26. Flat-memory core: load/mark/detect throughput (PR 8)";
  let env_int name default floor =
    match Option.bind (Sys.getenv_opt name) int_of_string_opt with
    | Some v when v >= floor -> v
    | _ -> default
  in
  let nbig = env_int "WMARK_E26_N" 1_000_000 1_000 in
  let sizes = if nbig > 100_000 then [ 100_000; nbig ] else [ nbig ] in
  let t = Texttab.create [ "n"; "stage"; "flat"; "pre-flat"; "speedup" ] in
  let outputs_equal = ref true in
  let worst_speedup = ref infinity in
  let big_scalars = ref [] in
  List.iter
    (fun n ->
      let g = Prng.create (0xE26 + n) in
      let ws = Random_struct.regular_rings g ~n in
      let graph = ws.Weighted.graph in
      let schema = Structure.schema graph in
      (* identical op streams for both representations, extracted untimed *)
      let rel_tuples =
        Structure.fold_relations
          (fun name r acc -> (name, Relation.to_list r) :: acc)
          graph []
      in
      let wbindings = Weighted.bindings ws.Weighted.weights in
      let ntuples =
        List.fold_left (fun acc (_, ts) -> acc + List.length ts) 0 rel_tuples
        + List.length wbindings
      in
      (* load: one bulk sort per relation vs a functional insert per tuple *)
      let (flat_g, flat_w), flat_load_s =
        secs (fun () ->
            let g0 =
              List.fold_left
                (fun g (name, ts) ->
                  Structure.set_relation g name
                    (Relation.of_list (Schema.arity_of schema name) ts))
                (Structure.create schema n) rel_tuples
            in
            (g0, Weighted.of_list 1 wbindings))
      in
      let (ref_rels, ref_w), ref_load_s =
        secs (fun () ->
            let rels =
              List.map
                (fun (name, ts) ->
                  ( name,
                    List.fold_left
                      (fun r tup -> Relation_ref.add tup r)
                      (Relation_ref.empty (Schema.arity_of schema name))
                      ts ))
                rel_tuples
            in
            let w =
              List.fold_left
                (fun w (tu, v) -> Weighted_ref.set w tu v)
                (Weighted_ref.create 1) wbindings
            in
            (rels, w))
      in
      outputs_equal :=
        !outputs_equal
        && Structure.equal flat_g graph
        && List.for_all
             (fun (name, r) ->
               Relation.to_list (Structure.relation flat_g name)
               = Relation_ref.to_list r)
             ref_rels
        && Weighted.bindings flat_w = Weighted_ref.bindings ref_w;
      (* mark: one +-1 pair per consecutive element pair, full scan *)
      let pairs =
        List.init (n / 2) (fun i ->
            {
              Pairing.fst = Tuple.singleton (2 * i);
              snd = Tuple.singleton ((2 * i) + 1);
            })
      in
      let message = Codec.random g (n / 2) in
      let marks = Pairing.orientation_marks pairs message in
      let flat_marked, flat_mark_s =
        secs (fun () -> Weighted.apply_marks flat_w marks)
      in
      let ref_marked, ref_mark_s =
        secs (fun () -> Weighted_ref.apply_marks ref_w marks)
      in
      outputs_equal :=
        !outputs_equal && Weighted.bindings flat_marked = Weighted_ref.bindings ref_marked;
      (* detect: full decode pass, four weight lookups per pair *)
      let flat_bits, flat_detect_s =
        secs (fun () ->
            let bits = Bitvec.create (n / 2) in
            List.iteri
              (fun i { Pairing.fst; snd } ->
                let d tu = Weighted.get flat_marked tu - Weighted.get flat_w tu in
                Bitvec.set bits i (d fst - d snd > 0))
              pairs;
            bits)
      in
      let ref_bits, ref_detect_s =
        secs (fun () ->
            let bits = Bitvec.create (n / 2) in
            List.iteri
              (fun i { Pairing.fst; snd } ->
                let d tu =
                  Weighted_ref.get ref_marked tu - Weighted_ref.get ref_w tu
                in
                Bitvec.set bits i (d fst - d snd > 0))
              pairs;
            bits)
      in
      outputs_equal :=
        !outputs_equal && Bitvec.equal flat_bits ref_bits
        && Bitvec.equal flat_bits message;
      (* flat-only pipeline stages for the tuples/s headline *)
      let text = Textio.to_string { Weighted.graph = flat_g; weights = flat_marked } in
      let _parsed, parse_s = secs (fun () -> Textio.of_string text) in
      let gf, gaifman_s = secs (fun () -> Gaifman.of_structure flat_g) in
      let (_, ncomps), comp_s = secs (fun () -> Gaifman.component_labels gf) in
      let speedup =
        (ref_load_s +. ref_detect_s) /. (flat_load_s +. flat_detect_s)
      in
      if speedup < !worst_speedup then worst_speedup := speedup;
      let e2e = flat_load_s +. flat_mark_s +. flat_detect_s in
      let tps = float_of_int ntuples /. e2e in
      Texttab.addf t "%d|load|%.3f s|%.3f s|%.2fx" n flat_load_s ref_load_s
        (ref_load_s /. flat_load_s);
      Texttab.addf t "%d|mark|%.3f s|%.3f s|%.2fx" n flat_mark_s ref_mark_s
        (ref_mark_s /. flat_mark_s);
      Texttab.addf t "%d|detect|%.3f s|%.3f s|%.2fx" n flat_detect_s
        ref_detect_s
        (ref_detect_s /. flat_detect_s);
      Texttab.addf t "%d|load+detect|%.3f s|%.3f s|%.2fx" n
        (flat_load_s +. flat_detect_s)
        (ref_load_s +. ref_detect_s)
        speedup;
      Texttab.addf t "%d|parse / gaifman / comps|%.3f / %.3f / %.3f s|-|-" n
        parse_s gaifman_s comp_s;
      Texttab.addf t "%d|end-to-end|%.0f tuples/s (%d tuples, %d comps)|-|-" n
        tps ntuples ncomps;
      if n = List.nth sizes (List.length sizes - 1) then
        big_scalars :=
          [
            ("n", Json.Int n);
            ("tuples", Json.Int ntuples);
            ("flat_load_s", Json.Float flat_load_s);
            ("ref_load_s", Json.Float ref_load_s);
            ("flat_mark_s", Json.Float flat_mark_s);
            ("ref_mark_s", Json.Float ref_mark_s);
            ("flat_detect_s", Json.Float flat_detect_s);
            ("ref_detect_s", Json.Float ref_detect_s);
            ("end_to_end_tuples_per_s", Json.Float tps);
          ])
    sizes;
  Texttab.print t;
  record_scalars ~experiment:"e26"
    (!big_scalars
    @ [
        ("load_detect_speedup", Json.Float !worst_speedup);
        ("outputs_equal", Json.Bool !outputs_equal);
      ]);
  Printf.printf
    "The columnar Relation/Weighted load with one sort per relation and\n\
     detect by binary search over contiguous int rows; the frozen\n\
     pre-flat representations replay the identical op streams for the\n\
     baseline.  Marked bindings and the decoded message are asserted\n\
     bit-identical (outputs_equal); load_detect_speedup is the worst\n\
     size's (ref load + detect) / (flat load + detect) and feeds the\n\
     >= 2x CI guard.\n"

(* --- E27: multi-recipient fingerprinting (PR 9) --------------------

   Batch generation of fingerprinted copies through the serving layer
   (one request, [count] recipients fanned onto the pool, digests as the
   proof of work), a planted-leak trace over the candidate population,
   and the collusion grid (coalition size x attack) measured directly on
   the library.  Two engines at jobs 1 and 2 replay the identical
   request stream; the raw response bytes must match. *)

let e27 () =
  header "E27. Multi-recipient fingerprinting: batch generation and tracing";
  let env_int name default floor =
    match Option.bind (Sys.getenv_opt name) int_of_string_opt with
    | Some v when v >= floor -> v
    | _ -> default
  in
  let n = env_int "WMARK_E27_N" 100_000 500 in
  let copies = env_int "WMARK_E27_COPIES" 10_000 20 in
  let population = env_int "WMARK_E27_RECIPIENTS" 1_000 50 in
  let master = 0xF1D0 and gen_seed = 0x27 and prep_seed = 27 in
  let leak = "r7" in
  (* The engine's dataset rebuilt locally — same rings, same prepare
     options, same identity query system — to plant a leaked copy for
     the serve-side trace and to drive the collusion grid. *)
  let ws = Random_struct.regular_rings (Prng.create gen_seed) ~n in
  let qs =
    Query_system.of_custom
      ~params:(List.init (Structure.size ws.Weighted.graph) Tuple.singleton)
      ~result_set:(fun p -> Tuple.Set.singleton p)
      ~weight_arity:1
  in
  let q = Parser.query_of_string ~params:[ "u" ] ~results:[ "v" ] "u = v" in
  let options =
    { Local_scheme.default_options with seed = prep_seed; rho = Some 1; epsilon = 1.0 }
  in
  let scheme =
    match Local_scheme.prepare ~options ~qs ws q with
    | Ok s -> s
    | Error m -> failwith ("e27 prepare: " ^ m)
  in
  (* production-redundancy geometry (9 interleaved repetitions) when the
     capacity allows it; the scheme's defaults otherwise *)
  let fp =
    match Fingerprint.of_local ~times:9 ~master scheme with
    | Ok f -> f
    | Error _ -> (
        match Fingerprint.of_local ~master scheme with
        | Ok f -> f
        | Error m -> failwith ("e27 fingerprint: " ^ m))
  in
  let length = Fingerprint.length fp and times = Fingerprint.times fp in
  let planted =
    Textio.to_string
      { ws with Weighted.weights = Fingerprint.mark_for fp leak ws.Weighted.weights }
  in
  let fpreq =
    Serve_protocol.Fingerprint
      { id = "fp"; master; length = Some length; times = Some times;
        prefix = "r"; count = copies }
  in
  let treq =
    Serve_protocol.Trace
      { id = "fp"; master; length = Some length; times = Some times;
        prefix = "r"; count = population; alpha = 0.01; suspect = Some planted }
  in
  let run jobs =
    with_jobs jobs @@ fun () ->
    let engine = Serve_engine.create () in
    let raw req = Serve_engine.handle engine (Serve_protocol.encode_request req) in
    let ok what payload =
      match Serve_protocol.decode_response payload with
      | Ok ({ Serve_protocol.status = `Ok _; _ } as r) -> r
      | Ok { Serve_protocol.status = `Err m; _ } ->
          failwith (Printf.sprintf "e27 %s: %s" what m)
      | Error m -> failwith (Printf.sprintf "e27 %s: bad response: %s" what m)
    in
    let _, gen_s =
      secs (fun () ->
          ok "gen" (raw (Serve_protocol.Gen { id = "fp"; n; seed = gen_seed })))
    in
    let _, prep_s =
      secs (fun () ->
          ok "prepare"
            (raw
               (Serve_protocol.Prepare
                  { id = "fp"; seed = prep_seed; rho = Some 1; epsilon = 1.0;
                    shard = false; qspec = Serve_protocol.Identity })))
    in
    let fp_payload, fp_s = secs (fun () -> raw fpreq) in
    let fp_resp = ok "fingerprint" fp_payload in
    (* the trace's binomial-tail evaluations, counted under Obs: at most
       one per distinct agreement count, so <= length + 1 *)
    let was = Obs.enabled () in
    Obs.set_enabled true;
    let since = Obs.snapshot () in
    let tr_payload, tr_s = secs (fun () -> raw treq) in
    let d = Obs.diff ~since (Obs.snapshot ()) in
    Obs.set_enabled was;
    let tail_evals =
      Option.value ~default:0 (List.assoc_opt "fp.tail_evals" d.Obs.counters)
    in
    let tr_resp = ok "trace" tr_payload in
    (gen_s, prep_s, fp_payload, fp_resp, fp_s, tr_payload, tr_resp, tr_s,
     tail_evals)
  in
  let gen1, prep1, fpp1, fpr1, fps1, trp1, trr1, trs1, tails1 = run 1 in
  let _gen2, _prep2, fpp2, _fpr2, fps2, trp2, _trr2, trs2, tails2 = run 2 in
  let tail_evals = max tails1 tails2 in
  let best_tr_s = Float.min trs1 trs2 in
  let candidates_per_s = float_of_int population /. best_tr_s in
  let serve_identical = String.equal fpp1 fpp2 && String.equal trp1 trp2 in
  let field r k =
    match Serve_protocol.field r k with
    | Some v -> v
    | None -> failwith ("e27: missing response field " ^ k)
  in
  let leak_traced = field trr1 "accused" = leak && field trr1 "naccused" = "1" in
  let digest_lines =
    List.length (String.split_on_char '\n' (Option.value ~default:"" fpr1.Serve_protocol.body))
  in
  let best_fp_s = Float.min fps1 fps2 in
  let t = Texttab.create [ "step"; "value" ] in
  Texttab.addf t "instance|%d elements (rings), %d recipients" n population;
  Texttab.addf t "codeword|%d bits x %d repetitions" length times;
  Texttab.addf t "gen / prepare|%.2f / %.2f s" gen1 prep1;
  Texttab.addf t "fingerprint %d copies (jobs 1)|%.2f s" copies fps1;
  Texttab.addf t "fingerprint %d copies (jobs 2)|%.2f s" copies fps2;
  Texttab.addf t "generation throughput|%.0f copies/s" (float_of_int copies /. best_fp_s);
  Texttab.addf t "digest lines returned|%d" digest_lines;
  Texttab.addf t "trace %d candidates (jobs 1 / 2)|%.2f / %.2f s" population trs1 trs2;
  Texttab.addf t "trace request throughput|%.0f candidates/s" candidates_per_s;
  Texttab.addf t "trace tail evaluations|%d (bound length + 1 = %d)" tail_evals
    (length + 1);
  Texttab.addf t "planted leak %s uniquely accused|%b" leak leak_traced;
  Texttab.addf t "responses identical across job counts|%b" serve_identical;
  Texttab.print t;
  (* -- the collusion grid ------------------------------------------- *)
  let grid_fp =
    match Fingerprint.of_local ~length:256 ~times:3 ~master scheme with
    | Ok f -> f
    | Error _ -> fp
  in
  let report, grid_s =
    secs (fun () ->
        Fingerprint.run_grid ~alpha:0.001 ~recipients:[ population ] grid_fp
          ws.Weighted.weights)
  in
  print_newline ();
  print_string (Fingerprint.render_grid report);
  Printf.printf "grid: %.2f s\n" grid_s;
  let rows = report.Fingerprint.rows in
  let false_total =
    List.fold_left
      (fun a (o : Fingerprint.outcome) -> a + o.false_accusations)
      0 rows
  in
  let all_traced = List.for_all (fun (o : Fingerprint.outcome) -> o.traced) rows in
  let min_accuracy =
    List.fold_left (fun a (o : Fingerprint.outcome) -> Float.min a o.accuracy) 1.0 rows
  in
  let solo_clean =
    List.for_all
      (fun (o : Fingerprint.outcome) ->
        o.coalition > 1 || (o.false_accusations = 0 && o.accuracy = 1.0))
      rows
  in
  record_scalars ~experiment:"e27"
    [
      ("n", Json.Int n);
      ("copies", Json.Int copies);
      ("recipients", Json.Int population);
      ("length", Json.Int length);
      ("times", Json.Int times);
      ("fingerprint_s", Json.Float best_fp_s);
      ("copies_per_s", Json.Float (float_of_int copies /. best_fp_s));
      ("trace_s", Json.Float best_tr_s);
      ("trace_candidates_per_s", Json.Float candidates_per_s);
      ("trace_tail_evals", Json.Int tail_evals);
      ("serve_identical", Json.Bool serve_identical);
      ("leak_traced", Json.Bool leak_traced);
      ("grid_false_accusations", Json.Int false_total);
      ("grid_all_traced", Json.Bool all_traced);
      ("grid_min_accuracy", Json.Float min_accuracy);
      ("grid_no_collusion_clean", Json.Bool solo_clean);
      ("grid", Fingerprint.grid_to_json report);
    ];
  Printf.printf
    "One prepared scheme serves every recipient: the fingerprint request\n\
     derives %d keys from the master, embeds each codeword on the pool and\n\
     returns per-copy digests; the trace request scores all %d candidates\n\
     against the planted copy under the Sidak-corrected threshold.  The\n\
     grid colludes k copies per cell (majority / mix / interleave, per-copy\n\
     laundering noise) and must accuse members only — false accusations\n\
     feed the CI guard.\n"
    copies population

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
    ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16); ("e17", e17); ("e18", e18);
    ("e19", e19); ("e20", e20); ("e21", e21); ("e22", e22); ("e23", e23);
    ("e24", e24); ("e25", e25); ("e26", e26); ("e27", e27);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc jobs json = function
    | [] -> (List.rev acc, jobs, json)
    | "--jobs" :: v :: rest -> parse acc (int_of_string_opt v) json rest
    | "--json" :: path :: rest -> parse acc jobs (Some path) rest
    | a :: rest -> parse (a :: acc) jobs json rest
  in
  let args, jobs_arg, json_path = parse [] None None args in
  (match jobs_arg with Some _ -> Par.set_jobs jobs_arg | None -> ());
  (* A trajectory file always carries the counters: flip collection on
     unless the user explicitly opted out with WMARK_STATS=0. *)
  if json_path <> None && Sys.getenv_opt "WMARK_STATS" <> Some "0" then
    Obs.set_enabled true;
  let to_run =
    if args = [] then experiments
    else
      List.filter_map
        (fun id ->
          match List.assoc_opt id experiments with
          | Some f -> Some (id, f)
          | None ->
              Printf.eprintf "unknown experiment %s\n" id;
              None)
        args
  in
  let t0 = Unix.gettimeofday () in
  let results =
    List.map
      (fun (id, f) ->
        let since = Obs.snapshot () in
        let (), dt = secs f in
        let obs =
          if Obs.enabled () then Some (Obs.diff ~since (Obs.snapshot ()))
          else None
        in
        (id, dt, obs))
      to_run
  in
  (match json_path with
  | None -> ()
  | Some path ->
      let experiments_json =
        List.map
          (fun (id, dt, obs) ->
            Json.Obj
              ([ ("id", Json.String id); ("wall_s", Json.Float dt) ]
              @ (match Hashtbl.find_opt scalars id with
                | Some r -> [ ("scalars", Json.Obj !r) ]
                | None -> [])
              @
              match obs with
              | Some d ->
                  [
                    ( "obs",
                      Json.Obj
                        [
                          ("counters", Obs_report.counters_json d);
                          ("timers", Obs_report.timers_json d);
                          ("histos", Obs_report.histos_json d);
                        ] );
                  ]
              | None -> []))
          results
      in
      let global_obs =
        if Obs.enabled () then begin
          let s = Obs.snapshot () in
          [
            ( "obs",
              Json.Obj
                [
                  ("counters", Obs_report.counters_json s);
                  ("timers", Obs_report.timers_json s);
                  ("histos", Obs_report.histos_json s);
                ] );
          ]
        end
        else []
      in
      Json.to_file path
        (Json.Obj
           ([
              ("schema", Json.String "qpwm-bench/1");
              ("jobs", Json.Int (Par.jobs ()));
              ("pool_size", Json.Int (Par.pool_size ()));
              ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
              ("experiments", Json.List experiments_json);
            ]
           @ global_obs));
      Printf.printf "\nwrote %s\n" path);
  Printf.printf "\ntotal: %.1f s (wall)\n" (Unix.gettimeofday () -. t0)
