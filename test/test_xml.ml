(* Tests for Wm_xml: parser/printer, unranked trees, the FCNS binary
   encoding, and pattern queries — including the Example 4 numbers and the
   equivalence of the direct evaluator with the compiled tree automaton. *)

open Wm_xml
open Wm_workload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let list = Alcotest.list
let option = Alcotest.option
let _ = (int, bool, string, (fun x -> list x), fun x -> option x)

let school_text =
  {|<school>
  <student>
    <firstname>John</firstname>
    <lastname>Doe</lastname>
    <exam>11</exam>
  </student>
  <student>
    <firstname>Robert</firstname>
    <lastname>Durant</lastname>
    <exam>16</exam>
  </student>
  <student>
    <firstname>Robert</firstname>
    <lastname>Smith</lastname>
    <exam>12</exam>
  </student>
</school>|}

let test_parse_basic () =
  let doc = Xml.parse school_text in
  check (option string) "root tag" (Some "school") (Xml.tag_of doc);
  check int "students" 3 (List.length (Xml.children_of doc))

let test_parse_roundtrip () =
  let doc = Xml.parse school_text in
  let doc2 = Xml.parse (Xml.to_string doc) in
  check bool "parse . print = id" true (Xml.equal doc doc2)

let test_parse_attributes () =
  let doc = Xml.parse {|<a x="1" y="two &amp; three"><b/>text</a>|} in
  match doc with
  | Xml.Element { tag = "a"; attrs; children = [ Xml.Element { tag = "b"; _ }; Xml.Text t ] } ->
      check string "attr" "two & three" (List.assoc "y" attrs);
      check string "text" "text" t
  | _ -> Alcotest.fail "unexpected shape"

let test_parse_misc_skipped () =
  let doc = Xml.parse {|<?xml version="1.0"?><!-- hi --><a><!-- inner --><b/></a>|} in
  check (option string) "root" (Some "a") (Xml.tag_of doc);
  check int "one child" 1 (List.length (Xml.children_of doc))

let test_parse_errors () =
  List.iter
    (fun s ->
      match Xml.parse s with
      | exception Xml.Parse_error _ -> ()
      | _ -> Alcotest.fail ("should not parse: " ^ s))
    [ "<a>"; "<a></b>"; "no markup"; "<a><b></a></b>"; "<a>&unknown;</a>"; "<a/><b/>" ]

let test_entities_roundtrip () =
  let doc = Xml.element "t" [ Xml.text "a<b&c>d\"e" ] in
  let doc2 = Xml.parse (Xml.to_string doc) in
  check bool "escapes survive" true (Xml.equal doc doc2)

let test_utree_shape () =
  let u = School_xml.example4 in
  check int "size: 1 school + 3*(student+3 tags+3 texts)" 22 (Utree.size u);
  check string "root label" "school" (Utree.label u 0);
  check bool "root not text" false (Utree.is_text u 0);
  check int "school children" 3 (List.length (Utree.children u 0));
  check (option int) "parent of root" None (Utree.parent u 0)

let test_utree_values () =
  let u = School_xml.example4 in
  let vs = Utree.value_nodes u in
  check int "three exam values" 3 (List.length vs);
  check (list int) "values" [ 11; 16; 12 ]
    (List.filter_map (Utree.value_of u) vs)

let test_utree_with_weights () =
  let u = School_xml.example4 in
  let w = Utree.weights u in
  let w' =
    List.fold_left
      (fun w v -> Weighted.add_delta w (Tuple.singleton v) 1)
      w (Utree.value_nodes u)
  in
  let u' = Utree.with_weights u w' in
  check (list int) "values bumped" [ 12; 17; 13 ]
    (List.filter_map (Utree.value_of u') (Utree.value_nodes u'));
  (* Untouched labels stay put. *)
  check string "tag intact" "school" (Utree.label u' 0)

let test_utree_attributes_survive_marking () =
  (* Attributes ride along the tree model: marking a document (rewriting
     its value nodes) must not lose them. *)
  let doc =
    Xml.parse
      {|<school version="2" lang="en"><student id="s1"><firstname>John</firstname><exam>11</exam></student></school>|}
  in
  let u = Utree.of_xml doc in
  check string "root attr" "2" (List.assoc "version" (Utree.attrs u 0));
  let w' =
    Weighted.apply_marks (Utree.weights u)
      (List.map (fun v -> (Tuple.singleton v, 1)) (Utree.value_nodes u))
  in
  let marked = Utree.with_weights u w' in
  let reparsed = Xml.parse (Xml.to_string (Utree.to_xml marked)) in
  match reparsed with
  | Xml.Element { attrs; children = [ Xml.Element { attrs = sattrs; _ } ]; _ } ->
      check string "root attrs kept" "en" (List.assoc "lang" attrs);
      check string "student attrs kept" "s1" (List.assoc "id" sattrs)
  | _ -> Alcotest.fail "unexpected shape"

let test_utree_xml_roundtrip () =
  let u = School_xml.example4 in
  check bool "to_xml . of_xml" true (Xml.equal (Utree.to_xml u) (Xml.parse school_text))

let test_encode_full_roundtrip () =
  let u = School_xml.example4 in
  let b = Encode.to_binary_full u in
  check int "same node count" (Utree.size u) (Wm_trees.Btree.size b);
  let u2 = Encode.of_binary_full b in
  check bool "roundtrip" true (Xml.equal (Utree.to_xml u) (Utree.to_xml u2))

let test_encode_preorder_ids () =
  (* FCNS preorder = unranked preorder, so labels line up index by index. *)
  let u = School_xml.example4 in
  let b = Encode.to_binary_abstract u in
  for v = 0 to Utree.size u - 1 do
    let expected = if Utree.is_text u v then Encode.text_letter else Utree.label u v in
    check string (Printf.sprintf "node %d" v) expected (Wm_trees.Btree.label_name b v)
  done

let test_encode_abstract_alphabet () =
  let u = School_xml.example4 in
  check (list string) "alphabet"
    [ "#text"; "exam"; "firstname"; "lastname"; "school"; "student" ]
    (Encode.abstract_alphabet u)

let test_pattern_parse () =
  let p = Pattern.parse "school/student[firstname=$a]/exam" in
  check (list string) "path" [ "school"; "student"; "exam" ]
    (List.map snd p.Pattern.steps);
  check bool "all child axes" true
    (List.for_all (fun (a, _) -> a = Pattern.Child) p.Pattern.steps);
  check int "pred step" 1 p.Pattern.pred_step;
  check string "pred tag" "firstname" p.Pattern.pred_tag;
  check string "roundtrip" "school/student[firstname=$a]/exam" (Pattern.to_string p)

let test_pattern_parse_descendant () =
  let p = Pattern.parse "school//student[firstname=$a]/exam" in
  (match p.Pattern.steps with
  | [ (Pattern.Child, "school"); (Pattern.Descendant, "student");
      (Pattern.Child, "exam") ] -> ()
  | _ -> Alcotest.fail "unexpected steps");
  check string "roundtrip" "school//student[firstname=$a]/exam"
    (Pattern.to_string p)

let test_pattern_parse_errors () =
  List.iter
    (fun s ->
      match Pattern.parse s with
      | exception Pattern.Parse_error _ -> ()
      | _ -> Alcotest.fail ("should not parse: " ^ s))
    [ "school/student"; "a[b=$x]/c[d=$y]"; "a[b]/c"; "a///b[c=$x]/d"; "";
      "//a[b=$x]/c" ]

(* Malformed paths name their defect instead of being accepted, repaired
   or reported as something else. *)
let parse_fails s want =
  match Pattern.parse s with
  | exception Pattern.Parse_error m -> check string s want m
  | p -> Alcotest.failf "%S parsed as %S" s (Pattern.to_string p)

let test_parse_empty_tag () =
  parse_fails "a/[k=$x]" "step \"[k=$x]\" has no tag"

let test_parse_trailing_slash () =
  parse_fails "a/b[k=$x]/" "pattern cannot end with /";
  parse_fails "a/b[k=$x]//" "pattern cannot end with /"

let test_parse_space_in_tag () =
  parse_fails "a/b [k=$x]" "tag \"b \" is not an XML name";
  parse_fails "a/b[k =$x]" "predicate tag \"k \" is not an XML name";
  (* constant values are text and may hold spaces *)
  let p = Pattern.parse "a/b[k=$x][t=New York]/c" in
  check (list string) "constant with a space" [ "New York" ] (Pattern.constants p)

let test_parse_empty_parameter () =
  parse_fails "a/b[k=$]" "empty parameter name";
  parse_fails "a/b[k=$x y]" "parameter name \"x y\" is not an XML name"

let test_parse_leading_slash () =
  parse_fails "/a/b[k=$x]"
    "pattern cannot start with /: its first step is the document root";
  parse_fails "//a/b[k=$x]" "pattern cannot start with //"

let test_example4_f_robert () =
  (* The paper: f(Robert, psi) = 28 on the original document. *)
  let u = School_xml.example4 in
  let p = School_xml.example4_pattern in
  check int "f(Robert) = 28" 28 (Pattern.f_value p u "Robert");
  check int "f(John) = 11" 11 (Pattern.f_value p u "John");
  check int "f(Nobody) = 0" 0 (Pattern.f_value p u "Nobody")

let test_example4_distorted () =
  (* The second document of Example 4 (15 and 13): f(Robert) = 28 with
     distortion... the marked copy has f = 28 too (15+13); the paper says
     "has distortion 1 on the second" reading 15+13=28 vs 16+12=28 —
     distortion on the pair query is 0, each weight moved by 1.  Check the
     1-local distortion and the f values. *)
  let u = School_xml.example4 in
  let w = Utree.weights u in
  let exams = Utree.value_nodes u in
  let robert_exams = List.filter (fun v -> Utree.value_of u v <> Some 11) exams in
  let w' =
    match robert_exams with
    | [ e1; e2 ] ->
        Weighted.apply_marks w [ (Tuple.singleton e1, -1); (Tuple.singleton e2, 1) ]
    | _ -> Alcotest.fail "expected two Robert exams"
  in
  let u' = Utree.with_weights u w' in
  check bool "1-local" true (Weighted.is_local_distortion ~c:1 w w');
  check int "f(Robert) preserved" 28
    (Pattern.f_value School_xml.example4_pattern u' "Robert")

(* A nested school: students sit inside <class> groups at varying depth. *)
let nested_school =
  let student f l e =
    Xml.element "student"
      [
        Xml.element "firstname" [ Xml.text f ];
        Xml.element "lastname" [ Xml.text l ];
        Xml.element "exam" [ Xml.int_text e ];
      ]
  in
  Utree.of_xml
    (Xml.element "school"
       [
         Xml.element "class"
           [
             student "John" "Doe" 11;
             Xml.element "group" [ student "Robert" "Durant" 16 ];
           ];
         Xml.element "class" [ student "Robert" "Smith" 12 ];
       ])

let test_pattern_descendant_eval () =
  let u = nested_school in
  (* The child-axis pattern finds nothing: students are not direct
     children of school. *)
  let flat = Pattern.parse "school/student[firstname=$a]/exam" in
  check int "child axis misses nested" 0 (Pattern.f_value flat u "Robert");
  (* The descendant-axis pattern finds them all. *)
  let deep = Pattern.parse "school//student[firstname=$a]/exam" in
  check int "f(Robert) = 28" 28 (Pattern.f_value deep u "Robert");
  check int "f(John) = 11" 11 (Pattern.f_value deep u "John");
  check int "three params" 3 (List.length (Pattern.structural_params deep u))

let test_pattern_descendant_automaton () =
  let u = nested_school in
  let deep = Pattern.parse "school//student[firstname=$a]/exam" in
  let alphabet = Encode.abstract_alphabet u in
  let q = Pattern.compile deep ~alphabet in
  let b = Encode.to_binary_abstract u in
  let n = Utree.size u in
  for a = 0 to n - 1 do
    let direct = if Utree.is_text u a then Pattern.eval_node deep u a else [] in
    for v = 0 to n - 1 do
      check bool
        (Printf.sprintf "(a=%d,v=%d)" a v)
        (List.mem v direct)
        (Wm_trees.Tree_query.member q b (Tuple.singleton a) (Tuple.singleton v))
    done
  done

let test_pattern_descendant_result_step () =
  (* The result step itself may use the descendant axis:
     school//class[name=$a]//exam sums exams anywhere under the class. *)
  let u =
    Utree.of_xml
      (Xml.parse
         {|<school>
             <class><name>A</name>
               <group><exam>10</exam></group>
               <exam>5</exam>
             </class>
             <class><name>B</name><exam>7</exam></class>
           </school>|})
  in
  let p = Pattern.parse "school//class[name=$a]//exam" in
  check int "f(A) over nested exams" 15 (Pattern.f_value p u "A");
  check int "f(B)" 7 (Pattern.f_value p u "B");
  (* Automaton agreement on this shape too. *)
  let q = Pattern.compile p ~alphabet:(Encode.abstract_alphabet u) in
  let b = Encode.to_binary_abstract u in
  let n = Utree.size u in
  for a = 0 to n - 1 do
    let direct = if Utree.is_text u a then Pattern.eval_node p u a else [] in
    for v = 0 to n - 1 do
      check bool
        (Printf.sprintf "(a=%d,v=%d)" a v)
        (List.mem v direct)
        (Wm_trees.Tree_query.member q b (Tuple.singleton a) (Tuple.singleton v))
    done
  done

let test_biblio_workload () =
  let doc = Biblio_xml.generate (Wm_util.Prng.create 7) ~articles:24 () in
  let p = Biblio_xml.pattern in
  check int "24 structural params" 24
    (List.length (Pattern.structural_params p doc));
  (* Weights = citation counts only (year labels are non-numeric). *)
  check int "24 value nodes" 24 (List.length (Utree.value_nodes doc));
  (* f over an author sums that author's citation counts. *)
  let total =
    List.fold_left
      (fun acc a ->
        if Utree.label doc a = "Codd" then
          acc
          + List.fold_left
              (fun s v -> s + Option.value ~default:0 (Utree.value_of doc v))
              0 (Pattern.eval_node p doc a)
        else acc)
      0
      (Pattern.structural_params p doc)
  in
  check int "value-level = union of node-level" total
    (Pattern.f_value p doc "Codd")

let test_wrong_seed_reads_garbage () =
  (* The seed is the secret: a detector (or attacker) replaying preparation
     with the wrong seed selects different pairs and decodes noise. *)
  let ws = Wm_workload.Random_struct.regular_rings (Wm_util.Prng.create 3) ~n:80 in
  let q = Wm_workload.Paper_examples.figure1_query in
  let prep seed =
    match
      Wm_watermark.Local_scheme.prepare
        ~options:{ Wm_watermark.Local_scheme.default_options with seed } ws q
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let owner = prep 111 and intruder = prep 222 in
  let cap =
    min
      (Wm_watermark.Local_scheme.capacity owner)
      (Wm_watermark.Local_scheme.capacity intruder)
  in
  let cap = min 12 cap in
  let message = Wm_util.Codec.random (Wm_util.Prng.create 1) cap in
  let marked = Wm_watermark.Local_scheme.mark owner message ws.Weighted.weights in
  let right =
    Wm_watermark.Local_scheme.detect_weights owner
      ~original:ws.Weighted.weights ~suspect:marked ~length:cap
  in
  let wrong =
    Wm_watermark.Local_scheme.detect_weights intruder
      ~original:ws.Weighted.weights ~suspect:marked ~length:cap
  in
  check bool "right seed decodes" true (Wm_util.Bitvec.equal right message);
  check bool "wrong seed does not" false (Wm_util.Bitvec.equal wrong message)

let test_pattern_constant_predicates () =
  (* school/student[firstname=$a][lastname=Smith]/exam: only Smith rows. *)
  let u = School_xml.example4 in
  let p = Pattern.parse "school/student[firstname=$a][lastname=Smith]/exam" in
  check (Alcotest.list string) "constants" [ "Smith" ] (Pattern.constants p);
  check string "roundtrip" "school/student[firstname=$a][lastname=Smith]/exam"
    (Pattern.to_string p);
  (* Robert Smith has 12, Robert Durant 16: the filter keeps only Smith. *)
  check int "f(Robert) with Smith filter" 12 (Pattern.f_value p u "Robert");
  check int "f(John) filtered out" 0 (Pattern.f_value p u "John");
  (* And the compiled automaton agrees, over the constant-aware
     alphabet. *)
  let constants = Pattern.constants p in
  let q = Pattern.compile p ~alphabet:(Encode.abstract_alphabet ~constants u) in
  let b = Encode.to_binary_abstract ~constants u in
  let n = Utree.size u in
  for a = 0 to n - 1 do
    let direct = if Utree.is_text u a then Pattern.eval_node p u a else [] in
    for v = 0 to n - 1 do
      check bool
        (Printf.sprintf "(a=%d,v=%d)" a v)
        (List.mem v direct)
        (Wm_trees.Tree_query.member q b (Tuple.singleton a) (Tuple.singleton v))
    done
  done

let test_pattern_constant_collision () =
  (* A parameter whose text equals a constant must still work: filter on
     lastname=Robert while the parameter is a firstname that can also be
     "Robert". *)
  let u =
    Utree.of_xml
      (Xml.parse
         {|<school><student><firstname>Robert</firstname><lastname>Robert</lastname><exam>9</exam></student><student><firstname>Robert</firstname><lastname>Doe</lastname><exam>5</exam></student></school>|})
  in
  let p = Pattern.parse "school/student[firstname=$a][lastname=Robert]/exam" in
  check int "direct" 9 (Pattern.f_value p u "Robert");
  let constants = Pattern.constants p in
  let q = Pattern.compile p ~alphabet:(Encode.abstract_alphabet ~constants u) in
  let b = Encode.to_binary_abstract ~constants u in
  let n = Utree.size u in
  for a = 0 to n - 1 do
    let direct = if Utree.is_text u a then Pattern.eval_node p u a else [] in
    for v = 0 to n - 1 do
      check bool
        (Printf.sprintf "(a=%d,v=%d)" a v)
        (List.mem v direct)
        (Wm_trees.Tree_query.member q b (Tuple.singleton a) (Tuple.singleton v))
    done
  done

let test_pipeline_constant_pattern () =
  (* End-to-end marking with a constant filter in the registered query. *)
  let doc = School_xml.generate (Prng.create 12) ~students:80 () in
  let p = Pattern.parse "school/student[firstname=$a][lastname=Name0007]/exam" in
  match Wm_watermark.Pipeline.prepare_xml doc p with
  | Error e ->
      (* Tiny active sets may legitimately fail; the parse/eval side is the
         point here. *)
      check bool "informative error" true (String.length e > 0)
  | Ok xs ->
      let cap = Wm_watermark.Tree_scheme.capacity xs.Wm_watermark.Pipeline.scheme in
      check bool "capacity >= 1" true (cap >= 1)

let test_pattern_structural_params () =
  let u = School_xml.example4 in
  let p = School_xml.example4_pattern in
  let params = Pattern.structural_params p u in
  check int "three name nodes" 3 (List.length params);
  check (list string) "labels" [ "John"; "Robert"; "Robert" ]
    (List.sort compare (List.map (Utree.label u) params))

let test_pattern_automaton_agrees () =
  (* The compiled automaton must agree with the direct evaluator on every
     (structural parameter, candidate result) pair — Lemma 2 in action on
     Example 4 plus random documents. *)
  let p = School_xml.example4_pattern in
  let docs =
    School_xml.example4
    :: List.init 4 (fun i ->
           School_xml.generate (Prng.create (50 + i)) ~students:(2 + i) ())
  in
  let alphabet = Encode.abstract_alphabet School_xml.example4 in
  let q = Pattern.compile p ~alphabet in
  List.iter
    (fun u ->
      let b = Encode.to_binary_abstract u in
      let n = Utree.size u in
      for a = 0 to n - 1 do
        let direct =
          if Utree.is_text u a then Pattern.eval_node p u a else []
        in
        for v = 0 to n - 1 do
          let auto_says =
            Wm_trees.Tree_query.member q b (Tuple.singleton a) (Tuple.singleton v)
          in
          check bool
            (Printf.sprintf "(a=%d,v=%d)" a v)
            (List.mem v direct) auto_says
        done
      done)
    docs

let test_pattern_compiled_size () =
  (* The automaton should be small — pattern queries are the "m states"
     of Theorem 5, and |W|/4m pairs depend on m staying modest. *)
  let p = School_xml.example4_pattern in
  let alphabet = Encode.abstract_alphabet School_xml.example4 in
  let q = Pattern.compile p ~alphabet in
  check bool "at most 60 states" true
    (Wm_trees.Dta.nstates (Wm_trees.Tree_query.automaton q) <= 60)

(* Compiled pattern automata, pinned by digest (see Test_trees.dta_digest):
   over the document's alphabet and over it plus four extra tags. *)
let digest_cases =
  lazy
    (let class_doc =
       Utree.of_xml
         (Xml.parse
            {|<school><class><name>A</name><group><exam>10</exam></group><exam>5</exam></class><class><name>B</name><exam>7</exam></class></school>|})
     in
     let biblio = Biblio_xml.generate (Prng.create 7) ~articles:24 () in
     let example4 = School_xml.example4 in
     [
       ( Biblio_xml.pattern, biblio,
         "d20eec1584bfb1a26ceed65cc52292ab", "20b7c86ab88e8ab20d4ac591d30cbe03" );
       ( School_xml.example4_pattern, example4,
         "3d892ec122685329c00b2727caf98369", "ba40eb554ba558710d6b3957019bc00d" );
       ( Pattern.parse "school//student[firstname=$a]/exam", example4,
         "1adadb0ad43538bc90b3e5c6ebfaef68", "ac4187fc0840b73a1416a507cc445830" );
       ( Pattern.parse "school/student[firstname=$a][lastname=Smith]/exam", example4,
         "6fae763ebcef13ce52d1e03ea6ffe314", "deca4fcbe062cc758445d7dab98cf949" );
       ( Pattern.parse "school//student[firstname=$a][lastname=Smith]/exam", example4,
         "7d2692240a29b3c81d2bf705482f2617", "88c91e3676c4425e0fb0943d6355f112" );
       ( Pattern.parse "school//class[name=$a]//exam", class_doc,
         "9a07ffc610f45413c05697f411c81709", "600f03ca1e9177651fd6c97fb96416cb" );
     ])

let test_pattern_digests () =
  List.iter
    (fun (p, doc, plain, extended) ->
      let alphabet =
        Encode.abstract_alphabet ~constants:(Pattern.constants p) doc
      in
      List.iter
        (fun (alphabet, want) ->
          let q = Pattern.compile p ~alphabet in
          check string
            (Printf.sprintf "%s over %d letters" (Pattern.to_string p)
               (List.length alphabet))
            want
            (Test_trees.dta_digest (Wm_trees.Tree_query.automaton q)))
        [ (alphabet, plain); (alphabet @ Test_trees.extra_tags, extended) ])
    (Lazy.force digest_cases)

(* Child and descendant steps compile through the [Child] / [Desc] atoms;
   Pattern_ref keeps the set-quantifier encoding they replaced.  Both
   automata are minimal, so equal size and equal language make them
   isomorphic. *)
let biblio_descendant_result =
  lazy (Pattern.parse "bibliography//article[author=$a]//citations")

let biblio_constant_filter =
  lazy (Pattern.parse "bibliography//article[author=$a][title=On Problem 0003]/citations")

let test_pattern_compile_matches_ref () =
  let biblio = Biblio_xml.generate (Prng.create 7) ~articles:24 () in
  let cases =
    List.map (fun (p, doc, _, _) -> (p, doc)) (Lazy.force digest_cases)
    @ [ (Lazy.force biblio_descendant_result, biblio);
        (Lazy.force biblio_constant_filter, biblio) ]
  in
  List.iter
    (fun (p, doc) ->
      let alphabet = Encode.abstract_alphabet ~constants:(Pattern.constants p) doc in
      List.iter
        (fun alphabet ->
          let name =
            Printf.sprintf "%s over %d letters" (Pattern.to_string p)
              (List.length alphabet)
          in
          let auto q = Wm_trees.Tree_query.automaton q in
          let d = auto (Pattern.compile p ~alphabet)
          and r = auto (Pattern_ref.compile p ~alphabet) in
          check int (name ^ ": states") (Wm_trees.Dta.nstates r) (Wm_trees.Dta.nstates d);
          check bool (name ^ ": same language") true (Wm_trees.Dta.equivalent d r))
        [ alphabet; alphabet @ Test_trees.extra_tags ])
    cases

(* Everything the tree scheme derives from the automaton — pairs,
   regions, report and the marked document — is the same under either
   encoding. *)
let test_pattern_scheme_matches_ref () =
  let biblio =
    List.map (fun articles -> Biblio_xml.generate (Prng.create articles) ~articles ())
      [ 24; 60; 200 ]
  in
  let cases =
    List.concat_map
      (fun p -> List.map (fun doc -> (p, doc)) biblio)
      [ Biblio_xml.pattern; Lazy.force biblio_descendant_result;
        Lazy.force biblio_constant_filter ]
    @ [ (School_xml.example4_pattern,
         School_xml.generate (Prng.create 3) ~students:150 ()) ]
  in
  let module Ts = Wm_watermark.Tree_scheme in
  let outputs options tree q doc =
    match Ts.prepare ~options tree q with
    | Error e -> Error e
    | Ok s ->
        let message = Codec.random (Prng.create 5) (Ts.capacity s) in
        let marked = Utree.with_weights doc (Ts.mark s message (Utree.weights doc)) in
        Ok (Ts.pairs s, Ts.regions s, Ts.report s,
            Digest.to_hex (Digest.string (Xml.to_string (Utree.to_xml marked))))
  in
  List.iter
    (fun (p, doc) ->
      let constants = Pattern.constants p in
      let tree = Encode.to_binary_abstract ~constants doc in
      let alphabet = Encode.abstract_alphabet ~constants doc in
      let q = Pattern.compile p ~alphabet and r = Pattern_ref.compile p ~alphabet in
      List.iter
        (fun options ->
          check bool
            (Printf.sprintf "%s on %d nodes, block size %s" (Pattern.to_string p)
               (Utree.size doc)
               (match options.Ts.block_size with
               | None -> "2m" | Some b -> string_of_int b))
            true
            (outputs options tree q doc = outputs options tree r doc))
        [ Ts.default_options; { Ts.block_size = Some 6; pairs_per_block = 2 } ])
    cases

(* Properties *)

let prop_xml_roundtrip =
  QCheck.Test.make ~count:40 ~name:"random school xml roundtrips"
    QCheck.(int_range 1 20)
    (fun n ->
      let u = School_xml.generate (Prng.create n) ~students:n () in
      let s = Xml.to_string (Utree.to_xml u) in
      Xml.equal (Xml.parse s) (Utree.to_xml u))

let prop_encode_roundtrip =
  QCheck.Test.make ~count:40 ~name:"FCNS encode/decode roundtrips"
    QCheck.(int_range 1 15)
    (fun n ->
      let u = School_xml.generate (Prng.create (100 + n)) ~students:n () in
      let b = Encode.to_binary_full u in
      Xml.equal (Utree.to_xml (Encode.of_binary_full b)) (Utree.to_xml u))

let prop_value_query_is_union =
  QCheck.Test.make ~count:30 ~name:"value answer = union of node answers"
    QCheck.(int_range 1 12)
    (fun n ->
      let u = School_xml.generate (Prng.create (200 + n)) ~students:n () in
      let p = School_xml.example4_pattern in
      List.for_all
        (fun value ->
          let by_value = Pattern.eval_value p u value in
          let by_union =
            Pattern.structural_params p u
            |> List.filter (fun a -> Utree.label u a = value)
            |> List.concat_map (Pattern.eval_node p u)
            |> List.sort_uniq compare
          in
          by_value = by_union)
        [ "John"; "Robert"; "Alice"; "Zed" ])

let suite =
  [
    ("xml parse basic", `Quick, test_parse_basic);
    ("xml parse/print roundtrip", `Quick, test_parse_roundtrip);
    ("xml attributes", `Quick, test_parse_attributes);
    ("xml comments and PI skipped", `Quick, test_parse_misc_skipped);
    ("xml rejects junk", `Quick, test_parse_errors);
    ("xml entity escaping", `Quick, test_entities_roundtrip);
    ("utree shape", `Quick, test_utree_shape);
    ("utree value nodes", `Quick, test_utree_values);
    ("utree weight rewrite", `Quick, test_utree_with_weights);
    ("utree/xml roundtrip", `Quick, test_utree_xml_roundtrip);
    ("utree attributes survive marking", `Quick, test_utree_attributes_survive_marking);
    ("encode full roundtrip", `Quick, test_encode_full_roundtrip);
    ("encode preserves preorder ids", `Quick, test_encode_preorder_ids);
    ("encode abstract alphabet", `Quick, test_encode_abstract_alphabet);
    ("pattern parse", `Quick, test_pattern_parse);
    ("pattern parse descendant axis", `Quick, test_pattern_parse_descendant);
    ("pattern parse errors", `Quick, test_pattern_parse_errors);
    ("pattern descendant evaluation", `Quick, test_pattern_descendant_eval);
    ("pattern descendant automaton", `Slow, test_pattern_descendant_automaton);
    ("pattern descendant result step", `Slow, test_pattern_descendant_result_step);
    ("bibliography workload", `Quick, test_biblio_workload);
    ("pattern constant predicates", `Slow, test_pattern_constant_predicates);
    ("pattern constant/parameter collision", `Slow, test_pattern_constant_collision);
    ("pipeline with constant filter", `Slow, test_pipeline_constant_pattern);
    ("wrong seed decodes garbage", `Quick, test_wrong_seed_reads_garbage);
    ("example 4: f(Robert) = 28", `Quick, test_example4_f_robert);
    ("example 4: marked copy", `Quick, test_example4_distorted);
    ("pattern structural params", `Quick, test_pattern_structural_params);
    ("pattern automaton agrees with evaluator", `Slow, test_pattern_automaton_agrees);
    ("pattern automaton is small", `Slow, test_pattern_compiled_size);
    ("pattern automata are bit-identical", `Quick, test_pattern_digests);
    ("pattern compile = set-quantifier ref", `Slow, test_pattern_compile_matches_ref);
    ("pattern scheme = set-quantifier ref", `Slow, test_pattern_scheme_matches_ref);
    ("pattern parse: empty tag", `Quick, test_parse_empty_tag);
    ("pattern parse: trailing slash", `Quick, test_parse_trailing_slash);
    ("pattern parse: space in a tag", `Quick, test_parse_space_in_tag);
    ("pattern parse: empty parameter name", `Quick, test_parse_empty_parameter);
    ("pattern parse: leading slash", `Quick, test_parse_leading_slash);
    QCheck_alcotest.to_alcotest prop_xml_roundtrip;
    QCheck_alcotest.to_alcotest prop_encode_roundtrip;
    QCheck_alcotest.to_alcotest prop_value_query_is_union;
  ]
