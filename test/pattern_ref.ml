(* The pattern-to-MSO translation as it stood before Lemma 2's compiler
   gained the unranked [Child] and [Desc] atoms, kept verbatim as a test
   oracle: a child step is "S1, then an S2-chain" through a universal set
   quantifier, a descendant step "S1, then [Leq]".  Pattern.compile must
   yield an automaton of the same size accepting the same language
   (test_xml.ml). *)

open Wm_xml
open Pattern

let mso_rchain z y : Mso.t =
  (* y is z or reachable from z by S2 edges: every S2-closed set containing
     z contains y. *)
  Forall_set
    ( "X",
      Implies
        ( And
            ( In (z, "X"),
              Forall
                ( "u",
                  Forall
                    ( "w",
                      Implies
                        (And (In ("u", "X"), Atom ("S2", [ "u"; "w" ])), In ("w", "X"))
                    ) ) ),
          In (y, "X") ) )

let mso_child x y : Mso.t =
  (* y is an unranked child of x: first binary child of x, then sibling
     chain. *)
  Exists ("z", And (Atom ("S1", [ x; "z" ]), mso_rchain "z" y))

let mso_descendant x y : Mso.t =
  (* y is a proper unranked descendant of x: in the FCNS encoding, the
     binary subtree rooted at x's left child is exactly the forest of x's
     children. *)
  Exists ("z", And (Atom ("S1", [ x; "z" ]), Atom ("Leq", [ "z"; y ])))

let mso_step axis x y =
  match axis with Child -> mso_child x y | Descendant -> mso_descendant x y

let mso_root x : Mso.t =
  Forall ("r", Implies (Atom ("Leq", [ "r"; x ]), Eq ("r", x)))

let to_mso p =
  let k = List.length p.steps - 1 in
  let xvar i = Printf.sprintf "x%d" i in
  let conj = List.fold_left (fun a b -> Mso.And (a, b)) in
  let labels =
    List.mapi (fun i (_, tag) -> Mso.Atom (tag, [ xvar i ])) p.steps
  in
  let chain_steps =
    List.mapi
      (fun i (axis, _) -> (i, axis))
      p.steps
    |> List.filter_map (fun (i, axis) ->
           if i = 0 then None
           else Some (mso_step axis (xvar (i - 1)) (xvar i)))
  in
  (* A text node whose content equals a constant carries that constant's
     dedicated letter, so "is a text node" must accept every textual
     letter. *)
  let is_textual var =
    List.fold_left
      (fun acc v -> Mso.Or (acc, Mso.Atom (Encode.constant_letter v, [ var ])))
      (Mso.Atom (Encode.text_letter, [ var ]))
      (constants p)
  in
  let param_part =
    Mso.Exists
      ( "pp",
        conj
          (Mso.Atom (p.pred_tag, [ "pp" ]))
          [
            mso_child (xvar p.pred_step) "pp";
            mso_child "pp" "a";
            is_textual "a";
          ] )
  in
  let const_parts =
    List.map
      (fun (i, tag, value) ->
        (* exists a [tag] child of x_i with a text child carrying the
           constant's dedicated letter. *)
        Mso.Exists
          ( "cc",
            conj
              (Mso.Atom (tag, [ "cc" ]))
              [
                mso_child (xvar i) "cc";
                Mso.Exists
                  ( "ct",
                    Mso.And
                      ( mso_child "cc" "ct",
                        Mso.Atom (Encode.constant_letter value, [ "ct" ]) ) );
              ] ))
      p.const_preds
  in
  let result_part = Mso.And (mso_child (xvar k) "v", is_textual "v") in
  let body =
    conj (mso_root (xvar 0))
      (labels @ chain_steps @ const_parts @ [ param_part; result_part ])
  in
  let rec close i phi =
    if i > k then phi else close (i + 1) (Mso.Exists (xvar i, phi))
  in
  close 0 body

let compile p ~alphabet =
  let base = Array.of_list (List.sort_uniq compare alphabet) in
  let compiled = Wm_trees.Mso_compile.compile ~base ~free:[ "a"; "v" ] (to_mso p) in
  Wm_trees.Tree_query.of_compiled compiled ~params:[ "a" ] ~results:[ "v" ]
