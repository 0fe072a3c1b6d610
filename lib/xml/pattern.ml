type axis = Child | Descendant

type t = {
  steps : (axis * string) list;
  pred_step : int;
  pred_tag : string;
  const_preds : (int * string * string) list;
}

exception Parse_error of string

let check_name what s =
  if s = "" then raise (Parse_error ("empty " ^ what));
  if not (Xml.is_name s) then
    raise (Parse_error (Printf.sprintf "%s %S is not an XML name" what s))

(* A segment is a tag followed by zero or more bracketed predicates:
   "student[firstname=$a][lastname=Smith]". *)
let parse_segment i seg =
  let b = Option.value (String.index_opt seg '[') ~default:(String.length seg) in
  let tag = String.sub seg 0 b in
  if tag = "" then raise (Parse_error (Printf.sprintf "step %S has no tag" seg));
  check_name "tag" tag;
  let params = ref [] and consts = ref [] in
  let pos = ref b in
  let n = String.length seg in
  while !pos < n do
    if seg.[!pos] <> '[' then raise (Parse_error "malformed predicate");
    let close =
      match String.index_from_opt seg !pos ']' with
      | Some c -> c
      | None -> raise (Parse_error "unterminated predicate")
    in
    let inside = String.sub seg (!pos + 1) (close - !pos - 1) in
    (match String.index_opt inside '=' with
    | Some e ->
        let k = String.sub inside 0 e in
        let v = String.sub inside (e + 1) (String.length inside - e - 1) in
        if k = "" || v = "" then raise (Parse_error "empty predicate part");
        check_name "predicate tag" k;
        if v.[0] = '$' then begin
          check_name "parameter name" (String.sub v 1 (String.length v - 1));
          params := (i, k) :: !params
        end
        else consts := (i, k, v) :: !consts
    | None -> raise (Parse_error "predicate must have the form [tag=$x] or [tag=value]"));
    pos := close + 1
  done;
  (tag, !params, !consts)

(* "a/b//c" splits on '/' into ["a"; "b"; ""; "c"]: an empty field means
   the following segment is reached by the descendant axis. *)
let parse s =
  let len = String.length s in
  if len = 0 then raise (Parse_error "empty pattern");
  if s.[0] = '/' then
    raise
      (Parse_error
         (if len > 1 && s.[1] = '/' then "pattern cannot start with //"
          else "pattern cannot start with /: its first step is the document root"));
  if s.[len - 1] = '/' then raise (Parse_error "pattern cannot end with /");
  let rec to_steps axis acc = function
    | [] -> List.rev acc
    | "" :: rest ->
        if axis = Descendant then raise (Parse_error "'///' is not a step");
        to_steps Descendant acc rest
    | seg :: rest -> to_steps Child ((axis, seg) :: acc) rest
  in
  let params = ref [] and consts = ref [] in
  let steps =
    List.mapi
      (fun i (axis, seg) ->
        let tag, ps, cs = parse_segment i seg in
        params := ps @ !params;
        consts := cs @ !consts;
        (axis, tag))
      (to_steps Child [] (String.split_on_char '/' s))
  in
  match !params with
  | [ (pred_step, pred_tag) ] ->
      { steps; pred_step; pred_tag; const_preds = List.rev !consts }
  | [] -> raise (Parse_error "pattern needs one [tag=$x] predicate")
  | _ -> raise (Parse_error "pattern supports a single parametric predicate")

let constants p =
  List.sort_uniq compare (List.map (fun (_, _, v) -> v) p.const_preds)

let to_string p =
  String.concat ""
    (List.mapi
       (fun i (axis, tag) ->
         let sep = if i = 0 then "" else match axis with Child -> "/" | Descendant -> "//" in
         let param = if i = p.pred_step then Printf.sprintf "[%s=$a]" p.pred_tag else "" in
         let cs =
           List.filter_map
             (fun (j, k, v) ->
               if j = i then Some (Printf.sprintf "[%s=%s]" k v) else None)
             p.const_preds
         in
         sep ^ tag ^ param ^ String.concat "" cs)
       p.steps)

(* ------------------------------------------------------------------ *)
(* Direct evaluation. *)

let element_children u v tag =
  List.filter
    (fun c -> (not (Utree.is_text u c)) && Utree.label u c = tag)
    (Utree.children u v)

let rec element_descendants u v tag =
  List.concat_map
    (fun c ->
      if Utree.is_text u c then []
      else
        (if Utree.label u c = tag then [ c ] else [])
        @ element_descendants u c tag)
    (Utree.children u v)

let matching u v (axis, tag) =
  match axis with
  | Child -> element_children u v tag
  | Descendant -> element_descendants u v tag

let text_children u v =
  List.filter (fun c -> Utree.is_text u c) (Utree.children u v)

(* Does an element satisfy a constant predicate [tag=value]? *)
let const_pred_holds u anchor tag value =
  List.exists
    (fun c -> List.exists (fun t -> Utree.label u t = value) (text_children u c))
    (element_children u anchor tag)

(* All anchor chains of the pattern, as lists of elements, root first. *)
let chains p u =
  match p.steps with
  | [] -> []
  | (_, root_tag) :: rest ->
      if Utree.is_text u (Utree.root u) || Utree.label u (Utree.root u) <> root_tag
      then []
      else
        let rec extend chain = function
          | [] -> [ List.rev chain ]
          | step :: more ->
              List.concat_map
                (fun c -> extend (c :: chain) more)
                (matching u (List.hd chain) step)
        in
        extend [ Utree.root u ] rest
        |> List.filter (fun chain ->
               List.for_all
                 (fun (i, tag, value) ->
                   const_pred_holds u (List.nth chain i) tag value)
                 p.const_preds)

let param_nodes_of_chain p u chain =
  let anchor = List.nth chain p.pred_step in
  List.concat_map (text_children u) (element_children u anchor p.pred_tag)

let structural_params p u =
  List.sort_uniq compare
    (List.concat_map (param_nodes_of_chain p u) (chains p u))

let eval_node p u a =
  let hits =
    List.filter
      (fun chain -> List.mem a (param_nodes_of_chain p u chain))
      (chains p u)
  in
  List.sort_uniq compare
    (List.concat_map
       (fun chain ->
         text_children u (List.nth chain (List.length p.steps - 1)))
       hits)

let eval_value p u value =
  let params =
    List.filter (fun a -> Utree.label u a = value) (structural_params p u)
  in
  List.sort_uniq compare (List.concat_map (eval_node p u) params)

let f_value p u value =
  List.fold_left
    (fun acc v ->
      match Utree.value_of u v with Some x -> acc + x | None -> acc)
    0 (eval_value p u value)

(* ------------------------------------------------------------------ *)
(* MSO compilation (over the FCNS binary encoding, abstract alphabet). *)

let mso_step axis x y : Mso.t =
  (* In the FCNS encoding the unranked children of x are the S2-spine of
     x's S1 child and its proper descendants that child's binary subtree:
     both are base atoms of Lemma 2's compiler. *)
  match axis with
  | Child -> Atom ("Child", [ x; y ])
  | Descendant -> Atom ("Desc", [ x; y ])

let mso_child = mso_step Child

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
  let compiled = Mso_compile.compile ~base ~free:[ "a"; "v" ] (to_mso p) in
  Tree_query.of_compiled compiled ~params:[ "a" ] ~results:[ "v" ]
