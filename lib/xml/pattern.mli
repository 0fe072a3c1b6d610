(** XPath-style parametric pattern queries (Example 4).

    The paper's running XML query is

    {v psi(a, v) = school/student[firstname=a]/exam v}

    — for a user-supplied first name [a], return the exam values of the
    matching students.  This module implements such single-path patterns
    with one parametric predicate and both XPath axes:

    {v tag_0/tag_1[...]//tag_i[ptag=$p]/.../tag_k v}

    ([/] steps to a child, [//] to any proper descendant.)

    Semantics: an {e anchor chain} x_0/x_1/.../x_k of elements labeled by
    the path with x_0 the document root, consecutive elements related by
    their step's axis; the {e structural parameter} a is a text child of a
    [ptag] child of x_i; the {e result} v is a text child of x_k of the
    same chain.  Final users address the parameter by value (["Robert"]);
    the query machinery works with the text {e node} — the value-level
    result set is the union over the parameter's occurrences (see
    DESIGN.md on how the distortion bound transfers).

    Two independent implementations are provided and cross-checked in the
    tests: a direct recursive evaluator on the unranked tree, and
    compilation to MSO over the binary encoding, hence (by Lemma 2) to a
    tree automaton — the input format of the Theorem 5 watermarking
    scheme.  In the first-child/next-sibling encoding, a child step is
    "left child, then a chain of right children" and a descendant step is
    "left child, then anywhere below"; each is one base atom of
    {!Wm_trees.Mso_compile} ([Child], [Desc]), so the formula has no set
    quantifier. *)

type axis = Child | Descendant

type t = {
  steps : (axis * string) list;
      (** the anchor chain, root first; the first step's axis is ignored
          (the root is fixed) *)
  pred_step : int;  (** index into [steps] where the predicate attaches *)
  pred_tag : string;  (** tag of the child element holding the parameter *)
  const_preds : (int * string * string) list;
      (** constant-value filters [(step, tag, value)], e.g.
          [student[lastname=Smith]]: the anchor at [step] must have a [tag]
          child whose text equals [value] *)
}

exception Parse_error of string

val parse : string -> t
(** [parse "school//student[firstname=$a][lastname=Smith]/exam"].  Exactly
    one parametric [[tag=$x]] predicate is required; any number of constant
    [[tag=value]] filters may accompany it.  Tags, predicate tags and the
    parameter name are XML names ({!Xml.is_name}); constant values are any
    non-empty text without [']'].  The path neither starts nor ends with
    [/]: its first step is the document root.
    @raise Parse_error otherwise, naming the defect. *)

val constants : t -> string list
(** The constant predicate values, sorted — pass them to
    {!Encode.to_binary_abstract} and {!Encode.abstract_alphabet} so the
    compiled automaton can read them. *)

val to_string : t -> string

(** {1 Direct evaluation on unranked trees} *)

val structural_params : t -> Utree.t -> int list
(** Text nodes that can act as parameter (the candidates for a). *)

val eval_node : t -> Utree.t -> int -> int list
(** W_a for a structural parameter node: result text nodes, ascending. *)

val eval_value : t -> Utree.t -> string -> int list
(** Value-level answer: union of [eval_node] over parameter nodes whose
    content equals the given value. *)

val f_value : t -> Utree.t -> string -> int
(** Sum of integer values of [eval_value] nodes — the f of Example 4
    ([f_value school "Robert" = 28] on the paper's document). *)

(** {1 Compilation to a tree automaton} *)

val to_mso : t -> Mso.t
(** The defining MSO formula over the FCNS binary encoding, free element
    variables ["a"] (parameter) then ["v"] (result). *)

val compile : t -> alphabet:string list -> Wm_trees.Tree_query.t
(** Compile for documents whose
    [Encode.abstract_alphabet ~constants:(constants p)] equals [alphabet].
    The resulting query has k = 1, s = 1 and runs on
    [Encode.to_binary_abstract ~constants:(constants p)] views. *)
