(** Labeled ordered binary trees (Section 4).

    A Sigma-tree is a binary tree each of whose nodes carries exactly one
    letter of a finite alphabet Sigma.  Nodes are integers [0 .. size-1] in
    preorder; every query about shape (children, ancestorship, lca) is O(1)
    after construction. *)

type t

type spec = N of string * spec option * spec option
(** Algebraic description used to build trees: label, left child, right
    child. *)

val leaf : string -> spec
val node1 : string -> spec -> spec
(** Single left child. *)

val node : string -> spec -> spec -> spec

val of_spec : spec -> t
(** Builds the tree; the alphabet is the set of labels occurring, sorted. *)

val of_spec_with_alphabet : string list -> spec -> t
(** Same, but with a fixed alphabet (a superset of the labels used) so that
    automata compiled for that alphabet apply.  @raise Invalid_argument if a
    label is missing from the list. *)

val size : t -> int
val root : t -> int
val alphabet : t -> string array

val label : t -> int -> int
(** Label id of a node (index into {!alphabet}). *)

val label_name : t -> int -> string

val left : t -> int -> int option
val right : t -> int -> int option
val parent : t -> int -> int option
val depth : t -> int -> int

val is_leaf : t -> int -> bool

val ancestor_or_equal : t -> int -> int -> bool
(** [ancestor_or_equal t x y]: x lies on the path from the root to y
    (inclusive) — the reflexive tree order. *)

val strictly_below : t -> int -> int -> bool
(** The paper's [x <^T y] (transitive closure of the child relations):
    [strictly_below t x y] iff y is a proper descendant of x. *)

val lca : t -> int -> int -> int

val postorder : t -> int array
(** Node ids in postorder — the evaluation order of bottom-up automata. *)

val subtree_nodes : t -> int -> int list
(** Nodes of the subtree rooted at the given node, ascending. *)

val subtree_size : t -> int -> int

val nodes_with_label : t -> string -> int list

val to_structure : t -> Structure.t
(** Relational view over schema {S1/2, S2/2, Leq/2, Child/2, Desc/2, one
    unary symbol per letter}: feeds the MSO oracle of {!Wm_logic.Mso}.
    [Leq] is the reflexive tree order; [Child] and [Desc] are the unranked
    child and proper-descendant relations of the first-child/next-sibling
    reading (see {!Mso_compile}). *)

val pp : Format.formatter -> t -> unit
(** Indented rendering, one node per line. *)
