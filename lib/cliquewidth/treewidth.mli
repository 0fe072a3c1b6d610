(** Tree decompositions.

    Theorem 4's last step: "structures with tree-width k have clique-width
    at most 2^k, and the previous remark applies."  This module supplies
    the tree-width side: decomposition values with an exact validity
    checker, a classical elimination-ordering heuristic that produces valid
    decompositions (an upper bound on the true width), and exact widths for
    the families the experiments use.  Together with
    {!Cw_term.of_tree_graph} (trees have clique-width <= 3) it grounds the
    tree-width column of the E3 table in computed objects rather than
    formulas. *)

type t = {
  bags : int list array;  (** bag contents, sorted element ids *)
  edges : (int * int) list;  (** tree edges between bag indices *)
}

val width : t -> int
(** max bag size - 1. *)

val validate : Structure.t -> t -> (unit, string) result
(** The three tree-decomposition conditions against the structure's
    Gaifman graph: every element in some bag; every Gaifman edge inside
    some bag; for each element, the bags containing it form a connected
    subtree.  Also checks that [edges] is a tree over the bags. *)

val by_min_degree : Structure.t -> t
(** The min-degree elimination heuristic: repeatedly eliminate a
    minimum-degree vertex, turning its neighborhood into a clique; bags are
    the elimination cliques, glued in elimination order (one tree, even on
    disconnected structures).  Always valid (checked by the tests); the
    width is an upper bound on the true tree-width, exact on chordal
    graphs.  Delegates to {!Tdecomp.eliminate}. *)

val by_min_fill : Structure.t -> t
(** The min-fill elimination heuristic: eliminate the vertex whose
    neighborhood needs the fewest fill edges to become a clique (degree,
    then lowest id, as tie-breaks).  Often tighter than min-degree on
    near-chordal graphs; same validity guarantees. *)

val of_sphere : ?heuristic:Tdecomp.heuristic -> Gaifman.t -> t
(** Decompose a caller-provided (sub-)Gaifman graph — e.g. the CSR
    sphere graph the neighborhood fast-path context already built —
    without re-deriving adjacency from a structure.  [heuristic]
    defaults to [Min_degree]. *)

val heuristic_width : Structure.t -> int
(** [width (by_min_degree g)]. *)
