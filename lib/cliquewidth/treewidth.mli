(** Tree decompositions.

    Theorem 4's last step: "structures with tree-width k have clique-width
    at most 2^k, and the previous remark applies."  This module supplies
    the tree-width side: decomposition values with an exact validity
    checker and the min-degree elimination heuristic, which produces valid
    decompositions (an upper bound on the true width, exact on trees,
    rings and other chordal-ish families the experiments use).  It is the
    only tree-decomposition code in the system.  Together with
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
    minimum-degree vertex (lowest id on ties), turning its neighborhood
    into a clique; bags are the elimination cliques, glued in elimination
    order (one tree, even on disconnected structures).  Always valid
    (checked by the tests); the width is an upper bound on the true
    tree-width, exact on chordal graphs.  The next vertex comes from a
    priority set keyed on (degree, id) and only the eliminated vertex's
    neighbors are re-keyed, so choosing vertices costs O(log n) per
    re-key instead of a rescan of every alive vertex per step; the rest
    is the fill work of building the cliques.  Timed by the Obs timer
    [tw.eliminate]; counter [tw.key_updates] counts the re-keyed
    neighbors. *)

val heuristic_width : Structure.t -> int
(** [width (by_min_degree g)]. *)
