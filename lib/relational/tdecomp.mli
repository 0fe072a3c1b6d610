(** Elimination-ordering tree decompositions over CSR Gaifman graphs.

    The engine behind {!Wm_cliquewidth.Treewidth} (whole structures and
    single spheres, Theorem 4 tooling).  Graphs of at most 62 vertices
    run on word-sized bitmask adjacency, larger ones on integer sets;
    both give the same decomposition.

    All tie-breaks go to the lowest vertex id, so every decomposition is
    a deterministic function of its input graph. *)

type t = {
  bags : int array array;
      (** bag of elimination step [s]: the elimination clique, sorted *)
  edges : (int * int) list;  (** tree edges between bag indices *)
  step_of : int array;  (** elimination step (= own bag) of each vertex *)
  width : int;  (** max bag size - 1 (0 for the empty graph) *)
}

type heuristic = Min_degree | Min_fill

val width : t -> int

val eliminate : ?heuristic:heuristic -> Gaifman.t -> t
(** Eliminate all vertices in heuristic order ([Min_degree] by default;
    [Min_fill] picks the vertex adding the fewest fill edges, degree
    then id as tie-breaks), turning each eliminated vertex's remaining
    neighborhood into a clique.  Bags are the elimination cliques; each
    bag attaches to the bag of its earliest-eliminated remaining member,
    and component-final bags glue to the last bag, so the result is one
    tree even on disconnected graphs. *)
