(** Frozen min-degree elimination: the linear-scan loop
    {!Wm_cliquewidth.Treewidth.by_min_degree} replaced, kept as the
    reference its bags and tree edges must equal.  Each step rescans
    every alive vertex for the minimum (degree, id), so it is quadratic
    or worse in the number of vertices. *)

type t = {
  bags : int array array;
      (** bag of elimination step [s]: the elimination clique, sorted *)
  edges : (int * int) list;  (** tree edges between bag indices *)
}

val eliminate : Gaifman.t -> t
(** Eliminate a minimum-degree alive vertex (lowest id on ties) until
    none is left, turning its remaining neighborhood into a clique.
    Bags are the elimination cliques; each bag attaches to the bag of
    its earliest-eliminated remaining member, and component-final bags
    glue to the last bag. *)
