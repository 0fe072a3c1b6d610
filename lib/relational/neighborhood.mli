(** rho-neighborhoods and isomorphism types (Section 3).

    N_rho(c) is the substructure induced on the sphere S_rho(c), with the
    elements of the tuple c as distinguished constants.  Two tuples are
    ~rho-equivalent iff their neighborhoods are isomorphic; ntp(rho, G)
    counts the equivalence classes.  The local watermarking scheme picks one
    {e canonical parameter} per class (Theorem 3). *)

type nbh = {
  sub : Structure.t;  (** the induced substructure, renamed to 0..k-1 *)
  center : int list;  (** images of the tuple's elements in [sub] *)
  original : int array;  (** renaming: [original.(new_id) = old element] *)
}

val of_tuple : Structure.t -> Gaifman.t -> rho:int -> Tuple.t -> nbh
(** Materializes N_rho(c). *)

val equivalent :
  Structure.t -> Gaifman.t -> rho:int -> Tuple.t -> Tuple.t -> bool
(** The ~rho relation: isomorphism of the two neighborhoods. *)

type index = {
  rho : int;
  arity : int;  (** arity of the indexed tuples (0 when none) *)
  types : int Tuple.Map.t;  (** type id of every indexed tuple *)
  representatives : Tuple.t array;  (** representatives.(ty) has type ty *)
}
(** A computed type index over a set of tuples: type ids are dense in
    [0 .. ntp-1] and [representatives] realizes the paper's canonical
    parameter set S. *)

val index :
  ?sphere_cache:bool -> Structure.t -> rho:int -> Tuple.t list -> index
(** Types every listed tuple: pre-buckets by cheap invariants (sphere
    size, tuple count, degree multiset, center pattern) and by
    {!Iso.certificate}, then verifies with exact isomorphism inside each
    bucket.  Sphere extraction and in-bucket classification run on the
    {!Wm_par.Pool}; the result — type ids included — is bit-identical to
    the sequential one-job fold for every job count.

    The fast path (DESIGN.md 5.9) memoizes element spheres per call and
    dedupes the induced-substructure member scan across tuples sharing a
    sphere; [sphere_cache:false] disables both memo tables (same result,
    per-tuple recomputation — exists so tests can assert the identity). *)

val index_universe :
  ?sphere_cache:bool -> Structure.t -> rho:int -> arity:int -> index
(** Types all of U^arity, enumerated in a streaming fashion (no
    [n^arity] cons-list is ever materialized). *)

val affected_elements :
  old_gf:Gaifman.t -> gf:Gaifman.t -> rho:int -> dirty:int list -> int list
(** Elements within distance [rho] of a dirty element in the old {e or} new
    Gaifman graph, sorted.  A tuple none of whose elements is affected has
    the same rho-sphere — and hence neighborhood type — before and after
    the edits (DESIGN.md 5.7). *)

val reindex :
  ?threshold:float ->
  old:Structure.t ->
  Structure.t ->
  prev:index ->
  dirty:int list ->
  index
(** [reindex ~old g ~prev ~dirty] is [index_universe g ~rho:prev.rho
    ~arity:prev.arity] — bit-identical, type numbering and representatives
    included — computed incrementally from [prev], the universe index of the
    pre-edit structure [old], and the dirty set its edits reported (see
    {!Structure.apply_edits}).  Only tuples touching {!affected_elements}
    are re-materialized and re-bucketed; each one is matched against an
    {e anchor} (an untouched member) of every surviving old class before
    opening a fresh class, and a final sequential pass renumbers classes by
    first occurrence.  Falls back to a full rebuild when the affected
    tuples exceed [threshold] (default [0.5]) of the universe.  Only
    meaningful when [prev] indexes all of [old]'s U^arity. *)

val ntp : index -> int
(** Number of types = |S|. *)

val type_of : index -> Tuple.t -> int
(** @raise Not_found if the tuple was not indexed. *)

val all_tuples : Structure.t -> arity:int -> Tuple.t list
(** U^arity in lexicographic order (helper shared with the evaluator). *)
