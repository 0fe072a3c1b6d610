(** The pre-fast-path neighborhood indexer, preserved as an executable
    reference (DESIGN.md 5.9).

    Everything here reproduces the original pipeline byte for byte:
    per-tuple {!Structure.induced} over {!Gaifman.sphere_tuple} with no
    sphere cache or member-scan sharing, three Gaifman-graph builds per
    tuple, hashed colour refinement run for size-many rounds, and
    [Hashtbl.hash] bucket keys.  Its only consumers are the property
    tests asserting the fast path is bit-identical to it, and bench
    experiment E23 measuring the speedup against it.  Observability is
    under [nbh.ref.*] so both pipelines can be diffed from one
    snapshot. *)

val index : Structure.t -> rho:int -> Tuple.t list -> Neighborhood.index
(** The original {!Neighborhood.index}: same result — type ids and
    representatives included — computed the slow way. *)

val index_universe :
  Structure.t -> rho:int -> arity:int -> Neighborhood.index
(** The original {!Neighborhood.index_universe}, including the
    [n^arity] cons-list enumeration. *)

val certificate : Structure.t -> int list -> int
(** The original hashed refinement certificate (exposed for tests that
    pin down its collision behaviour against {!Iso.certificate}). *)

val isomorphic : Structure.t -> int list -> Structure.t -> int list -> bool
(** The original exact test, with the quadratic forced-image scan. *)
