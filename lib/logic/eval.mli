(** First-order model checking over finite structures, compiled.

    {!compile} and {!enumerate} do every lookup once: variables become
    slots of an [int array] environment (a fresh slot per binder, so
    shadowing is exact) and atoms their flattened relations.  Each
    quantified variable, and each result variable of {!enumerate}, then
    draws its candidate values from a {e guard} found in the formula
    it scopes over:
    - [x = y] with [y] bound gives [{y}];
    - a positive atom conjunct [R(..x..)] gives the [x] values of the
      tuples that match the bound positions (a hash index built at
      compile time; repeated [x] positions must agree, unbound ones are
      wildcards);
    - a conjunction takes its cheapest conjunct's guard, a disjunction
      the union of its disjuncts' guards when every disjunct has one;
    - [exists w. A] passes the guard of [A] through, either with [w] as
      a wildcard or unioned over [w]'s own candidates;
    - [forall x. A -> B] only tries the values guarded by [A].
    A variable without a guard tries the whole universe [0 .. n-1].  The
    compiled formula still checks every candidate, so results equal the
    brute-force semantics.  With a guard on every binder, evaluation
    touches only tuples adjacent to the bound values; the worst case
    (no guards) is the brute-force O(n^q) per assignment for quantifier
    rank q, and O(n^(q+s)) per parameter for s result variables.

    Compiled closures are safe to call from several domains at once:
    the indexes are built eagerly and never mutated, and each call
    allocates its own environment.  An unknown relation symbol or an
    unbound variable is not a compile-time error; it raises [Not_found]
    when evaluation reaches it.

    Observability: [fo.candidates] counts the values tried by binders and
    result variables, [fo.scans] the entries into a guardless one. *)

val compile : Structure.t -> string list -> Fo.t -> Tuple.t -> bool
(** [compile g vars phi] is a reusable test: [compile g vars phi t] holds
    iff G |= phi with [vars] bound pointwise to [t] (a repeated name takes
    its last position).  Partial application compiles once.
    @raise Invalid_argument when [t]'s length differs from [vars]'. *)

val enumerate :
  Structure.t -> params:string list -> results:string list -> Fo.t ->
  Tuple.t -> Tuple.Set.t
(** [enumerate g ~params ~results phi a] is the set of assignments of
    [results] (as tuples in that order) making [phi] true with [params]
    bound to [a].  Partial application up to [phi] compiles once.
    @raise Invalid_argument when [a]'s length differs from [params]'. *)

(** {1 One-shot evaluation} *)

type env
(** A partial assignment of variables to universe elements. *)

val empty_env : env
val bind : env -> string -> int -> env
val bind_all : env -> string list -> Tuple.t -> env
(** [bind_all env vars t] binds [vars] pointwise to the elements of [t];
    lengths must agree. *)

val lookup : env -> string -> int
(** @raise Not_found on unbound variables. *)

val holds : Structure.t -> env -> Fo.t -> bool
(** [holds g env phi]: G |= phi under [env], compiled for this one call.
    Every free variable of [phi] that evaluation reaches must be bound.
    @raise Not_found otherwise. *)

val satisfying :
  Structure.t -> env -> string list -> Fo.t -> Tuple.Set.t
(** [satisfying g env vars phi] enumerates the assignments of [vars] making
    [phi] true, as tuples in the order of [vars], with other free variables
    taken from [env]; {!enumerate} compiled for this one call. *)
