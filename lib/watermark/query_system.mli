(** The interface watermarking schemes program against.

    Both instantiations of the paper — FO queries over relational
    structures (Section 3) and automaton queries over trees (Section 4) —
    present the same surface to a marker/detector: a set of possible
    parameters, a result-set function W_a, and weights.  A query system
    value captures that surface once, with memoized result sets (the
    evaluator is called once per parameter, and the cost is the substrate's
    to report, not to hide).

    The {e server} type models the data server of the 3-tier setting: the
    only thing a detector may touch.  A server answers a parameter with
    A_a = { (b, W(b)) : b in W_a } and nothing else; detectors reconstruct
    active weights exclusively through {!reconstruct}. *)

type t

val of_relational : Structure.t -> Query.t -> t
(** Parameters are all of U^r. *)

val of_tree : Wm_trees.Tree_query.t -> Wm_trees.Btree.t -> t
(** Parameters are all k-tuples of nodes.  The active set comes from
    {!Wm_trees.Tree_query.active} (two passes for k = s = 1) rather than
    from every parameter's result set. *)

val of_custom :
  params:Tuple.t list -> result_set:(Tuple.t -> Tuple.Set.t) ->
  weight_arity:int -> t
(** Escape hatch for synthetic families (the Remark 1 experiment). *)

val params : t -> Tuple.t list
val weight_arity : t -> int

val result_set : t -> Tuple.t -> Tuple.Set.t
(** W_a (memoized). *)

val active : t -> Tuple.t list
(** W as a sorted list. *)

val active_set : t -> Tuple.Set.t

val precompute : t -> unit
(** Force every memo (all result sets, the active set) eagerly, promoting
    params into a lock-free frozen map.  A query system is safe to share
    across {!Wm_par.Pool} domains with or without this call — cache misses
    on tuples outside [params] (survivable realignment asks those) go
    through an internal mutex — but precomputing keeps the common path
    lock-free.  Parallel call sites ({!Wm_watermark.Attack_suite.run}) call
    this before fanning out. *)

val refresh :
  t ->
  result_fn:(Tuple.t -> Tuple.Set.t) ->
  holds:(Tuple.t -> Tuple.t -> bool) ->
  params:Tuple.t list ->
  size:int ->
  affected:int list ->
  t
(** Edit-scoped cache carry-over: a query system for the edited substrate
    ([result_fn]/[params] evaluate there, [size] is its universe) whose
    memo is seeded from this one instead of starting cold.  A cached entry
    survives when its parameter tuple avoids [affected] (see
    {!Wm_relational.Neighborhood.affected_elements}) and stays in range;
    its result set is patched by dropping results touching the affected
    region and re-asking [holds param result] for every candidate result
    tuple that touches it.  Parameters inside the region are dropped and
    re-evaluated lazily.  Sound for queries local at the radius used to
    compute [affected] — the same assumption the scheme's type index makes
    (DESIGN.md 5.7). *)

val refresh_relational : t -> Structure.t -> Query.t -> affected:int list -> t
(** {!refresh} specialized to an FO query over the edited structure:
    membership probes run the query compiled once per refresh
    ({!Wm_logic.Eval.compile}) on the patched bindings. *)

val f : t -> Weighted.t -> Tuple.t -> int
(** f_(G,W)(a) = sum of weights over W_a. *)

(** {1 Servers} *)

type server = Tuple.t -> (Tuple.t * int) list
(** What a data server exposes to final users. *)

val server : t -> Weighted.t -> server
(** An honest server over the given (possibly marked, possibly attacked)
    weights. *)

val reconstruct : t -> server -> int Tuple.Map.t
(** Observed weight of every active element, obtained by querying the
    server on every parameter — the paper's "the active weights can always
    be recovered by asking A_a for all possible values of a".  When answers
    disagree across parameters (a cheating server), the value seen last in
    parameter order wins; honest servers are consistent. *)

val reconstruct_some : t -> server -> Tuple.t list -> int Tuple.Map.t
(** Like {!reconstruct} but asking only the listed parameters — a detector
    on a query budget (a real owner probing a pirate site cannot fire
    millions of requests).  Elements not covered by any asked parameter are
    absent from the map and read as silent carriers downstream. *)
