(** A reusable domain pool with deterministic combinators.

    Every hot path of the system — neighborhood typing, carrier
    evaluation, the attack grid — is per-item local work over an array
    whose items never communicate.  This module runs such loops on a pool
    of OCaml 5 domains while keeping one hard contract:

    {b Determinism.}  For every combinator, the result is bit-identical
    to the plain sequential loop, for every job count.  [parallel_map]
    and [parallel_mapi] write each slot of the output exactly where the
    sequential [Array.map] would, and [map_list] keeps list order.  At
    one job the pool is bypassed entirely and the ordinary sequential
    code runs — it is the reference semantics, and larger job counts
    are only allowed to be faster, never different.

    {b One job count per process.}  No combinator takes a job count:
    every one reads {!jobs}, resolved in priority order from
    {!set_jobs} (the [--jobs] CLI flag), then the [WMARK_JOBS]
    environment variable, then [Domain.recommended_domain_count ()].

    {b Nested sections run inline.}  A combinator called from inside a
    pool task — on a worker, or on a caller helping with queued work —
    runs the sequential loop in that task.  The outermost parallel
    section therefore owns the pool, and nesting never multiplies the
    number of queued tasks or batches.

    {b Sized to the job count.}  The pool holds [jobs ()] runners: the
    calling domain plus [jobs () - 1] worker domains, spawned at the
    first parallel call and grown (never shrunk) when a later
    {!set_jobs} asks for more.  Callers block until their batch
    completes, helping with queued work while they wait.  A task that
    raises does not wedge the pool: the first exception of a batch is
    re-raised in the caller once the batch has drained, and the workers
    survive for the next batch. *)

val default_jobs : unit -> int
(** [WMARK_JOBS] when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()].  A set-but-rejected value is
    reported once on stderr at startup rather than ignored silently. *)

val set_jobs : int option -> unit
(** Process-wide override (the [--jobs] flag); [None] restores the
    environment/hardware default.  Values below 1 are clamped to 1. *)

val jobs : unit -> int
(** The effective process-wide job count every combinator uses. *)

val parallel_map : ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map f a] is [Array.map f a], computed on up to [jobs ()]
    domains, or inline when called from inside a pool task.  [f] must
    be safe to call from several domains at once on distinct elements
    (pure functions over immutable data are). *)

val parallel_mapi : (int -> 'a -> 'b) -> 'a array -> 'b array
(** [Array.mapi] under the same contract. *)

val map_list : ('a -> 'b) -> 'a list -> 'b list
(** [List.map] via {!parallel_map}; order preserved. *)

val pool_size : unit -> int
(** Number of runners (worker domains + the calling domain) the pool
    can bring to bear: 1 before the first parallel call, then the
    largest {!jobs} () any parallel call has seen — a [set_jobs] above
    the first-call size spawns the missing domains rather than being
    clamped. *)
