(** The request engine behind [wmark serve] (DESIGN.md 5.11).

    Decodes frame payloads ({!Protocol}), dispatches them against the
    dataset {!Store}, and encodes responses.  [batch] frames go through
    the scheduler: maximal runs of consecutive read-only sub-requests
    execute concurrently on the {!Wm_par.Pool} against the last
    published dataset version, writers serialize in arrival order — so
    the response list is byte-identical at every job count.  Responses
    carry no timings; per-endpoint latency lands in [serve.lat.*]
    histograms ({!Wm_obs.Obs.histo}) and [serve.*] counters, surfaced by
    the [stats] endpoint and the CLI's [--stats]/[--trace-json]
    reporting. *)

type t

val create : ?dir:string -> unit -> t
(** [dir] enables [load]/[snapshot] default paths ([<dir>/<id>.qpwm]).
    Batched reads and inner parallel phases use the process-wide
    {!Wm_par.Pool.jobs}. *)

val store : t -> Store.t

val stopped : t -> bool
(** Set once a [shutdown] request has been handled; the transport loop
    should stop reading after writing the pending response. *)

val handle : t -> string -> string
(** Map one request frame payload to its response frame payload.  Never
    raises on malformed input — decoding and dispatch errors come back
    as [err] payloads. *)
