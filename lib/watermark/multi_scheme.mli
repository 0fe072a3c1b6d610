(** Preserving several registered queries at once.

    The paper treats one query psi "without loss of generality, ...
    extension to several queries psi_1, ..., psi_k is straightforward by
    simple projection techniques".  Concretely: tag every parameter with
    its query's index, take canonical parameters per query, classes become
    vectors over all queries' canonical result sets, and eps-goodness is
    certified against every (query, parameter) pair.  A pair marking that
    survives selection then bounds the distortion of {e each} registered
    query by the budget simultaneously. *)

type options = Local_scheme.options

type t

type report = {
  queries : int;
  rho : int list;  (** locality rank used per query *)
  ntp : int list;  (** canonical parameters per query *)
  active : int;  (** |W| = union of the queries' active sets *)
  pairs_available : int;
  pairs_selected : int;
  budget : int;
  max_split : int;  (** worst split over all queries' parameters *)
}

val prepare :
  ?options:options -> Weighted.structure -> Query.t list -> (t, string) result
(** All queries must share the weight arity; at least one query; a
    given [options.rho] must be nonnegative. *)

val update :
  t ->
  old:Weighted.structure ->
  Weighted.structure ->
  Query.t list ->
  dirty:int list ->
  (t, string) result
(** Re-prepare after structural edits without recomputing the per-query
    type indexes or query memos from scratch: each index goes through
    {!Wm_relational.Neighborhood.reindex} over the reported dirty set and
    each query system through {!Query_system.refresh} at that query's own
    radius.  Bit-identical to [prepare] with the original options on the
    edited instance.  [queries] must be the list [t] was prepared with
    (same length, same order). *)

val report : t -> report
val capacity : t -> int
val pairs : t -> Pairing.pair list

val indexes : t -> Neighborhood.index list
(** Per-query neighborhood indexes (what {!update} maintains). *)

val mark : t -> Bitvec.t -> Weighted.t -> Weighted.t

val detect_weights :
  t -> original:Weighted.t -> suspect:Weighted.t -> length:int -> Bitvec.t
(** Reads the first [length] selected pairs straight from the suspect's
    weights ({!Detector.decode_weights}) — what the answers to the
    registered queries would reveal, since every pair endpoint is active
    in some query's result set. *)

val distortion : t -> Weighted.t -> Weighted.t -> (int * int) list
(** Per-query global distortion (query index, max |f' - f|) — for checking
    the simultaneous certificate. *)
