(** The Theorem 3 watermarking scheme: local queries on bounded-degree
    structures.

    Pipeline (Section 3): type every parameter by its rho-neighborhood,
    pick one canonical parameter per type, partition active elements into
    equal-class pairs, select an eps-good subset of pairs (worst-case split
    count <= ceil(1/eps), so {e every} message's global distortion is
    within budget), and embed message bits as pair orientations.  The
    detector replays the preparation (same structure, query and seed),
    queries the suspect server on every parameter, and reads each selected
    pair's weight-difference sign.

    Determinism contract: [prepare] is a deterministic function of
    (structure, query, options) — marker and detector derive the same pair
    list independently, which is what lets detection work from query
    answers alone. *)

type options = {
  seed : int;  (** drives pair selection; same seed -> same scheme *)
  rho : int option;
      (** locality rank; default: {!Wm_logic.Locality.best_rank} — the tight
          conjunctive-query rank when applicable, else the Gaifman bound *)
  epsilon : float;  (** distortion budget 1/eps; default 1.0 (budget 1) *)
  selection : [ `Greedy | `Random of int ];
      (** [`Random tries] retries the paper's probabilistic draw; [`Greedy]
          (default) admits pairs under the same certificate. *)
}

val default_options : options

type t
(** A prepared scheme: everything the marker and detector share. *)

type report = {
  degree : int;  (** Gaifman degree k of the instance *)
  rho : int;
  ntp : int;  (** number of neighborhood types = |S| *)
  active : int;  (** |W| *)
  pairs_available : int;  (** size of the S-partition *)
  pairs_selected : int;  (** capacity in bits *)
  eta : int;  (** Lemma 1 bound *)
  budget : int;  (** ceil(1/eps) *)
  max_split : int;  (** certified worst-case distortion over all params *)
}

val prepare :
  ?options:options -> ?qs:Query_system.t -> ?gf:Gaifman.t ->
  ?ix:Neighborhood.index -> Weighted.structure -> Query.t ->
  (t, string) result
(** Fails (with a message) when the query is unusable, e.g. result arity
    differs from the weight arity, or no pair survives selection, and on
    an [options.rho] below 0.  [qs]
    overrides the evaluator — pass a {!Query_system.of_custom} value when
    you have a faster (but semantically identical) way to enumerate result
    sets than the generic FO evaluator; the scheme itself only consumes
    the query-system interface.  [gf] (the structure's Gaifman graph) and
    [ix] (a type index of the query system's parameters at the effective
    rho — ignored if its rho differs) skip the two preparation passes a
    caller has already done; the serving engine passes both so repeat
    prepares against a stored dataset, and sharded index construction,
    reuse cached state.  Results are identical with or without them
    provided they describe the same structure. *)

val update :
  ?old_gf:Gaifman.t ->
  t ->
  old:Weighted.structure ->
  Weighted.structure ->
  Query.t ->
  dirty:int list ->
  (t, string) result
(** Re-prepare after structural edits, incrementally: [update t ~old ws q
    ~dirty] is [prepare ~options ws q] for the options [t] was prepared
    with — same pairs, same report, bit for bit — but the neighborhood
    index comes from {!Wm_relational.Neighborhood.reindex} over the dirty
    set the edits reported (see {!Wm_relational.Structure.apply_edits}) and
    the query memo is carried over through {!Query_system.refresh} instead
    of starting cold.  [old] is the instance [t] was prepared on; [old_gf]
    optionally supplies its (cached) Gaifman graph so a serving engine
    does not rebuild it per edit script.  After a
    type-changing update the marker re-embeds (Theorem 8's dichotomy):
    compare {!index} before and after, or use
    {!Wm_watermark.Incremental.update_decision}. *)

val index : t -> Neighborhood.index
(** The scheme's neighborhood type index (what {!update} maintains). *)

val report : t -> report
val capacity : t -> int
(** Number of message bits the scheme can embed. *)

val pairs : t -> Pairing.pair list
val query_system : t -> Query_system.t

val mark : t -> Bitvec.t -> Weighted.t -> Weighted.t
(** Embed a message of length <= capacity into the weights (must be the
    weights [prepare] saw, or a weights-only update of them — Theorem 7). *)

val detect : t -> original:Weighted.t -> server:Query_system.server ->
  length:int -> Bitvec.t
(** Read back an embedded message of the given length, using only query
    answers from the suspect server ({!Detector.decode_server}: every
    parameter is asked once).  Ambiguous pairs (difference of
    unexpected magnitude, e.g. after an attack) decode by sign, ties to
    0. *)

val detect_weights : t -> original:Weighted.t -> suspect:Weighted.t ->
  length:int -> Bitvec.t
(** Read the first [length] selected pairs straight from the suspect's
    weights ({!Detector.decode_weights}): O(length), no query evaluated.
    Equal to {!detect} over an honest server on [suspect], because every
    selected pair endpoint is active (pairs are drawn from the query
    system's active set). *)
