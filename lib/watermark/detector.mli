(** Detection statistics: confidence and false-positive control.

    The schemes' [detect] functions return the most likely message; a real
    owner also needs to know {e whether there is a mark at all} before
    accusing anyone.  Definition 2 allows the detector a failure
    probability delta, and Fact 1's limited-knowledge assumption bounds the
    chance beta that an innocent server's data looks gamma-close to a
    marked copy.  This module quantifies both from the observable signal:
    each selected pair should show a weight-difference of exactly (+1,-1)
    or (-1,+1); anything else is noise.

    A pair is a {e strong} carrier when the observed difference
    delta(fst) - delta(snd) is exactly +-2 (an intact orientation), {e weak}
    when it is nonzero but not +-2 (damaged but readable by sign), and
    {e silent} when it is 0 (no signal — what unrelated data shows on
    almost every pair).  A pair neither of whose endpoints was observed at
    all — deleted by a structural attack, or not covered by any asked
    parameter on a query budget — is an {e erasure}: it carries no evidence
    in either direction and is excluded from the statistics rather than
    counted as disagreement.  Under the null hypothesis "no mark", each
    surviving pair's sign is a fair coin at best, so the binomial tail on
    sign-consistency over the survivors gives a p-value for ownership
    claims. *)

type tamper = {
  t_groups : int;  (** Gaifman-local groups the recovery layer audited *)
  t_intact : int;  (** groups whose keyed certificate verified *)
  t_distorted : int;  (** groups whose content disagrees with the certificate *)
  t_erased : int;  (** groups with no surviving member *)
  t_blind : int;  (** groups with no surviving authentic certificate copy *)
}
(** Tamper localization, attached by {!Wm_watermark.Recovery.audit}:
    instead of the binary "erased or ok" a carrier gives, the tamper map
    says {e where} a suspect copy was damaged, group by group, so
    detection degrades gracefully into localized suspicion. *)

type verdict = {
  decoded : Bitvec.t;
  erasure : Bitvec.t;  (** bit i set when carrier i was erased *)
  strong : int;  (** pairs with an intact +-2 difference *)
  weak : int;  (** damaged but sign-readable pairs *)
  silent : int;  (** observed pairs with zero difference *)
  erased : int;  (** pairs with no observed endpoint at all *)
  confidence : float;  (** (strong + weak) / pairs surviving *)
  tamper : tamper option;
      (** localization report when a recovery audit ran; [None] from the
          plain readers *)
}

val with_tamper : verdict -> tamper -> verdict
(** Attach a recovery audit's localization to a verdict. *)

val suspicion : tamper -> float
(** Fraction of audited groups that are not intact — 0 on a pristine
    copy, 1 when every group was distorted, erased or lost its
    certificate. *)

(** {1 Carrier-level interface}

    The serving layer's sharded detector classifies carriers
    shard-by-shard and reassembles; exposing the per-carrier step and the
    accumulation separately lets it reuse both ends of {!read} unchanged,
    which is what makes "sharded detect = unsharded detect" true by
    construction rather than by test alone. *)

type carrier = Erased | Cell of bool * [ `Strong | `Weak | `Silent ]
(** What one pair contributes: no surviving endpoint ([Erased]), or a
    decoded bit with its signal class. *)

val classify_carrier :
  original:Weighted.t -> observed:int Tuple.Map.t -> Pairing.pair -> carrier
(** Classify one pair from a map of observed weights: an endpoint absent
    from the map contributes delta 0, and a pair with neither endpoint
    present is [Erased].  This is the right call only where observations
    are {e not} a weight assignment — {!Wm_watermark.Survivable}'s aligned
    observations of a re-keyed copy, a query-budget read over some
    parameters only ({!Query_system.reconstruct_some}), and the paper's
    server model ({!decode_server}), where only query answers are seen.
    A reader holding the suspect's weights uses {!carrier_of_weights}. *)

val carrier_of_weights :
  original:Weighted.t -> suspect:Weighted.t -> Pairing.pair -> carrier
(** Classify one pair straight from the suspect's weights: the difference
    [d = (s fst - o fst) - (s snd - o snd)] read with {!Weighted.get} at
    the two endpoints, classified exactly as {!classify_carrier} does.
    Never [Erased]; O(1) on dense weights, and it builds nothing.  It
    equals [classify_carrier] over a map of the suspect's weights at the
    pair endpoints, and it equals the server-model read
    ({!decode_server}) whenever both endpoints are active — some
    parameter's result set contains them — which every scheme's selected
    pairs are by construction.  Every weights-based reader goes through
    it: {!read_weights}, {!decode_weights}, the sharded serving detector
    and {!Wm_watermark.Fingerprint.read}. *)

val verdict_of_carriers : carrier array -> verdict
(** Accumulate classifications in index order into a verdict; the array
    length is the read length. *)

val read :
  Pairing.pair list -> original:Weighted.t ->
  observed:int Tuple.Map.t -> length:int -> verdict
(** Decode [length] bits from the pair list, classifying each carrier.
    A pair with {e no} observed endpoint is an erasure; a pair with one
    observed endpoint still votes by the sign of the surviving half.
    Carriers are independent, so classification runs on the
    {!Wm_par.Pool}; the verdict is bit-identical for every job count. *)

val read_weights :
  Pairing.pair list -> original:Weighted.t ->
  suspect:Weighted.t -> length:int -> verdict
(** Total-observation reader: the first [length] carriers, each classified
    by {!carrier_of_weights}, so no carrier is erased.  O(length). *)

(** {1 Plain decoders}

    The schemes' [detect] functions only need the decoded bits: bit [i] is
    the sign of carrier [i], an erased carrier reading 0.  Both visit only
    the first [length] pairs of the list. *)

val decode_weights :
  Pairing.pair list -> original:Weighted.t -> suspect:Weighted.t ->
  length:int -> Bitvec.t
(** Bits from the suspect's weights via {!carrier_of_weights}: O(length),
    no query system involved. *)

val decode_server :
  Query_system.t -> Pairing.pair list -> original:Weighted.t ->
  server:Query_system.server -> length:int -> Bitvec.t
(** The paper's server model: ask the suspect server every parameter of
    the query system, rebuild the observed weights
    ({!Query_system.reconstruct}) and classify each carrier with
    {!classify_carrier}.  The one decoder behind
    {!Wm_watermark.Local_scheme.detect} and
    {!Wm_watermark.Tree_scheme.detect}. *)

val binomial_tail : trials:int -> successes:int -> float
(** P[X >= successes] for X ~ Binomial(trials, 1/2) — the null-hypothesis
    p-value of observing that much sign agreement by chance. *)

val binomial_tail_p : p:float -> trials:int -> successes:int -> float
(** General-[p] upper tail.  Raises [Invalid_argument] unless
    [0 <= p <= 1] (NaN included); the degenerate endpoints are exact:
    [p = 0] gives 0 and [p = 1] gives 1 for any satisfiable
    [0 < successes <= trials]. *)

val match_pvalue : expected:Bitvec.t -> verdict -> float
(** p-value of the decoded message agreeing with [expected] as much as it
    does, under the no-mark null, conditioned on the {e surviving} carriers
    only — erased positions contribute neither agreement nor trials, so a
    subset attack cannot manufacture disagreement by deleting carriers.
    Small value = confident accusation. *)

val bonferroni : alpha:float -> tests:int -> float
(** [alpha / tests] — the per-test threshold that keeps the family-wise
    false-accusation probability of [tests] simultaneous hypothesis tests
    at most [alpha].  Raises [Invalid_argument] unless [0 < alpha <= 1]
    and [tests >= 1]. *)

val sidak : alpha:float -> tests:int -> float
(** [1 - (1 - alpha)^(1/tests)] — the exact correction under independent
    tests, slightly less conservative than {!bonferroni} (equal at
    [tests = 1]).  Evaluated as [-expm1 (log1p (-alpha) / tests)], which
    stays accurate (about [alpha / tests]) where the direct form cancels
    to 0.  This is what {!Wm_watermark.Fingerprint.trace} and the
    attack grid's per-cell verdicts apply before accusing.  Same
    [Invalid_argument] conditions as {!bonferroni}. *)

val is_marked : ?alpha:float -> verdict -> bool
(** Does the carrier signal itself (ignoring the message value) reject the
    no-mark null at level [alpha] (default 0.01)?  Tests the {e strong}
    count against the conservative ceiling 1/4 on the chance that
    unrelated 1-local noise fakes an exact +-2 antisymmetric pair, over
    the surviving (non-erased) carriers. *)
