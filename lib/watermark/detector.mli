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
(** Classify one pair from the observed weights — pure and independent
    per pair, the unit of work the pool parallelizes. *)

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
(** Total-observation convenience: every endpoint is read from [suspect],
    so no carrier is erased. *)

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
    [tests = 1]).  This is what {!Wm_watermark.Fingerprint.trace} and the
    attack grid's per-cell verdicts apply before accusing.  Same
    [Invalid_argument] conditions as {!bonferroni}. *)

val is_marked : ?alpha:float -> verdict -> bool
(** Does the carrier signal itself (ignoring the message value) reject the
    no-mark null at level [alpha] (default 0.01)?  Tests the {e strong}
    count against the conservative ceiling 1/4 on the chance that
    unrelated 1-local noise fakes an exact +-2 antisymmetric pair, over
    the surviving (non-erased) carriers. *)
