(** Multi-recipient fingerprinting with collusion-resistant tracing.

    The schemes embed {e one} message per marked instance; production
    watermarking must identify {e which} of many recipients leaked a
    copy.  This layer derives one key per recipient from a single master
    key (a keyed FNV transform, GUIDWatermark-style — recipient ids are
    arbitrary strings, so the id space is unbounded and 2^64+ ids cost
    nothing), expands each key into a pseudorandom codeword, and embeds
    the codeword through the shared prepared scheme's pair carriers
    ({!Pairing} orientations, [times] interleaved repetitions a la
    {!Robust}).  Every recipient's copy is a query-preserving marking of
    the {e same} prepared scheme: preparation happens once, generation is
    O(codeword) marks per copy.

    Tracing scores every candidate recipient against a suspect copy: the
    carriers are read once, each message bit is decoded by tie-explicit
    majority over its surviving signal carriers (ties and silent carriers
    abstain — see {!Wm_util.Codec.majority_decode_opt}), and a
    candidate's p-value is the binomial tail of its codeword's agreement
    with the decided bits.  Because bits are decided independently and an
    innocent's codeword bits are uniform, the null distribution is
    exactly Binomial(decided, 1/2) — scoring raw carriers instead would
    correlate the [times] repetitions of each bit and wreck the tail.
    Accusation applies the Šidák-corrected threshold
    ({!Detector.sidak}), so the family-wise false-accusation rate over
    all candidates stays at [alpha].

    Cost model of a trace: one direct read of the [times * length]
    carriers ({!Detector.carrier_of_weights} at the pair endpoints, no
    query system), one decode into two bit masks (decided-and-1,
    decided-and-0), then per candidate the codeword expansion and two
    masked popcounts — O(length / 8) byte operations instead of a
    per-bit match.  Every candidate is scored over the same [decided]
    trials, so p-values are looked up from at most [decided + 1]
    binomial-tail evaluations per trace (one per distinct agreement
    count), not one per candidate.

    Collusion (Boneh–Shaw regime): k colluders combining their copies
    ({!Adversary.collusion}) can silence carriers where their codewords
    disagree, but the majority orientation still follows each member's
    codeword on ~3/4 of the bits, which the binomial score separates from
    the innocents' 1/2 given enough codeword bits.  {!run_grid} measures
    exactly this — tracing accuracy and false accusations over a
    (recipient count x coalition size x attack) grid. *)

type t
(** A fingerprinting context: a prepared carrier scheme plus the master
    key and the codeword geometry (length, repetitions). *)

val of_local :
  ?length:int -> ?times:int -> master:int -> Local_scheme.t ->
  (t, string) result
(** Layer over a prepared {!Local_scheme}.  [length] is the codeword size
    in bits (default [min 128 capacity]); [times] the repetition count
    (default the largest odd value with [times * length <= capacity]).
    [Error _] when the geometry does not fit the scheme's capacity. *)

val of_multi :
  ?length:int -> ?times:int -> master:int -> Multi_scheme.t ->
  (t, string) result
(** Same layering over a {!Multi_scheme}: each recipient's copy preserves
    every registered query at once. *)

val length : t -> int
val times : t -> int
val master : t -> int

val recipient_key : master:int -> string -> int
(** The keyed FNV derivation: one master key -> one integer key per
    recipient id.  Deterministic and platform-stable; an adversary
    without the master key cannot predict any recipient's key. *)

val codeword : t -> string -> Bitvec.t
(** [codeword t rid] is the recipient's [length t]-bit codeword — the
    PRNG expansion of {!recipient_key}.  Distinct recipients get
    independent uniform codewords with overwhelming probability. *)

val mark_for : t -> string -> Weighted.t -> Weighted.t
(** [mark_for t rid w] embeds [rid]'s codeword ([times] interleaved
    repetitions) into the original weights [w] — one recipient's
    fingerprinted copy.  Deterministic; O(times * length) marks. *)

val digest : Weighted.t -> int
(** A non-negative FNV digest of the full weight assignment (ascending
    binding order) — how the serving layer ships proof of 10^4 generated
    copies over the wire without shipping the copies: equal weights give
    equal digests at every job count. *)

val read : t -> original:Weighted.t -> suspect:Weighted.t ->
  Detector.carrier array
(** Classify the scheme's [times * length] fingerprint carriers against a
    suspect weight assignment, each straight from the weights at its two
    endpoints ({!Detector.carrier_of_weights}): O(times * length), no
    map of observations is built. *)

val decode : t -> Detector.carrier array -> bool option array
(** Per message bit, the tie-explicit majority over its surviving signal
    carriers: [Some b] on a strict majority, [None] when erased, silent
    or split carriers leave no decided majority. *)

type score = {
  rid : string;
  agreements : int;  (** decided bits matching the candidate's codeword *)
  trials : int;  (** decided bits (candidate-independent) *)
  pvalue : float;  (** binomial tail of the agreement under the null *)
  accused : bool;  (** pvalue <= the Šidák-corrected threshold *)
}

type trace_report = {
  candidates : int;
  alpha : float;  (** requested family-wise error level *)
  threshold : float;  (** Šidák per-candidate threshold actually applied *)
  decided : int;  (** message bits the suspect copy decided *)
  scores : score list;  (** in candidate order *)
  accused : string list;  (** accused recipient ids, in candidate order *)
}

val score : t -> bool option array -> string -> int * int
(** [score t decoded rid] is [(agreements, trials)] of [rid]'s codeword
    against the decoded bits — exposed for the serving layer and tests;
    {!trace} wraps it with the p-value and the corrected threshold. *)

val trace :
  ?alpha:float -> t -> original:Weighted.t ->
  suspect:Weighted.t -> string list -> trace_report
(** Read the suspect's carriers once, then score every candidate
    (parallel over candidates) and accuse those below the Šidák-corrected
    threshold for [alpha] (default 0.01) over [List.length candidates]
    tests.  Cost: O(length / 8) per candidate for the masked agreement
    count (plus its codeword), and at most [decided + 1]
    {!Detector.binomial_tail} evaluations per trace, counted by the
    [fp.tail_evals] Obs counter — each p-value is the same float a
    per-candidate evaluation would give.  Raises [Invalid_argument] on
    an empty candidate list.  Deterministic and bit-identical at every
    job count. *)

val verify : t -> string -> original:Weighted.t -> suspect:Weighted.t -> bool
(** Exact single-recipient check: decode the carriers (weights-only
    read), majority-vote each bit tie-explicitly
    ({!Wm_util.Codec.majority_decode_opt}), and require every bit decided
    and equal to [rid]'s codeword.  A copy marked for another recipient —
    equivalently, a detect under the wrong recipient key — fails with
    overwhelming probability. *)

(** {1 The collusion grid}

    The fingerprinting analogue of {!Attack_suite}: deterministic cells
    over (recipient count x coalition size x collusion attack), each cell
    seeded by its grid position so adding rows never reshuffles earlier
    ones. *)

type outcome = {
  grid_index : int;
  cell_seed : int;  (** derived per-cell seed, for standalone replay *)
  recipients : int;
  coalition : int;  (** k — 1 means a single leaker, no collusion *)
  attack : string;
  params : string;  (** machine-readable [kind:key=value] cell params *)
  noise : int;  (** per-copy laundering noise amplitude *)
  caught : int;  (** coalition members accused *)
  false_accusations : int;  (** innocents accused *)
  traced : bool;  (** at least one member accused *)
  accuracy : float;  (** caught / coalition *)
  threshold : float;  (** Šidák threshold applied in this cell *)
  min_member_p : float;  (** best (smallest) coalition-member p-value *)
  min_innocent_p : float;  (** best innocent p-value (1.0 if none) *)
}

type grid_report = {
  length : int;
  times : int;
  alpha : float;
  rows : outcome list;
}

val run_grid :
  ?seed:int -> ?alpha:float -> ?noise:int ->
  ?recipients:int list -> ?coalitions:int list ->
  ?attacks:Adversary.collusion list -> ?prefix:string -> t -> Weighted.t ->
  grid_report
(** For every cell: draw a coalition from the recipient population,
    generate its fingerprinted copies, perturb each copy on its own
    derived stream ({!Adversary.copy_prng}, amplitude [noise], default
    1), collude them ({!Adversary.apply_collusion}), and {!trace} the
    result against {e all} recipients.  Defaults: seed 0xF19, alpha
    0.001, recipients [[1000]], coalitions [[1; 2; 3]], all three
    attacks, ids [prefix ^ index] with prefix ["r"].  One pool task per
    cell; bit-identical at every job count. *)

val render_grid : grid_report -> string
val grid_to_json : grid_report -> Wm_util.Json.t
