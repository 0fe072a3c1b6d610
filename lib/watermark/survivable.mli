(** Degraded-mode detection after structural attacks.

    The aligned detectors ({!Local_scheme.detect_weights},
    {!Tree_scheme.detect_weights}, {!Pipeline.detect_xml}) assume the
    suspect is a weights-only copy of the original: carriers are keyed by
    element id / node id, so the moment a redistributor deletes tuples,
    samples a subset, renumbers the universe or prunes XML subtrees, they
    read garbage — or raise.  This module re-aligns the surviving carriers
    against the original before reading:

    {ul
    {- relational elements are matched by their display names (the key
       columns of the row, materialized by the structural attacks);}
    {- XML value nodes are matched by their root-to-node path, where each
       ancestor is identified by its tag and the non-numeric text of its
       subtree, plus an ordinal among same-path siblings.}}

    Carriers with no surviving endpoint become {e erasures}
    ({!Detector.verdict}[.erased]), not errors: they are excluded from the
    sign statistics and from {!Detector.match_pvalue}'s trials, so
    detection confidence degrades gracefully with the attack budget
    instead of collapsing.  Carrier location and classification are
    per-carrier local, so both run on the {!Wm_par.Pool}, with results
    bit-identical at every job count.  This is the regime studied for
    locally treelike databases (Chattopadhyay–Praveen, arXiv:1909.11369)
    and graph watermarking under node deletion (Eppstein et al.,
    arXiv:1605.09425). *)

type alignment = {
  observed : int Tuple.Map.t;
      (** surviving carrier (keyed by {e original} tuple / node id) ->
          its weight in the suspect *)
  total : int;
  matched : int;
  missing : int;
}

val align_structures :
  ?tuples:Tuple.t list ->
  original:Weighted.structure ->
  suspect:Weighted.structure ->
  unit ->
  alignment
(** Align the listed original tuples (default: the support of the original
    weights) against the suspect by element names.  Names duplicated in
    the suspect are ambiguous and count as missing. *)

val align_trees :
  original:Wm_xml.Utree.t -> suspect:Wm_xml.Utree.t -> alignment
(** Align the original's value nodes against the suspect by path
    signature.  Reordered subtrees still match (signatures carry no
    sibling position); same-path siblings match by surviving ordinal, so
    deleting one exam of a student erases at most that student's later
    exams. *)

val read :
  Pairing.pair list -> original:Weighted.t -> alignment ->
  length:int -> Detector.verdict
(** {!Detector.read} over the aligned observations: unmatched carriers are
    erasures, half-matched pairs vote by their surviving endpoint. *)

(** {1 Redundant (Fact 1 wrapper) decoding with erasures} *)

type robust_verdict = {
  message : Bitvec.t;
      (** majority vote per message bit over the {e surviving} copies *)
  carriers : Detector.verdict;  (** the raw carrier-level verdict *)
  times : int;
  erased_bits : int;  (** message bits all of whose copies were erased *)
  all_erased : bool;
      (** {e every} carrier was erased: the message field is vacuous
          (all-zero by the tie rule, not decoded), {!match_pvalue} is the
          uninformative 1.0 over zero trials, and no ownership claim of
          any kind is supported.  Callers must check this flag before
          reading [message] — a total wipe-out is an explicit verdict,
          not a confident all-zero decode. *)
}

val detect_robust :
  pairs:Pairing.pair list -> times:int -> length:int ->
  original:Weighted.t -> alignment -> robust_verdict
(** Decode a [length]-bit message embedded with {!Robust.mark} [~times]
    from whatever carriers survived.  Erased copies abstain from the
    majority instead of voting 0, so a bit is lost only when a majority of
    its {e surviving} copies is corrupted, or every copy is erased. *)

val match_pvalue : expected:Bitvec.t -> robust_verdict -> float
(** Carrier-level p-value of the suspect agreeing with [expected],
    conditioned on surviving carriers only. *)

(** {1 End-to-end conveniences} *)

val detect_structure :
  Local_scheme.t -> times:int -> length:int ->
  original:Weighted.structure -> suspect:Weighted.structure ->
  robust_verdict * alignment
(** Align (on the scheme's pair endpoints) and decode in one step. *)

val detect_tree :
  pairs:Pairing.pair list -> times:int -> length:int ->
  original:Wm_xml.Utree.t -> Wm_xml.Utree.t ->
  robust_verdict * alignment
(** [detect_tree ~pairs ~times ~length ~original suspect] — same for XML
    documents; [pairs] come from {!Tree_scheme.pairs} (node ids in the
    binary encoding coincide with document node ids). *)
