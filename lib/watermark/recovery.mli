(** Tamper localization and detect-and-recover marking.

    The detectors answer "is the mark present?" globally; a production
    system serving millions of marked copies must also answer {e where} a
    copy was tampered with and {e whether the damage can be undone}.  In
    the spirit of Khataeimaragheh-Rashidi (arXiv:1009.0827), this module
    embeds redundant keyed integrity certificates alongside the mark:

    {ul
    {- the marked structure is partitioned into {e Gaifman-local groups}
       ({!Wm_relational.Gaifman.local_groups}) — connected, bounded-size,
       and deterministic, so owner and auditor derive the same partition
       independently, exactly like the scheme's pair list;}
    {- each group gets a {e record}: the group's content (member names,
       their incident tuples, and every marked weight owned by the group)
       under a keyed FNV certificate.  An attacker without the key cannot
       forge a record that verifies;}
    {- each record is {e replicated} across [redundancy] sibling groups.
       A record copy is usable against a suspect only while its host group
       survives there — the availability model of certificates embedded in
       the data itself, which is what makes the robustness curves honest:
       deleting groups also deletes the certificate copies they host.}}

    {!audit} classifies every group of a suspect copy as intact /
    distorted / erased (plus {e blind} when every certificate copy is
    gone), yielding the {!Detector.tamper} map that turns a binary
    verdict into localized suspicion.  {!repair} restores distorted and
    erased groups from their surviving authentic records — weights,
    missing elements, and missing tuples — and reports its confidence.
    Repair-then-detect is the degraded-mode pipeline measured by
    experiment E24 and the [wmark audit] / [wmark repair] subcommands.

    Everything here is deterministic: [protect] is a pure function of
    (structure, options), audits and repairs are bit-identical at every
    job count. *)

type options = {
  key : int;  (** certificate key; detection-side must match marker-side *)
  redundancy : int;  (** certificate copies per group, >= 1 *)
  group_size : int;  (** max elements per Gaifman-local group, >= 1 *)
}

val default_options : options
(** key 0x5EC2E7, redundancy 3, group_size 8. *)

type group = {
  gid : int;
  members : int array;  (** element ids in the protected structure, sorted *)
  names : string array;  (** display names, parallel to [members] *)
}

type capsule
(** The recovery layer of one marked copy: groups, records, replica
    placement.  Conceptually embedded in the marked copy (the
    availability model above); operationally re-derivable by the owner
    from the marked structure and the key. *)

val protect : ?options:options -> Weighted.structure -> capsule
(** Build the capsule of a marked weighted structure.  Display names are
    materialized first (element identity must survive renumbering, as in
    {!Survivable}). *)

val groups : capsule -> group array
val group_of : capsule -> int -> int
(** Group id of an element of the protected structure. *)

val ngroups : capsule -> int

(** {1 Capsule-level attacks}

    What a redistributor can do to embedded certificates: splice two
    marked copies' capsules (mix-and-match — the records stay authentic,
    they just describe the {e other} copy's marking, the false-repair
    hazard), or rewrite records without the key (forgery — rejected at
    audit time). *)

val splice : Prng.t -> fraction:float -> capsule -> other:capsule -> capsule
(** Replace each group's record by [other]'s record for the same group
    with probability [fraction].  The capsules must come from {!protect}
    over the same structure (same partition).  Deterministic in the
    generator. *)

val forge : Prng.t -> fraction:float -> amplitude:int -> capsule -> capsule
(** An attacker without the key perturbs each record's payload weights by
    at most [amplitude] with probability [fraction] and recomputes the
    certificate unkeyed; {!audit} rejects such records as inauthentic. *)

(** {1 Audit: the tamper map} *)

type status =
  | Intact  (** content matches the authentic certificate *)
  | Distorted  (** content disagrees: weights changed, members or tuples
                   missing or injected *)
  | Erased  (** no member survives in the suspect *)
  | Blind  (** no surviving authentic certificate copy — nothing can be
               said about this group *)

type audit = {
  statuses : status array;  (** indexed by gid *)
  intact : int;
  distorted : int;
  erased : int;
  blind : int;
  forged_rejected : int;  (** record copies that failed certificate
                              verification *)
  tamper : Detector.tamper;  (** the same counts, in the shape
                                 {!Detector.with_tamper} attaches *)
}

val audit : capsule -> suspect:Weighted.structure -> audit
(** Classify every group against a suspect copy.  Elements are realigned
    by display name (ambiguous duplicated names count as missing, as in
    {!Survivable}); group classification is per-group local and runs on
    the {!Wm_par.Pool}, bit-identical at every job count. *)

val dirty_groups : audit -> int list
(** Gids not classified [Intact], ascending — the localized suspicion. *)

(** {1 Repair} *)

type repair_report = {
  findings : audit;
  repaired : int;  (** damaged groups fully restored to their record *)
  unrepairable : int;  (** damaged groups with no usable record ([Blind])
                           or only partially restorable *)
  restored_weights : int;
  restored_elements : int;  (** erased members re-created by name *)
  restored_tuples : int;
  confidence : float;  (** (intact + repaired) / groups *)
}

val repair :
  capsule -> suspect:Weighted.structure ->
  Weighted.structure * repair_report
(** Best-effort restoration: for every [Distorted] or [Erased] group with
    a surviving authentic record, re-create missing members (fresh
    elements named as the originals), re-insert missing recorded tuples
    whose endpoints all exist, and restore the recorded marked weights.
    When afterwards every protected element exists under an unambiguous
    name, the result is also {e renumbered} back to the protected copy's
    element order (attacker noise elements moved to the end), so a fully
    repaired copy reads through the plain id-keyed detectors, not only
    the name-aligned ones.  Groups are repaired in gid order, so the
    result is deterministic; only the audit phase runs in parallel. *)

val detect_repaired :
  capsule -> Local_scheme.t -> times:int -> length:int ->
  original:Weighted.structure -> suspect:Weighted.structure ->
  Survivable.robust_verdict * repair_report * Weighted.structure
(** The repair-then-detect pipeline: audit, repair, then
    {!Survivable.detect_structure} on the repaired copy, with the tamper
    map attached to the verdict's carriers
    ({!Detector.verdict}[.tamper]). *)

(** {1 Reporting} *)

val render_audit : capsule -> audit -> string
(** Human-readable tamper map (one line per non-intact group). *)

val audit_json : capsule -> audit -> Wm_util.Json.t
val repair_json : repair_report -> Wm_util.Json.t
