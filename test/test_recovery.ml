(* Tests for Wm_watermark.Recovery: Gaifman-local group partitioning,
   keyed certificate audits, tamper localization against edit scripts,
   best-effort repair, the repair-then-detect pipeline, and the capsule
   attacks (forgery is rejected, splicing produces honest false
   repairs). *)

open Wm_watermark
open Wm_workload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let _ = (int, bool, string)

let bits = 4
let times = 5
let message = Codec.of_int ~bits 0b1011

let prepared =
  lazy
    (let ws = Random_struct.travel (Prng.create 19) ~travels:100 ~transports:400 in
     let q = Random_struct.travel_query in
     match Local_scheme.prepare ws q with
     | Error e -> failwith ("test_recovery: " ^ e)
     | Ok scheme ->
         let base = Robust.of_local scheme in
         let marked_w = Robust.mark base ~times message ws.Weighted.weights in
         let marked = { ws with Weighted.weights = marked_w } in
         (ws, scheme, marked, Recovery.protect marked))

(* --- partition sanity ------------------------------------------------- *)

let test_groups_partition () =
  let _, _, marked, cap = Lazy.force prepared in
  let n = Structure.size marked.Weighted.graph in
  let seen = Array.make n 0 in
  Array.iter
    (fun gr ->
      check bool "group bounded" true
        (Array.length gr.Recovery.members
        <= Recovery.default_options.Recovery.group_size);
      Array.iter
        (fun x ->
          seen.(x) <- seen.(x) + 1;
          check int "group_of agrees" gr.Recovery.gid (Recovery.group_of cap x))
        gr.Recovery.members)
    (Recovery.groups cap);
  Array.iteri
    (fun x c -> check int (Printf.sprintf "element %d in one group" x) 1 c)
    seen

(* --- audit ------------------------------------------------------------ *)

let test_audit_identity_intact () =
  let _, _, marked, cap = Lazy.force prepared in
  let a = Recovery.audit cap ~suspect:marked in
  check int "all intact" (Recovery.ngroups cap) a.Recovery.intact;
  check int "no dirty groups" 0 (List.length (Recovery.dirty_groups a));
  check bool "zero suspicion" true (Detector.suspicion a.Recovery.tamper = 0.)

let test_audit_survives_renumbering () =
  let _, _, marked, cap = Lazy.force prepared in
  let shuffled =
    Adversary.apply_structural (Prng.create 7) Adversary.Shuffle_universe marked
  in
  let a = Recovery.audit cap ~suspect:shuffled in
  check int "renumbering is not tampering" (Recovery.ngroups cap)
    a.Recovery.intact

(* Audit must flag exactly the groups of the dirty elements reported by
   Structure.apply_edits — Gaifman-local tamper localization — and be
   bit-identical at jobs 1 and 2. *)
let test_audit_localizes_edits () =
  let _, _, marked, cap = Lazy.force prepared in
  let g = marked.Weighted.graph in
  (* pick two existing tuples to delete and one to inject *)
  let some_tuples =
    Structure.fold_relations
      (fun rel r acc ->
        match Relation.fold (fun t acc -> t :: acc) r [] with
        | t :: t' :: _ -> (rel, t) :: (rel, t') :: acc
        | _ -> acc)
      g []
  in
  let (rel1, t1), (rel2, t2) =
    match some_tuples with
    | a :: b :: _ -> (a, b)
    | _ -> failwith "no tuples to edit"
  in
  let edits =
    [ Structure.Delete_tuple (rel1, t1); Structure.Delete_tuple (rel2, t2) ]
  in
  let g', dirty = Structure.apply_edits g edits in
  let suspect = { marked with Weighted.graph = g' } in
  let expected =
    List.sort_uniq compare (List.map (Recovery.group_of cap) dirty)
  in
  let audit j = Jobs.with_jobs j @@ fun () -> Recovery.audit cap ~suspect in
  let a1 = audit 1 and a2 = audit 2 in
  check bool "audit independent of jobs" true
    (a1.Recovery.statuses = a2.Recovery.statuses);
  check bool "dirty groups are exactly the edited ones" true
    (Recovery.dirty_groups a1 = expected);
  check int "edited groups distorted" (List.length expected)
    a1.Recovery.distorted

let test_audit_erased_groups () =
  let _, _, marked, cap = Lazy.force prepared in
  (* keep a 50% sample: dropped groups audit as Erased or Distorted *)
  let attacked =
    Adversary.apply_structural (Prng.create 11)
      (Adversary.Subset_sample { keep = 0.5 })
      marked
  in
  let a = Recovery.audit cap ~suspect:attacked in
  check bool "some groups fully erased" true (a.Recovery.erased > 0);
  check bool "suspicion grew" true (Detector.suspicion a.Recovery.tamper > 0.);
  check int "statuses cover all groups" (Recovery.ngroups cap)
    (a.Recovery.intact + a.Recovery.distorted + a.Recovery.erased
    + a.Recovery.blind)

(* --- repair ----------------------------------------------------------- *)

(* qcheck round-trip: distort a bounded random set of weights and tuples,
   then repair must restore the marked copy group-exactly (every group
   audits Intact against the capsule) — weight-only and tuple-only damage
   leaves every certificate host alive, so the redundancy budget always
   suffices. *)
let prop_repair_roundtrip =
  QCheck.Test.make ~count:20 ~name:"repair (distort s) == s, group-exact"
    QCheck.(pair (int_range 0 1000) (int_range 1 40))
    (fun (seed, damage) ->
      let _, _, marked, cap = Lazy.force prepared in
      let g = Prng.create (0xD15 + seed) in
      (* flip [damage] random carried weights *)
      let support = Weighted.support marked.Weighted.weights in
      let support = Array.of_list support in
      let w = ref marked.Weighted.weights in
      for _ = 1 to damage do
        let t = Prng.choose g support in
        w := Weighted.add_delta !w t (Prng.pm_one g * (1 + Prng.int g 3))
      done;
      (* and drop a few relation tuples *)
      let graph = ref marked.Weighted.graph in
      Structure.fold_relations
        (fun rel r () ->
          Relation.iter
            (fun t ->
              if Prng.bernoulli g 0.02 then
                graph :=
                  fst
                    (Structure.apply_edit !graph
                       (Structure.Delete_tuple (rel, t))))
            r)
        !graph ();
      let suspect = Weighted.make !graph !w in
      let repaired, report = Recovery.repair cap ~suspect in
      let verdict = Recovery.audit cap ~suspect:repaired in
      verdict.Recovery.intact = Recovery.ngroups cap
      && report.Recovery.unrepairable = 0
      && Weighted.equal repaired.Weighted.weights marked.Weighted.weights)

let test_repair_resurrects_elements () =
  let _, _, marked, cap = Lazy.force prepared in
  let attacked =
    Adversary.apply_structural (Prng.create 13)
      (Adversary.Delete_tuples { fraction = 0.15 })
      marked
  in
  check bool "elements were deleted" true
    (Structure.size attacked.Weighted.graph
    < Structure.size marked.Weighted.graph);
  let repaired, report = Recovery.repair cap ~suspect:attacked in
  check bool "elements restored" true (report.Recovery.restored_elements > 0);
  check bool "weights restored" true (report.Recovery.restored_weights > 0);
  check bool "confidence above audit floor" true
    (report.Recovery.confidence
    >= float_of_int report.Recovery.findings.Recovery.intact
       /. float_of_int (Recovery.ngroups cap));
  (* everything repairable here: hosts are spread, deletion is light *)
  let verdict = Recovery.audit cap ~suspect:repaired in
  check bool "most groups intact after repair" true
    (verdict.Recovery.intact > Recovery.ngroups cap * 9 / 10)

let test_repair_deterministic_across_jobs () =
  let _, _, marked, cap = Lazy.force prepared in
  let attacked =
    Adversary.apply_structural (Prng.create 29)
      (Adversary.Delete_tuples { fraction = 0.2 })
      marked
  in
  let repair j =
    Jobs.with_jobs j @@ fun () -> Recovery.repair cap ~suspect:attacked
  in
  let r1, rep1 = repair 1 and r2, rep2 = repair 2 in
  check string "identical repaired structure"
    (Textio.to_string r1) (Textio.to_string r2);
  check int "identical repaired count" rep1.Recovery.repaired
    rep2.Recovery.repaired

(* --- repair-then-detect ----------------------------------------------- *)

let test_detect_repaired_beats_naive () =
  let ws, scheme, marked, cap = Lazy.force prepared in
  (* heavy bit-flipping: enough corrupted carriers that naive majority
     decoding loses the message *)
  let qs = Local_scheme.query_system scheme in
  let active = Query_system.active qs in
  let attacked_w =
    Adversary.apply (Prng.create 41)
      (Adversary.Random_flips { count = List.length active * 8 / 10; amplitude = 2 })
      ~active marked.Weighted.weights
  in
  let suspect = { marked with Weighted.weights = attacked_w } in
  let naive, _ =
    Survivable.detect_structure scheme ~times ~length:bits ~original:ws ~suspect
  in
  let rv, report, _ =
    Recovery.detect_repaired cap scheme ~times ~length:bits ~original:ws
      ~suspect
  in
  check bool "repair restored the message" true
    (Bitvec.equal message rv.Survivable.message);
  check bool "tamper map attached" true
    (rv.Survivable.carriers.Detector.tamper <> None);
  check bool "repair strictly improves carrier agreement" true
    (Survivable.match_pvalue ~expected:message rv
    <= Survivable.match_pvalue ~expected:message naive);
  check bool "damage was found" true
    (report.Recovery.findings.Recovery.distorted > 0)

(* --- capsule attacks -------------------------------------------------- *)

let test_forged_records_rejected () =
  let _, _, marked, cap = Lazy.force prepared in
  let forged =
    Recovery.forge (Prng.create 43) ~fraction:1.0 ~amplitude:3 cap
  in
  let a = Recovery.audit forged ~suspect:marked in
  check bool "forgeries rejected" true (a.Recovery.forged_rejected > 0);
  (* with every copy forged, no group has an authentic certificate *)
  check int "all groups blind" (Recovery.ngroups cap) a.Recovery.blind;
  (* blind groups are never 'repaired' from forged data *)
  let repaired, report = Recovery.repair forged ~suspect:marked in
  check int "nothing repaired" 0 report.Recovery.repaired;
  check bool "weights untouched" true
    (Weighted.equal repaired.Weighted.weights marked.Weighted.weights)

let test_splice_causes_false_repairs () =
  let ws, _, marked, cap = Lazy.force prepared in
  (* a second copy of the same structure marked with the complement *)
  let other_message = Codec.of_int ~bits 0b0100 in
  let q = Random_struct.travel_query in
  let other =
    match Local_scheme.prepare ws q with
    | Error e -> failwith e
    | Ok scheme ->
        let base = Robust.of_local scheme in
        {
          ws with
          Weighted.weights =
            Robust.mark base ~times other_message ws.Weighted.weights;
        }
  in
  let other_cap = Recovery.protect other in
  let spliced =
    Recovery.splice (Prng.create 47) ~fraction:1.0 cap ~other:other_cap
  in
  (* the spliced records are authentic (they verify) but describe the
     OTHER copy: the pristine marked copy now audits as distorted ... *)
  let a = Recovery.audit spliced ~suspect:marked in
  check bool "mix-and-match looks like tampering" true
    (a.Recovery.distorted > 0);
  check int "no forgeries — the records are real" 0 a.Recovery.forged_rejected;
  (* ... and 'repair' faithfully restores the wrong marking. *)
  let repaired, _ = Recovery.repair spliced ~suspect:marked in
  check bool "false repair moved weights toward the other copy" true
    (Weighted.local_distance repaired.Weighted.weights other.Weighted.weights
    < Weighted.local_distance repaired.Weighted.weights marked.Weighted.weights
    || Weighted.equal repaired.Weighted.weights other.Weighted.weights)

(* --- JSON / rendering ------------------------------------------------- *)

let test_reports_render () =
  let _, _, marked, cap = Lazy.force prepared in
  let attacked =
    Adversary.apply_structural (Prng.create 53)
      (Adversary.Subset_sample { keep = 0.7 })
      marked
  in
  let a = Recovery.audit cap ~suspect:attacked in
  let s = Recovery.render_audit cap a in
  check bool "render mentions groups" true
    (String.length s > 0 && String.sub s 0 7 = "groups:");
  let j = Json.to_string (Recovery.audit_json cap a) in
  check bool "audit json has statuses" true
    (String.length j > 0);
  let _, report = Recovery.repair cap ~suspect:attacked in
  let rj = Json.to_string (Recovery.repair_json report) in
  check bool "repair json nonempty" true (String.length rj > 0)

let suite =
  [
    ("groups partition the universe", `Slow, test_groups_partition);
    ("identity audit is all-intact", `Slow, test_audit_identity_intact);
    ("renumbering audits intact", `Slow, test_audit_survives_renumbering);
    ("audit localizes edit scripts", `Slow, test_audit_localizes_edits);
    ("sampling erases groups", `Slow, test_audit_erased_groups);
    QCheck_alcotest.to_alcotest prop_repair_roundtrip;
    ("repair resurrects elements", `Slow, test_repair_resurrects_elements);
    ("repair deterministic across jobs", `Slow, test_repair_deterministic_across_jobs);
    ("repair-then-detect beats naive", `Slow, test_detect_repaired_beats_naive);
    ("forged certificates rejected", `Slow, test_forged_records_rejected);
    ("capsule splicing false-repairs", `Slow, test_splice_causes_false_repairs);
    ("reports render", `Slow, test_reports_render);
  ]
