(* Observability: the recovery layer's three verbs.  rec.groups counts
   groups audited, rec.repaired / rec.unrepairable the repair outcomes;
   rec.forged_rejected the record copies that failed certificate
   verification. *)
module Obs = Wm_obs.Obs

let c_groups = Obs.counter "rec.groups"
let c_repaired = Obs.counter "rec.repaired"
let c_unrepairable = Obs.counter "rec.unrepairable"
let c_forged = Obs.counter "rec.forged_rejected"
let t_protect = Obs.timer "rec.protect"
let t_audit = Obs.timer "rec.audit"
let t_repair = Obs.timer "rec.repair"

type options = { key : int; redundancy : int; group_size : int }

let default_options = { key = 0x5EC2E7; redundancy = 3; group_size = 8 }

type group = { gid : int; members : int array; names : string array }

(* A record describes one group's content entirely by display names, so
   it stays comparable after the suspect is renumbered: the member names,
   every relation tuple incident to a member (full tuple, components as
   names — a tuple spanning two groups appears in both records), and the
   marked weight of every supported weight tuple owned by the group (a
   weight tuple belongs to the group of its first component). *)
type record = {
  r_gid : int;
  r_members : string array;  (* sorted *)
  r_tuples : (string * string array) list;  (* sorted, deduped *)
  r_weights : (string array * int) list;  (* sorted by name tuple *)
  r_mac : int;
}

type capsule = {
  opts : options;
  groups : group array;
  grp_of : int array;
  copies : record array array;  (* copies.(g).(j) lives in group hosts.(g).(j) *)
  hosts : int array array;
}

(* --- keyed certificate ----------------------------------------------- *)

(* FNV-1a over the canonical serialization; the key is mixed in as a
   prefix, so an attacker without it cannot recompute a verifying
   certificate for altered content. *)
let fnv_prime = 0x100000001B3
let fnv_basis = Int64.to_int 0xCBF29CE484222325L (* 64-bit basis mod 2^63 *)

let fnv_string h s =
  let h = ref h in
  String.iter (fun c -> h := (!h lxor Char.code c) * fnv_prime) s;
  !h

let canon r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "g%d|" r.r_gid);
  Array.iter
    (fun n ->
      Buffer.add_string buf n;
      Buffer.add_char buf ';')
    r.r_members;
  Buffer.add_string buf "|T:";
  List.iter
    (fun (rel, names) ->
      Buffer.add_string buf rel;
      Buffer.add_char buf '(';
      Array.iter
        (fun n ->
          Buffer.add_string buf n;
          Buffer.add_char buf ',')
        names;
      Buffer.add_string buf ");")
    r.r_tuples;
  Buffer.add_string buf "|W:";
  List.iter
    (fun (names, v) ->
      Array.iter
        (fun n ->
          Buffer.add_string buf n;
          Buffer.add_char buf ',')
        names;
      Buffer.add_string buf (Printf.sprintf "=%d;" v))
    r.r_weights;
  Buffer.contents buf

let mac ~key r = fnv_string (fnv_string fnv_basis (string_of_int key)) (canon r)
let unkeyed_mac r = fnv_string fnv_basis (canon r)
let verify ~key r = r.r_mac = mac ~key r
let seal ~key r = { r with r_mac = mac ~key r }

(* --- protect ---------------------------------------------------------- *)

(* Per-element incident (relation, tuple) lists in one relation pass. *)
let incident_index g =
  let inc = Array.make (Structure.size g) [] in
  Structure.fold_relations
    (fun rel r () ->
      Relation.iter
        (fun t ->
          let seen = ref [] in
          Array.iter
            (fun x ->
              if not (List.mem x !seen) then begin
                seen := x :: !seen;
                inc.(x) <- (rel, t) :: inc.(x)
              end)
            t)
        r)
    g ();
  inc

let cmp_named_tuple (r1, n1) (r2, n2) =
  match compare r1 r2 with 0 -> compare n1 n2 | c -> c

let protect ?(options = default_options) (ws : Weighted.structure) =
  Obs.time t_protect @@ fun () ->
  if options.redundancy < 1 then invalid_arg "Recovery.protect: redundancy < 1";
  let g = Structure.with_default_names ws.Weighted.graph in
  let name x = Structure.name_of g x in
  let gf = Gaifman.of_structure g in
  let raw = Gaifman.local_groups gf ~max_size:options.group_size in
  let k = Array.length raw in
  let groups =
    Array.mapi
      (fun gid members ->
        let members = Array.of_list members in
        { gid; members; names = Array.map name members })
      raw
  in
  let grp_of = Array.make (Structure.size g) (-1) in
  Array.iter
    (fun gr -> Array.iter (fun x -> grp_of.(x) <- gr.gid) gr.members)
    groups;
  let inc = incident_index g in
  (* weight tuples bucketed by the group of their first component *)
  let owned = Array.make k [] in
  List.iter
    (fun (t, v) ->
      if Array.length t > 0 then begin
        let gid = grp_of.(t.(0)) in
        if gid >= 0 then owned.(gid) <- (Array.map name t, v) :: owned.(gid)
      end)
    (Weighted.bindings ws.Weighted.weights);
  let records =
    Array.map
      (fun gr ->
        let tuples =
          Array.fold_left
            (fun acc x ->
              List.fold_left
                (fun acc (rel, t) -> (rel, Array.map name t) :: acc)
                acc inc.(x))
            [] gr.members
        in
        let tuples = List.sort_uniq cmp_named_tuple tuples in
        let weights = List.sort compare owned.(gr.gid) in
        seal ~key:options.key
          {
            r_gid = gr.gid;
            r_members = Array.map name gr.members;
            r_tuples = tuples;
            r_weights = weights;
            r_mac = 0;
          })
      groups
  in
  let hosts =
    Array.init k (fun gid ->
        (* deterministic sibling placement; dedupe when the partition is
           smaller than the redundancy *)
        let hs =
          List.init options.redundancy (fun j -> (gid + 1 + j) mod k)
        in
        Array.of_list (List.sort_uniq compare hs))
  in
  {
    opts = options;
    groups;
    grp_of;
    copies = Array.init k (fun gid -> Array.map (fun _ -> records.(gid)) hosts.(gid));
    hosts;
  }

let groups c = c.groups
let group_of c x = c.grp_of.(x)
let ngroups c = Array.length c.groups

(* --- capsule-level attacks ------------------------------------------- *)

let splice g ~fraction c ~other =
  if ngroups c <> ngroups other then
    invalid_arg "Recovery.splice: capsules from different partitions";
  {
    c with
    copies =
      Array.mapi
        (fun gid copies ->
          if Prng.bernoulli g fraction then Array.copy other.copies.(gid)
          else copies)
        c.copies;
  }

let forge g ~fraction ~amplitude c =
  let perturb r =
    let r' =
      {
        r with
        r_weights =
          List.map
            (fun (names, v) ->
              (names, v + Prng.int g ((2 * amplitude) + 1) - amplitude))
            r.r_weights;
      }
    in
    (* without the key the best the attacker can do is an unkeyed sum *)
    { r' with r_mac = unkeyed_mac r' }
  in
  {
    c with
    copies =
      Array.map
        (fun copies ->
          Array.map
            (fun r -> if Prng.bernoulli g fraction then perturb r else r)
            copies)
        c.copies;
  }

(* --- audit ------------------------------------------------------------ *)

type status = Intact | Distorted | Erased | Blind

type audit = {
  statuses : status array;
  intact : int;
  distorted : int;
  erased : int;
  blind : int;
  forged_rejected : int;
  tamper : Detector.tamper;
}

module Smap = Map.Make (String)

(* name -> suspect element, duplicated names excluded (matching one of
   several same-named rows would restore data into the wrong row; an
   erasure is honest) — the Survivable convention. *)
let name_index g =
  let index, dup =
    Structure.fold_universe
      (fun x (index, dup) ->
        let n = Structure.name_of g x in
        if Smap.mem n index then (index, Smap.add n () dup)
        else (Smap.add n x index, dup))
      g (Smap.empty, Smap.empty)
  in
  Smap.filter (fun n _ -> not (Smap.mem n dup)) index

(* Classify one group against the suspect; returns the status, the
   authentic record used (if any), and how many available copies were
   rejected as forged.  [alive] and [lookup] describe the pristine
   suspect. *)
let classify c ~alive ~lookup ~suspect_inc ~suspect_name ~sweights gid =
  let survivors =
    Array.to_list c.groups.(gid).names |> List.filter_map lookup
  in
  let rejected = ref 0 in
  let record =
    (* first surviving, authentic copy in deterministic host order *)
    let rec pick j =
      if j >= Array.length c.hosts.(gid) then None
      else if not alive.(c.hosts.(gid).(j)) then pick (j + 1)
      else begin
        let r = c.copies.(gid).(j) in
        if verify ~key:c.opts.key r then Some r
        else begin
          incr rejected;
          pick (j + 1)
        end
      end
    in
    pick 0
  in
  let status =
    match (survivors, record) with
    | [], _ -> Erased
    | _, None -> Blind
    | _ :: _, Some r ->
        let members_ok =
          Array.for_all (fun n -> lookup n <> None) r.r_members
        in
        let tuples_ok () =
          let observed =
            List.fold_left
              (fun acc x ->
                List.fold_left
                  (fun acc (rel, t) -> (rel, Array.map suspect_name t) :: acc)
                  acc suspect_inc.(x))
              [] survivors
          in
          List.sort_uniq cmp_named_tuple observed = r.r_tuples
        in
        let weights_ok () =
          List.for_all
            (fun (names, v) ->
              let ids = Array.map lookup names in
              Array.for_all (fun o -> o <> None) ids
              && Weighted.get sweights (Array.map Option.get ids) = v)
            r.r_weights
        in
        if members_ok && tuples_ok () && weights_ok () then Intact
        else Distorted
  in
  (status, record, !rejected)

let audit_context c (suspect : Weighted.structure) =
  let sg = suspect.Weighted.graph in
  let index = name_index sg in
  let lookup n = Smap.find_opt n index in
  let alive =
    Array.map
      (fun gr -> Array.exists (fun n -> lookup n <> None) gr.names)
      c.groups
  in
  let suspect_inc = incident_index sg in
  (alive, lookup, suspect_inc, Structure.name_of sg, suspect.Weighted.weights)

let assemble_audit results =
  let statuses = Array.map (fun (s, _, _) -> s) results in
  let count s = Array.fold_left (fun n x -> if x = s then n + 1 else n) 0 statuses in
  let intact = count Intact
  and distorted = count Distorted
  and erased = count Erased
  and blind = count Blind in
  let forged_rejected = Array.fold_left (fun n (_, _, f) -> n + f) 0 results in
  Obs.add c_groups (Array.length statuses);
  Obs.add c_forged forged_rejected;
  {
    statuses;
    intact;
    distorted;
    erased;
    blind;
    forged_rejected;
    tamper =
      {
        Detector.t_groups = Array.length statuses;
        t_intact = intact;
        t_distorted = distorted;
        t_erased = erased;
        t_blind = blind;
      };
  }

let classify_all c (suspect : Weighted.structure) =
  let alive, lookup, suspect_inc, suspect_name, sweights =
    audit_context c suspect
  in
  Wm_par.Pool.parallel_map
    (classify c ~alive ~lookup ~suspect_inc ~suspect_name ~sweights)
    (Array.init (ngroups c) Fun.id)

let audit c ~suspect =
  Obs.time t_audit @@ fun () -> assemble_audit (classify_all c suspect)

let dirty_groups a =
  Array.to_list a.statuses
  |> List.mapi (fun gid s -> (gid, s))
  |> List.filter_map (fun (gid, s) -> if s = Intact then None else Some gid)

(* --- repair ----------------------------------------------------------- *)

type repair_report = {
  findings : audit;
  repaired : int;
  unrepairable : int;
  restored_weights : int;
  restored_elements : int;
  restored_tuples : int;
  confidence : float;
}

let repair c ~suspect =
  Obs.time t_repair @@ fun () ->
  let results = classify_all c suspect in
  let findings = assemble_audit results in
  (* Mutable repair state: the structure grows fresh elements (named as
     the originals), so the name table is maintained alongside.  Groups
     are processed in gid order — deterministic at every job count. *)
  let sg = ref (Structure.with_default_names suspect.Weighted.graph) in
  let sw = ref suspect.Weighted.weights in
  let table =
    ref
      (Smap.filter_map
         (fun _ x -> Some x)
         (name_index !sg))
  in
  let resolve n = Smap.find_opt n !table in
  let restored_weights = ref 0
  and restored_elements = ref 0
  and restored_tuples = ref 0
  and repaired = ref 0
  and unrepairable = ref 0 in
  let damaged = ref [] in
  Array.iteri
    (fun gid (status, record, _) ->
      match (status, record) with
      | (Distorted | Erased), Some r -> damaged := (gid, r) :: !damaged
      | (Distorted | Erased | Blind), _ -> incr unrepairable
      | Intact, _ -> ())
    results;
  let damaged = List.rev !damaged in
  (* Phase A: resurrect every missing protected member by name — in
     damaged groups so the record content can land (and a tuple spanning
     two damaged groups finds both endpoints in phase B), in blind groups
     as empty shells so the protected numbering can be restored in phase
     D.  Intact groups have nothing missing by definition. *)
  Array.iteri
    (fun gid (status, _, _) ->
      if status <> Intact then
        Array.iter
          (fun n ->
            match resolve n with
            | Some _ -> ()
            | None ->
                let g', fresh =
                  Structure.apply_edit !sg (Structure.Add_element (Some n))
                in
                sg := g';
                (match fresh with
                | [ x ] ->
                    table := Smap.add n x !table;
                    incr restored_elements
                | _ -> assert false))
          c.groups.(gid).names)
    results;
  (* Phase B: reconcile each member's incident tuples with the record —
     re-insert recorded tuples whose endpoints all exist, remove tuples
     the record does not know (injected noise touching a member). *)
  List.iter
    (fun (_, r) ->
      let recorded = r.r_tuples in
      (* removals first: observed incident tuples of surviving members
         that the record does not list *)
      let inc = incident_index !sg in
      Array.iter
        (fun n ->
          match resolve n with
          | None -> ()
          | Some x ->
              List.iter
                (fun (rel, t) ->
                  let named = (rel, Array.map (Structure.name_of !sg) t) in
                  if not (List.exists (fun rt -> cmp_named_tuple rt named = 0) recorded)
                  then sg := fst (Structure.apply_edit !sg (Structure.Delete_tuple (rel, t))))
                inc.(x))
        r.r_members;
      List.iter
        (fun (rel, names) ->
          let ids = Array.map resolve names in
          if Array.for_all (fun o -> o <> None) ids then begin
            let t = Array.map Option.get ids in
            if not (Relation.mem t (Structure.relation !sg rel)) then begin
              sg := Structure.add_tuple !sg rel t;
              incr restored_tuples
            end
          end)
        recorded)
    damaged;
  (* Phase C: restore the recorded marked weights. *)
  List.iter
    (fun (_, r) ->
      let members_ok = Array.for_all (fun n -> resolve n <> None) r.r_members in
      let tuples_ok =
        List.for_all
          (fun (rel, names) ->
            let ids = Array.map resolve names in
            Array.for_all (fun o -> o <> None) ids
            && Relation.mem (Array.map Option.get ids) (Structure.relation !sg rel))
          r.r_tuples
      in
      let weights_ok = ref true in
      List.iter
        (fun (names, v) ->
          let ids = Array.map resolve names in
          if Array.for_all (fun o -> o <> None) ids then begin
            sw := Weighted.set !sw (Array.map Option.get ids) v;
            incr restored_weights
          end
          else weights_ok := false)
        r.r_weights;
      if members_ok && tuples_ok && !weights_ok then incr repaired
      else incr unrepairable)
    damaged;
  Obs.add c_repaired !repaired;
  Obs.add c_unrepairable !unrepairable;
  let k = ngroups c in
  let report =
    {
      findings;
      repaired = !repaired;
      unrepairable = !unrepairable;
      restored_weights = !restored_weights;
      restored_elements = !restored_elements;
      restored_tuples = !restored_tuples;
      confidence =
        (if k = 0 then 1.
         else float_of_int (findings.intact + !repaired) /. float_of_int k);
    }
  in
  (* Phase D: restore the protected numbering.  Phase A made every
     protected element exist by name, so when the whole universe resolves
     injectively we can renumber the repaired copy back to the marked
     copy's element order (attacker noise elements go to the end): the
     result reads through the plain id-keyed detectors, not only the
     name-aligned ones.  Skipped (keeping the suspect numbering) when
     duplicated names leave the mapping ambiguous. *)
  let renumbered =
    let total = Array.length c.grp_of in
    let pname = Array.make total "" in
    Array.iter
      (fun gr ->
        Array.iteri (fun i x -> pname.(x) <- gr.names.(i)) gr.members)
      c.groups;
    let target = Array.init total (fun x -> resolve pname.(x)) in
    if not (Array.for_all (fun o -> o <> None) target) then None
    else begin
      let target = Array.map Option.get target in
      let image = Hashtbl.create total in
      Array.iter (fun x -> Hashtbl.replace image x ()) target;
      if Hashtbl.length image <> total then None
      else begin
        let extras =
          List.rev
            (Structure.fold_universe
               (fun x acc -> if Hashtbl.mem image x then acc else x :: acc)
               !sg [])
        in
        let keep = Array.to_list target @ extras in
        let g', old_of_new = Structure.induced !sg keep in
        let new_of_old = Hashtbl.create (Array.length old_of_new) in
        Array.iteri (fun nw od -> Hashtbl.replace new_of_old od nw) old_of_new;
        let w' =
          List.fold_left
            (fun acc (t, v) ->
              Weighted.set acc
                (Array.map (fun x -> Hashtbl.find new_of_old x) t)
                v)
            (Weighted.create ~default:(Weighted.default !sw) (Weighted.arity !sw))
            (Weighted.bindings !sw)
        in
        Some (Weighted.make g' w')
      end
    end
  in
  ( (match renumbered with
    | Some r -> r
    | None -> Weighted.make !sg !sw),
    report )

let detect_repaired c scheme ~times ~length ~original ~suspect =
  let repaired_ws, report = repair c ~suspect in
  let rv, _alignment =
    Survivable.detect_structure scheme ~times ~length ~original
      ~suspect:repaired_ws
  in
  let rv =
    {
      rv with
      Survivable.carriers =
        Detector.with_tamper rv.Survivable.carriers report.findings.tamper;
    }
  in
  (rv, report, repaired_ws)

(* --- reporting -------------------------------------------------------- *)

let status_label = function
  | Intact -> "intact"
  | Distorted -> "distorted"
  | Erased -> "erased"
  | Blind -> "blind"

let render_audit c a =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "groups: %d total, %d intact, %d distorted, %d erased, %d blind\n"
       (Array.length a.statuses) a.intact a.distorted a.erased a.blind);
  if a.forged_rejected > 0 then
    Buffer.add_string buf
      (Printf.sprintf "rejected %d forged certificate copies\n" a.forged_rejected);
  Buffer.add_string buf
    (Printf.sprintf "suspicion: %.2f\n" (Detector.suspicion a.tamper));
  Array.iteri
    (fun gid s ->
      if s <> Intact then
        Buffer.add_string buf
          (Printf.sprintf "  group %d [%s]: %s\n" gid
             (String.concat ","
                (Array.to_list c.groups.(gid).names))
             (status_label s)))
    a.statuses;
  Buffer.contents buf

let audit_json c a =
  Wm_util.Json.(
    Obj
      [
        ("groups", Int (Array.length a.statuses));
        ("intact", Int a.intact);
        ("distorted", Int a.distorted);
        ("erased", Int a.erased);
        ("blind", Int a.blind);
        ("forged_rejected", Int a.forged_rejected);
        ("suspicion", Float (Detector.suspicion a.tamper));
        ( "dirty_groups",
          List
            (List.map
               (fun gid ->
                 Obj
                   [
                     ("gid", Int gid);
                     ("status", String (status_label a.statuses.(gid)));
                     ( "members",
                       List
                         (Array.to_list
                            (Array.map
                               (fun n -> String n)
                               c.groups.(gid).names)) );
                   ])
               (dirty_groups a)) );
      ])

let repair_json r =
  Wm_util.Json.(
    Obj
      [
        ("repaired", Int r.repaired);
        ("unrepairable", Int r.unrepairable);
        ("restored_weights", Int r.restored_weights);
        ("restored_elements", Int r.restored_elements);
        ("restored_tuples", Int r.restored_tuples);
        ("confidence", Float r.confidence);
      ])
