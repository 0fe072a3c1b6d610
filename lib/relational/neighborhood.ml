type nbh = {
  sub : Structure.t;
  center : int list;
  original : int array;
}

(* Observability (DESIGN.md 5.8/5.9).  The counters decompose the cost
   claims of E20-E23: how many spheres were actually extracted by BFS
   (vs served from the per-index cache), how many induced-substructure
   scans the sphere-set dedupe shared, how many exact isomorphism tests
   ran, and how many the cheap-invariant pre-bucketing avoided. *)
module Obs = Wm_obs.Obs

let c_spheres = Obs.counter "nbh.spheres"
let c_sphere_hits = Obs.counter "nbh.sphere_cache_hits"
let c_subs_deduped = Obs.counter "nbh.subs_deduped"
let c_tuples_typed = Obs.counter "nbh.tuples_typed"
let c_buckets = Obs.counter "nbh.buckets"
let c_iso_checks = Obs.counter "nbh.iso_checks"
let c_iso_avoided = Obs.counter "nbh.iso_avoided"
let c_affected_elements = Obs.counter "nbh.reindex.affected_elements"
let c_affected_tuples = Obs.counter "nbh.reindex.affected_tuples"
let c_anchors = Obs.counter "nbh.reindex.anchors"
let c_fallbacks = Obs.counter "nbh.reindex.threshold_fallbacks"
let t_index = Obs.timer "nbh.index"
let t_reindex = Obs.timer "nbh.reindex"
let t_spheres = Obs.timer "nbh.index.spheres"
let t_prep = Obs.timer "nbh.index.prep"
let t_classify = Obs.timer "nbh.index.classify"
let t_renumber = Obs.timer "nbh.index.renumber"

let iso_check pa pb =
  Obs.incr c_iso_checks;
  Iso.isomorphic_prep pa pb

let of_tuple g gf ~rho c =
  Obs.incr c_spheres;
  let sphere = Gaifman.sphere_tuple gf ~rho c in
  (* Put the tuple's own elements first so their new ids are stable. *)
  let sub, original = Structure.induced g (Array.to_list c @ sphere) in
  let new_id = Hashtbl.create 16 in
  Array.iteri (fun nw old -> Hashtbl.replace new_id old nw) original;
  let center = List.map (Hashtbl.find new_id) (Array.to_list c) in
  { sub; center; original }

let equivalent g gf ~rho a b =
  let na = of_tuple g gf ~rho a and nb = of_tuple g gf ~rho b in
  Iso.isomorphic na.sub na.center nb.sub nb.center

type index = {
  rho : int;
  arity : int;
  types : int Tuple.Map.t;
  representatives : Tuple.t array;
}

(* --- streaming enumeration of U^arity ------------------------------
   The enumeration order (first coordinate cycling fastest) fixes the
   type-id numbering, so [nth_tuple] must keep reproducing the order the
   original cons-list construction produced. *)

let ipow n k =
  let r = ref 1 in
  for _ = 1 to k do
    r := !r * n
  done;
  !r

let tuple_count n ~arity = if arity = 0 then 1 else ipow n arity

let nth_tuple n ~arity ix =
  let t = Array.make arity 0 in
  let r = ref ix in
  for j = 0 to arity - 1 do
    t.(j) <- !r mod n;
    r := !r / n
  done;
  t

let iter_all_tuples g ~arity f =
  let n = Structure.size g in
  for ix = 0 to tuple_count n ~arity - 1 do
    f (nth_tuple n ~arity ix)
  done

let all_tuples g ~arity =
  let n = Structure.size g in
  List.init (tuple_count n ~arity) (fun ix -> nth_tuple n ~arity ix)

let all_tuples_array g ~arity =
  let n = Structure.size g in
  Array.init (tuple_count n ~arity) (fun ix -> nth_tuple n ~arity ix)

(* --- the shared fast-path context (DESIGN.md 5.9) -------------------
   One [ctx] serves every materialization pass of one index/reindex call:

   - [spheres] memoizes [Gaifman.sphere_array] per element, so a tuple
     sphere is a union of cached arrays instead of arity-many BFS runs;
   - [incident] maps each element to the structure tuples containing it,
     so the members of a sphere are found by a local scan (proportional
     to the sphere's own tuples) instead of a full-relation sweep;
   - [groups] dedupes that member scan across all tuples sharing one
     sphere (sorted element set) — heavy overlap at arity >= 2.

   The tables are only mutated in the sequential grouping phases; the
   parallel phases read frozen entries, which keeps the pool's
   bit-identical-for-every-job-count contract. *)

type ctx = {
  cg : Structure.t;
  cgf : Gaifman.t;
  crho : int;
  use_cache : bool;
  incident : (string * Tuple.t) list array;
  spheres : int array option array;
  groups : (int array, (string * Tuple.t) list option ref) Hashtbl.t;
}

let make_ctx ?(use_cache = true) g gf ~rho =
  let n = Structure.size g in
  let incident = Array.make n [] in
  Structure.fold_relations
    (fun name r () ->
      Relation.iter
        (fun t ->
          Array.iteri
            (fun i x ->
              (* record once per distinct element of the tuple *)
              let rec first j = if t.(j) = x then j else first (j + 1) in
              if first 0 = i then incident.(x) <- (name, t) :: incident.(x))
            t)
        r)
    g ();
  {
    cg = g;
    cgf = gf;
    crho = rho;
    use_cache;
    incident;
    spheres = Array.make n None;
    groups = Hashtbl.create 256;
  }

(* Tuples of the structure lying entirely inside the sphere [s] (sorted
   element-set array): a scan local to [s], deduplicated by charging each
   tuple to its first element.  Membership is binary search in [s] —
   a universe-sized seen-array here would cost O(n) per distinct sphere,
   quadratic when (as on the ring workloads) almost every sphere is
   distinct. *)
let mem_sorted (s : int array) y =
  let lo = ref 0 and hi = ref (Array.length s - 1) and found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = s.(mid) in
    if v = y then found := true
    else if v < y then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let members_in ctx s =
  let acc = ref [] in
  Array.iter
    (fun x ->
      List.iter
        (fun ((_, t) as entry) ->
          if t.(0) = x && Array.for_all (fun y -> mem_sorted s y) t then
            acc := entry :: !acc)
        ctx.incident.(x))
    s;
  !acc

let icmp (a : int) b = compare a b

let sphere_union ctx c =
  let sphere_of x =
    match ctx.spheres.(x) with
    | Some s -> s
    | None ->
        Obs.incr c_spheres;
        Gaifman.sphere_array ctx.cgf ~rho:ctx.crho x
  in
  match Array.length c with
  | 0 -> [||]
  | 1 -> sphere_of c.(0)
  | _ ->
      let parts = Array.map sphere_of c in
      let total = Array.fold_left (fun acc s -> acc + Array.length s) 0 parts in
      let buf = Array.make total 0 in
      let p = ref 0 in
      Array.iter
        (fun s ->
          Array.blit s 0 buf !p (Array.length s);
          p := !p + Array.length s)
        parts;
      Array.sort icmp buf;
      let w = ref 0 in
      Array.iter
        (fun v ->
          if !w = 0 || buf.(!w - 1) <> v then begin
            buf.(!w) <- v;
            incr w
          end)
        buf;
      Array.sub buf 0 !w

(* Materialize classification data for every tuple: bucket key (cheap
   invariants), certificate, and the {!Iso.prep} reused by every exact
   in-bucket test.  The induced substructure and its Gaifman graph are
   built once per tuple and threaded through all three consumers. *)
let materialize ctx tups =
  (* Phase A (parallel): BFS the spheres of elements not yet cached. *)
  if ctx.use_cache then begin
    let n = Structure.size ctx.cg in
    let pending = Array.make n false in
    let missing = ref [] and nmiss = ref 0 and lookups = ref 0 in
    Array.iter
      (fun c ->
        Array.iter
          (fun x ->
            incr lookups;
            if ctx.spheres.(x) = None && not pending.(x) then begin
              pending.(x) <- true;
              missing := x :: !missing;
              incr nmiss
            end)
          c)
      tups;
    let missing = Array.of_list (List.rev !missing) in
    let computed =
      Wm_par.Pool.parallel_map
        (fun x -> Gaifman.sphere_array ctx.cgf ~rho:ctx.crho x)
        missing
    in
    Array.iteri (fun i x -> ctx.spheres.(x) <- Some computed.(i)) missing;
    Obs.add c_spheres !nmiss;
    Obs.add c_sphere_hits (!lookups - !nmiss)
  end;
  (* Phase B (sequential, cheap): tuple spheres by union, grouped by
     sphere so the member scan below runs once per distinct sphere. *)
  let sets = Array.map (fun c -> sphere_union ctx c) tups in
  let fresh = ref [] in
  if ctx.use_cache then
    Array.iter
      (fun s ->
        if Hashtbl.mem ctx.groups s then Obs.incr c_subs_deduped
        else begin
          Hashtbl.add ctx.groups s (ref None);
          fresh := s :: !fresh
        end)
      sets;
  (* Phase C (parallel): one member scan per fresh sphere group. *)
  let fresh = Array.of_list (List.rev !fresh) in
  let scanned = Wm_par.Pool.parallel_map (fun s -> members_in ctx s) fresh in
  Array.iteri (fun i s -> Hashtbl.find ctx.groups s := Some scanned.(i)) fresh;
  let members_of s =
    if ctx.use_cache then
      match !(Hashtbl.find ctx.groups s) with
      | Some m -> m
      | None -> assert false
    else members_in ctx s
  in
  (* Phase D (parallel): per-tuple substructure, sub-Gaifman graph,
     cheap key, certificate, refinement prep. *)
  let schema = Structure.schema ctx.cg in
  Obs.span t_prep @@ fun () ->
  Wm_par.Pool.parallel_mapi
    (fun i c ->
      let s = sets.(i) in
      let members = members_of s in
      let k = Array.length s in
      (* Renaming: the tuple's own elements first (stable center ids),
         then the rest of the sphere in ascending order. *)
      let new_id = Hashtbl.create (2 * k) in
      let pos = ref 0 in
      let place x =
        if not (Hashtbl.mem new_id x) then begin
          Hashtbl.add new_id x !pos;
          incr pos
        end
      in
      Array.iter place c;
      Array.iter place s;
      let ren t = Array.map (fun x -> Hashtbl.find new_id x) t in
      let by_rel : (string, Tuple.t list ref) Hashtbl.t = Hashtbl.create 8 in
      let renamed_all = ref [] in
      List.iter
        (fun (name, t) ->
          let rt = ren t in
          renamed_all := rt :: !renamed_all;
          match Hashtbl.find_opt by_rel name with
          | Some l -> l := rt :: !l
          | None -> Hashtbl.add by_rel name (ref [ rt ]))
        members;
      let sub =
        Hashtbl.fold
          (fun name ts acc ->
            let arity = Relation.arity (Structure.relation acc name) in
            Structure.set_relation acc name (Relation.of_list arity !ts))
          by_rel
          (Structure.create schema k)
      in
      let gf_sub = Gaifman.of_tuples ~n:k !renamed_all in
      let center = List.map (Hashtbl.find new_id) (Array.to_list c) in
      let prep = Iso.prep ~gf:gf_sub sub center in
      (* Cheap invariants, deep-hashed: sphere size, member count, degree
         multiset of the sub-Gaifman graph, center equality pattern. *)
      let degs = Gaifman.degrees gf_sub in
      Array.sort icmp degs;
      let h = ref (Iso.mix 0x9e3779b9 k) in
      h := Iso.mix !h (List.length members);
      Array.iter (fun d -> h := Iso.mix !h d) degs;
      List.iter (fun x -> h := Iso.mix !h x) center;
      (!h, Iso.certificate_of_prep prep, prep))
    tups

let distinct_tuples tuples =
  (* first-occurrence order, which fixes the type-id numbering *)
  let seen = ref Tuple.Set.empty in
  List.filter
    (fun c ->
      if Tuple.Set.mem c !seen then false
      else begin
        seen := Tuple.Set.add c !seen;
        true
      end)
    tuples

let run_index ctx tups ~rho ~arity =
  let n = Array.length tups in
  Obs.add c_tuples_typed n;
  (* Phase 1 (parallel): materialize every neighborhood's classification
     data through the shared context. *)
  let keyed = Obs.span t_spheres @@ fun () -> materialize ctx tups in
  (* Phase 2 (sequential, cheap): group slots into buckets keyed by
     (cheap invariants, certificate), keeping first-seen order both of
     buckets and within each bucket. *)
  let btbl : (int * int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let border = ref [] in
  Array.iteri
    (fun i (ck, cert, _) ->
      match Hashtbl.find_opt btbl (ck, cert) with
      | Some slots -> slots := i :: !slots
      | None ->
          Hashtbl.add btbl (ck, cert) (ref [ i ]);
          border := (ck, cert) :: !border)
    keyed;
  let buckets =
    Array.of_list
      (List.rev_map
         (fun k -> Array.of_list (List.rev !(Hashtbl.find btbl k)))
         !border)
  in
  Obs.add c_buckets (Array.length buckets);
  (* Phase 3 (parallel): exact classification inside each bucket.
     Buckets are independent; within one bucket the search is the
     sequential scan against the bucket's representatives.  For each
     slot we record its leader: the slot of the first bucket member it
     is isomorphic to.  Representatives of one bucket are pairwise
     non-isomorphic, so a member matches at most one of them and the
     leader is well defined regardless of search order. *)
  let leader = Array.make n (-1) in
  let classified =
    Obs.span t_classify @@ fun () ->
    Wm_par.Pool.parallel_map
      (fun slots ->
        let reps = ref [] in
        let leaders =
          Array.map
            (fun i ->
              let _, _, prep = keyed.(i) in
              match List.find_opt (fun (_, rep) -> iso_check prep rep) !reps with
              | Some (l, _) -> l
              | None ->
                  reps := (i, prep) :: !reps;
                  i)
            slots
        in
        (leaders, List.length !reps))
      buckets
  in
  Array.iteri
    (fun b slots ->
      Array.iteri (fun k i -> leader.(i) <- (fst classified.(b)).(k)) slots)
    buckets;
  (if Obs.enabled () then
     (* What pre-bucketing saved: a bucket-less scan compares each tuple
        against every representative outside its own bucket as well. *)
     let total_reps =
       Array.fold_left (fun acc (_, r) -> acc + r) 0 classified
     in
     Array.iteri
       (fun b slots ->
         Obs.add c_iso_avoided
           (Array.length slots * (total_reps - snd classified.(b))))
       buckets);
  (* Phase 4 (sequential): number the classes by first occurrence, which
     reproduces the type ids of the plain sequential fold exactly. *)
  Obs.span t_renumber @@ fun () ->
  let ty_of_leader = Hashtbl.create 64 in
  let reps = ref [] in
  let next_ty = ref 0 in
  let types = ref Tuple.Map.empty in
  Array.iteri
    (fun i c ->
      let l = leader.(i) in
      let ty =
        match Hashtbl.find_opt ty_of_leader l with
        | Some ty -> ty
        | None ->
            let ty = !next_ty in
            incr next_ty;
            Hashtbl.add ty_of_leader l ty;
            reps := tups.(l) :: !reps;
            ty
      in
      types := Tuple.Map.add c ty !types)
    tups;
  { rho; arity; types = !types; representatives = Array.of_list (List.rev !reps) }

let index ?(sphere_cache = true) g ~rho tuples =
  Obs.span t_index @@ fun () ->
  let gf = Gaifman.of_structure g in
  let ctx = make_ctx ~use_cache:sphere_cache g gf ~rho in
  let tups = Array.of_list (distinct_tuples tuples) in
  let arity = if Array.length tups > 0 then Array.length tups.(0) else 0 in
  run_index ctx tups ~rho ~arity

let index_universe ?sphere_cache g ~rho ~arity =
  Obs.span t_index @@ fun () ->
  let gf = Gaifman.of_structure g in
  let ctx = make_ctx ?use_cache:sphere_cache g gf ~rho in
  run_index ctx (all_tuples_array g ~arity) ~rho ~arity

let affected_elements ~old_gf ~gf ~rho ~dirty =
  (* Both graphs: an inserted edge shortens distances only in the new graph,
     a deleted one only in the old; a tuple's sphere can change iff one of
     its elements is within rho of a dirty element in either. *)
  List.sort_uniq compare
    (Gaifman.reach old_gf ~sources:dirty ~bound:rho
    @ Gaifman.reach gf ~sources:dirty ~bound:rho)

let reindex ?(threshold = 0.5) ~old g ~prev ~dirty =
  Obs.span t_reindex @@ fun () ->
  let rho = prev.rho and arity = prev.arity in
  let old_gf = Gaifman.of_structure old in
  let gf = Gaifman.refresh g ~prev:old_gf ~dirty in
  let n = Structure.size g in
  let affected = affected_elements ~old_gf ~gf ~rho ~dirty in
  Obs.add c_affected_elements (List.length affected);
  let in_a = Array.make (max n (Structure.size old)) false in
  List.iter (fun x -> in_a.(x) <- true) affected;
  let a_new = List.length (List.filter (fun x -> x < n) affected) in
  let total = float_of_int n ** float_of_int arity in
  let affected_tuples = total -. (float_of_int (n - a_new) ** float_of_int arity) in
  if total = 0. || affected_tuples > threshold *. total then begin
    Obs.incr c_fallbacks;
    index_universe g ~rho ~arity
  end
  else begin
    let ctx = make_ctx g gf ~rho in
    let touches c = Array.exists (fun x -> in_a.(x)) c in
    (* Anchors: for every old type that still has a member untouched by the
       affected region, any such member — its neighborhood is unchanged, so
       it stands in for the whole class during reclassification.  Old
       classes cannot merge (their untouched members stay non-isomorphic),
       so matching an anchor is unambiguous. *)
    let ntp_old = Array.length prev.representatives in
    let anchor = Array.make ntp_old None in
    Tuple.Map.iter
      (fun c ty ->
        if
          anchor.(ty) = None
          && not (Array.exists (fun x -> x >= n || in_a.(x)) c)
        then anchor.(ty) <- Some c)
      prev.types;
    let anchors =
      let acc = ref [] in
      for ty = ntp_old - 1 downto 0 do
        match anchor.(ty) with
        | Some c -> acc := (ty, c) :: !acc
        | None -> ()
      done;
      Array.of_list !acc
    in
    let anchor_keyed = materialize ctx (Array.map snd anchors) in
    let atbl : (int * int, (int * Iso.prep) list ref) Hashtbl.t =
      Hashtbl.create 64
    in
    Array.iteri
      (fun i (ck, cert, prep) ->
        let ty = fst anchors.(i) in
        match Hashtbl.find_opt atbl (ck, cert) with
        | Some l -> l := (ty, prep) :: !l
        | None -> Hashtbl.add atbl (ck, cert) (ref [ (ty, prep) ]))
      anchor_keyed;
    Obs.add c_anchors (Array.length anchors);
    (* Affected tuples, in enumeration order so numbering below matches the
       from-scratch index; everything else keeps its old class. *)
    let at =
      let acc = ref [] in
      iter_all_tuples g ~arity (fun c -> if touches c then acc := c :: !acc);
      Array.of_list (List.rev !acc)
    in
    Obs.add c_affected_tuples (Array.length at);
    let keyed = materialize ctx at in
    let btbl : (int * int, int list ref) Hashtbl.t = Hashtbl.create 64 in
    let border = ref [] in
    Array.iteri
      (fun i (ck, cert, _) ->
        match Hashtbl.find_opt btbl (ck, cert) with
        | Some slots -> slots := i :: !slots
        | None ->
            Hashtbl.add btbl (ck, cert) (ref [ i ]);
            border := (ck, cert) :: !border)
      keyed;
    let buckets =
      Array.of_list
        (List.rev_map
           (fun k -> (k, Array.of_list (List.rev !(Hashtbl.find btbl k))))
           !border)
    in
    (* Class keys: [0 .. ntp_old-1] are surviving old classes, [ntp_old + i]
       is a fresh class led by affected slot [i].  A fresh leader is not
       isomorphic to any anchor of its bucket, hence to no surviving old
       class; so every tuple matches at most one candidate and the result
       does not depend on how buckets are scheduled. *)
    let classified =
      Wm_par.Pool.parallel_map
        (fun (key, slots) ->
          let anchors_here =
            match Hashtbl.find_opt atbl key with
            | Some l -> List.rev !l
            | None -> []
          in
          let reps = ref [] in
          Array.map
            (fun i ->
              let _, _, prep = keyed.(i) in
              let iso (_, r) = iso_check prep r in
              match List.find_opt iso anchors_here with
              | Some (ty, _) -> ty
              | None -> (
                  match List.find_opt iso !reps with
                  | Some (cls, _) -> cls
                  | None ->
                      let cls = ntp_old + i in
                      reps := (cls, prep) :: !reps;
                      cls))
            slots)
        buckets
    in
    let cls = Array.make (Array.length at) (-1) in
    Array.iteri
      (fun b (_, slots) ->
        Array.iteri (fun k i -> cls.(i) <- classified.(b).(k)) slots)
      buckets;
    let cls_of_tuple = Tuple.Hashtbl.create (max 16 (Array.length at)) in
    Array.iteri (fun i c -> Tuple.Hashtbl.replace cls_of_tuple c cls.(i)) at;
    (* Renumber every class by first occurrence over the full enumeration —
       the same sequential pass as the from-scratch phase 4, so type ids and
       representatives come out bit-identical. *)
    let ty_of_cls = Hashtbl.create 64 in
    let reps = ref [] in
    let next_ty = ref 0 in
    let types = ref Tuple.Map.empty in
    iter_all_tuples g ~arity (fun c ->
        let k =
          match Tuple.Hashtbl.find_opt cls_of_tuple c with
          | Some k -> k
          | None -> Tuple.Map.find c prev.types
        in
        let ty =
          match Hashtbl.find_opt ty_of_cls k with
          | Some ty -> ty
          | None ->
              let ty = !next_ty in
              incr next_ty;
              Hashtbl.add ty_of_cls k ty;
              reps := c :: !reps;
              ty
        in
        types := Tuple.Map.add c ty !types);
    { rho; arity; types = !types; representatives = Array.of_list (List.rev !reps) }
  end

let ntp ix = Array.length ix.representatives

let type_of ix c =
  match Tuple.Map.find_opt c ix.types with
  | Some ty -> ty
  | None -> raise Not_found

