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
let c_bw_decomps = Obs.counter "nbh.bw.decompositions"
let c_bw_decomp_hits = Obs.counter "nbh.bw.decomp_cache_hits"
let c_bw_groups = Obs.counter "nbh.bw.groups"
let c_bw_bypassed = Obs.counter "nbh.bw.iso_bypassed"
let c_bw_fallbacks = Obs.counter "nbh.bw.width_fallbacks"
let c_bw_max_width = Obs.counter "nbh.bw.max_width_seen"
let t_index = Obs.timer "nbh.index"
let t_reindex = Obs.timer "nbh.reindex"
let t_spheres = Obs.timer "nbh.index.spheres"
let t_codes = Obs.timer "nbh.index.codes"
let t_prep = Obs.timer "nbh.index.prep"
let t_classify = Obs.timer "nbh.index.classify"
let t_renumber = Obs.timer "nbh.index.renumber"

(* [nbh.bw.max_width_seen] is a high-water mark dressed as a counter:
   counters merge across domains by summation, so the running max lives
   in a process-global atomic and only the *increase* is added to the
   counter — the deltas telescope to the max.  Widths above the active
   bound are recorded as bound + 1 (the probe aborts there). *)
let bw_max_seen = Atomic.make 0

let note_width w =
  let rec go () =
    let cur = Atomic.get bw_max_seen in
    if w > cur then
      if Atomic.compare_and_set bw_max_seen cur w then
        Obs.add c_bw_max_width (w - cur)
      else go ()
  in
  go ()

(* --- width-bound resolution (DESIGN.md 5.14) ------------------------
   ?width_bound argument > set_width_bound > WMARK_WIDTH_BOUND > off.
   [None] means the generic typing path; [Some k] enables the bounded
   decomposition-code path for spheres of heuristic width <= k.  The
   environment is parsed once at module initialization, mirroring
   Pool.env_jobs, so a mis-set CI variable warns exactly once. *)

let env_width_bound =
  match Sys.getenv_opt "WMARK_WIDTH_BOUND" with
  | None -> None
  | Some s -> (
      match String.trim s with
      | "" | "0" -> None
      | ts -> (
          match int_of_string_opt ts with
          | Some k when k >= 1 -> Some k
          | _ ->
              Printf.eprintf
                "wmark: ignoring WMARK_WIDTH_BOUND=%s (not a nonnegative \
                 integer), using the generic typing path\n\
                 %!"
                (Filename.quote s);
              None))

let wb_override : int option option Atomic.t = Atomic.make None

let set_width_bound = function
  | None -> Atomic.set wb_override None
  | Some k when k < 0 ->
      invalid_arg "Neighborhood.set_width_bound: bound must be >= 0"
  | Some 0 -> Atomic.set wb_override (Some None)
  | Some k -> Atomic.set wb_override (Some (Some k))

let width_bound () =
  match Atomic.get wb_override with Some b -> b | None -> env_width_bound

let resolve_bound = function
  | Some k when k < 0 ->
      invalid_arg "Neighborhood: width_bound must be >= 0"
  | Some 0 -> None
  | Some k -> Some k
  | None -> width_bound ()

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

(* Per-sphere decomposition data for the bounded path: the min-degree
   tree decomposition of the sphere's sub-Gaifman graph (over the
   sphere-local ascending renaming, which is center-independent and so
   shared by every tuple with this sphere) plus iso-invariant vertex
   colors.  [d_dec] is an aborted width probe when [d_width] exceeds the
   bound — such spheres fall back to the generic per-tuple prep. *)
type dinfo = {
  mutable d_id : int;
      (* dense per-ctx id, assigned sequentially after the parallel
         probe pass: the dedup key for per-tuple canonical codes
         ((d_id, center labels) determines the code).  [-1] until
         assigned; never assigned on the uncached path, which computes
         codes directly. *)
  d_width : int;
  d_dec : Tdecomp.t;
  d_colors : int array;
  d_rels : (int * int * int array array) array;
      (* (rel_id, arity, sphere-locally renamed member tuples),
         rel_id-ascending — precomputed so the per-tuple encoder only
         applies the canonical relabeling and sorts *)
}

type ctx = {
  cg : Structure.t;
  cgf : Gaifman.t;
  crho : int;
  use_cache : bool;
  bound : int option;
  rel_id : (string, int) Hashtbl.t;
      (* schema name -> dense id, name-sorted: an injective, structure-
         independent relation code for the flat sphere encodings *)
  incident : (string * Tuple.t) list array;
  spheres : int array option array;
  groups : (int array, (string * Tuple.t) list option ref) Hashtbl.t;
  decomps : (int array, dinfo option ref) Hashtbl.t;
  mutable next_did : int;  (* next dinfo id (sequential phases only) *)
}

let make_ctx ?(use_cache = true) ?bound g gf ~rho =
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
  let rel_id = Hashtbl.create 8 in
  let names = Structure.fold_relations (fun name _ acc -> name :: acc) g [] in
  List.iteri
    (fun i name -> Hashtbl.replace rel_id name i)
    (List.sort compare names);
  {
    cg = g;
    cgf = gf;
    crho = rho;
    use_cache;
    bound;
    rel_id;
    incident;
    spheres = Array.make n None;
    groups = Hashtbl.create 256;
    decomps = Hashtbl.create 256;
    next_did = 0;
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

(* Index of [y] in the sorted sphere array [s]; [y] must be a member. *)
let idx_sorted (s : int array) y =
  let lo = ref 0 and hi = ref (Array.length s - 1) and r = ref (-1) in
  while !r < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = s.(mid) in
    if v = y then r := mid else if v < y then lo := mid + 1 else hi := mid - 1
  done;
  !r

(* --- the bounded-width fast path (DESIGN.md 5.14) -------------------

   When a width bound k is active, each distinct renamed sphere shape
   gets one decomposition probe: rename the sphere to 0..|s|-1 in
   ascending element order (center-independent, so the result is shared
   by every tuple with this sphere), key it by the injective flat
   encoding of its renamed member list — equal keys are literally the
   same renamed structure, so on translation-regular instances (grids,
   paths, balanced trees) thousands of spheres collapse onto a handful
   of representatives — and run bitmask min-degree elimination capped at
   k on each representative.  Spheres within the bound are typed by a
   {e canonical decomposition code} per tuple — a flat int encoding of
   the whole pointed sphere under the relabeling the rooted
   decomposition induces, computed once per distinct (shape, center
   labels) pair — and tuples with equal codes inherit their group
   leader's materialization and classification outright.

   Soundness is one-directional by construction: the encoding lists
   every member tuple of every relation under a bijective relabeling,
   so equal codes imply isomorphic pointed spheres {e exactly} — a
   group member is genuinely isomorphic to its leader, and inheriting
   the leader's (cheap key, certificate, prep) triple and in-bucket
   match reproduces what the generic scan would have computed for it.
   The converse (isomorphic spheres getting equal codes) is heuristic —
   the relabeling depends on the min-degree decomposition — and a miss
   only costs a redundant leader, never a wrong type: leaders still go
   through the exact certificate-bucketed isomorphism scan.  Output is
   therefore bit-identical to the generic path at every job count. *)

let popcount x =
  let c = ref 0 and x = ref x in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr c
  done;
  !c

(* Sphere-locally renamed member tuples tagged with their dense relation
   ids, in member-scan order. *)
let rename_members ctx s members =
  List.map
    (fun (name, t) ->
      (Hashtbl.find ctx.rel_id name, Array.map (fun x -> idx_sorted s x) t))
    members

(* Flat injective key of a renamed member list: [k; rel_id; arity;
   elems...; rel_id; arity; elems...] is uniquely decodable, so equal
   keys mean literally the same renamed structure.  Everything the
   bounded path derives per sphere (decomposition, colors, relation
   tables, and — given center labels — the canonical code) is a
   deterministic function of this key, which is what makes sharing one
   [dinfo] across equal-key spheres sound.  On translation-regular
   instances (grids, long paths, balanced trees) almost every sphere
   collapses onto a handful of representatives. *)
let rep_key k rmembers =
  let total =
    List.fold_left (fun acc (_, rt) -> acc + 2 + Array.length rt) 1 rmembers
  in
  let out = Array.make total 0 in
  out.(0) <- k;
  let p = ref 1 in
  List.iter
    (fun (id, rt) ->
      let a = Array.length rt in
      out.(!p) <- id;
      out.(!p + 1) <- a;
      Array.blit rt 0 out (!p + 2) a;
      p := !p + 2 + a)
    rmembers;
  out

(* Int-array-keyed tables that hash the whole key: the stdlib
   polymorphic hash stops after ten meaningful words, and sphere keys
   share long common prefixes. *)
module Key = struct
  type t = int array

  let equal (a : int array) b = a = b
  let hash a = Array.fold_left (fun h x -> Iso.mix h x) (Array.length a) a
end

module Ktbl = Hashtbl.Make (Key)

let dinfo_of ~bound k rmembers =
  Obs.incr c_bw_decomps;
  (* Word-sized spheres (every bounded-width workload in practice) get
     bitmask adjacency straight from the renamed member tuples; larger
     spheres fall back to the CSR Gaifman build. *)
  let dec, degree =
    if k <= 62 then begin
      let adj = Array.make k 0 in
      List.iter
        (fun (_, rt) ->
          let a = Array.length rt in
          for i = 0 to a - 1 do
            for j = 0 to a - 1 do
              if i <> j && rt.(i) <> rt.(j) then
                adj.(rt.(i)) <- adj.(rt.(i)) lor (1 lsl rt.(j))
            done
          done)
        rmembers;
      (Tdecomp.eliminate_masks ~cap:bound adj, fun v -> popcount adj.(v))
    end
    else begin
      let gf_s = Gaifman.of_tuples ~n:k (List.map snd rmembers) in
      (Tdecomp.eliminate ~cap:bound gf_s, Gaifman.degree gf_s)
    end
  in
  note_width dec.Tdecomp.width;
  if dec.Tdecomp.width > bound then
    (* aborted probe: the sphere falls back to the generic path, so the
       colors and relation tables are never consulted *)
    {
      d_id = -1;
      d_width = dec.Tdecomp.width;
      d_dec = dec;
      d_colors = [||];
      d_rels = [||];
    }
  else begin
    (* Iso-invariant vertex colors: degree plus the sorted multiset of
       (relation id, position) incidences.  Relation ids are name-sorted
       dense ids, fixed per ctx, so the invariant holds across every
       sphere one index call compares. *)
    let inc = Array.make k [] in
    List.iter
      (fun (id, rt) ->
        Array.iteri (fun pos v -> inc.(v) <- Iso.mix id pos :: inc.(v)) rt)
      rmembers;
    let colors =
      Array.init k (fun v ->
          let l = List.sort icmp inc.(v) in
          List.fold_left Iso.mix (Iso.mix 0x811c9dc5 (degree v)) l)
    in
    let by_rel : (int, int array list ref) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (id, rt) ->
        match Hashtbl.find_opt by_rel id with
        | Some l -> l := rt :: !l
        | None -> Hashtbl.add by_rel id (ref [ rt ]))
      rmembers;
    let d_rels =
      Array.of_list
        (List.sort
           (fun (a, _, _) (b, _, _) -> icmp a b)
           (Hashtbl.fold
              (fun id l acc ->
                let ts = Array.of_list !l in
                (id, Array.length ts.(0), ts) :: acc)
              by_rel []))
    in
    { d_id = -1; d_width = dec.Tdecomp.width; d_dec = dec; d_colors = colors; d_rels }
  end

let build_dinfo ctx s members ~bound =
  dinfo_of ~bound (Array.length s) (rename_members ctx s members)

(* The flat injective encoding of one pointed sphere under the
   decomposition's canonical relabeling.  Every component is length-
   prefixed, so the encoding is uniquely decodable: equal arrays imply
   equal renamed structures, centers included. *)
let cmp_tuple (a : int array) (b : int array) =
  (* same-arity lexicographic; arity differences can't arise within a
     relation but keep the order total anyway *)
  let la = Array.length a and lb = Array.length b in
  if la <> lb then icmp la lb
  else begin
    let i = ref 0 and r = ref 0 in
    while !r = 0 && !i < la do
      r := icmp a.(!i) b.(!i);
      incr i
    done;
    !r
  end

let code_of di cl =
  let k = Array.length di.d_colors in
  let colors =
    if Array.length cl = 0 then di.d_colors
    else begin
      let cp = Array.copy di.d_colors in
      Array.iteri (fun j v -> cp.(v) <- Iso.mix cp.(v) (j + 1)) cl;
      cp
    end
  in
  let pi = Tdecomp.canonical_labels di.d_dec ~colors ~root:cl.(0) in
  let total =
    Array.fold_left
      (fun acc (_, ar, ts) -> acc + 3 + (ar * Array.length ts))
      (2 + Array.length cl) di.d_rels
  in
  let out = Array.make total 0 in
  let p = ref 0 in
  let push x =
    out.(!p) <- x;
    incr p
  in
  push k;
  push (Array.length cl);
  Array.iter (fun v -> push pi.(v)) cl;
  Array.iter
    (fun (id, ar, ts) ->
      push id;
      push (Array.length ts);
      push ar;
      let mapped = Array.map (Array.map (fun v -> pi.(v))) ts in
      Array.sort cmp_tuple mapped;
      Array.iter (fun t -> Array.iter push t) mapped)
    di.d_rels;
  out

(* Sorted union of the (cached) element spheres of [c]. *)
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
  let nt = Array.length tups in
  (* Phase C' (bounded path): probe each distinct sphere's decomposition
     once (parallel over fresh spheres when the cache is on), then derive
     one canonical code per tuple (parallel) and group equal codes
     (sequential).  grp.(i) is the slot whose materialization slot i
     inherits; leaders have grp.(i) = i. *)
  let grp = Array.init nt (fun i -> i) in
  (match ctx.bound with
   | None -> ()
   | Some bound ->
       Obs.span t_codes @@ fun () ->
       if ctx.use_cache then begin
         let dfresh = ref [] in
         Array.iter
           (fun s ->
             if Hashtbl.mem ctx.decomps s then Obs.incr c_bw_decomp_hits
             else begin
               Hashtbl.add ctx.decomps s (ref None);
               dfresh := s :: !dfresh
             end)
           sets;
         let dfresh = Array.of_list (List.rev !dfresh) in
         (* Rename each fresh sphere and dedup on the injective renamed
            key: equal-key spheres are the same structure up to the
            renaming, so one decomposition probe serves them all.  Only
            distinct shapes reach the (parallel) probe. *)
         let nf = Array.length dfresh in
         let rens =
           Array.map (fun s -> rename_members ctx s (members_of s)) dfresh
         in
         let ktbl = Ktbl.create (max 16 nf) in
         let uid = Array.make nf 0 in
         let uniq = ref [] and nu = ref 0 in
         Array.iteri
           (fun i s ->
             let key = rep_key (Array.length s) rens.(i) in
             match Ktbl.find_opt ktbl key with
             | Some u ->
                 uid.(i) <- u;
                 Obs.incr c_bw_decomp_hits
             | None ->
                 Ktbl.add ktbl key !nu;
                 uid.(i) <- !nu;
                 uniq := i :: !uniq;
                 incr nu)
           dfresh;
         let uniq = Array.of_list (List.rev !uniq) in
         let udinfos =
           Wm_par.Pool.parallel_map
             (fun i -> dinfo_of ~bound (Array.length dfresh.(i)) rens.(i))
             uniq
         in
         Array.iter
           (fun di ->
             di.d_id <- ctx.next_did;
             ctx.next_did <- ctx.next_did + 1)
           udinfos;
         Array.iteri
           (fun i s -> Hashtbl.find ctx.decomps s := Some udinfos.(uid.(i)))
           dfresh
       end;
       let codes =
         if not ctx.use_cache then
           Wm_par.Pool.parallel_mapi
             (fun i c ->
               if Array.length c = 0 then None
               else begin
                 let s = sets.(i) in
                 let di = build_dinfo ctx s (members_of s) ~bound in
                 if di.d_width > bound then begin
                   Obs.incr c_bw_fallbacks;
                   None
                 end
                 else
                   Some (code_of di (Array.map (fun x -> idx_sorted s x) c))
               end)
             tups
         else begin
           (* Per-tuple codes are a function of (shared dinfo, center
              labels); dedup on that pair so each distinct pointed shape
              is encoded once, then fan the codes back out. *)
           let slot = Array.make nt (-1) in
           let ctbl = Ktbl.create (max 16 nt) in
           let uwork = ref [] and nu = ref 0 in
           Array.iteri
             (fun i c ->
               if Array.length c > 0 then begin
                 let di =
                   match !(Hashtbl.find ctx.decomps sets.(i)) with
                   | Some di -> di
                   | None -> assert false
                 in
                 if di.d_width > bound then Obs.incr c_bw_fallbacks
                 else begin
                   let s = sets.(i) in
                   let cl = Array.map (fun x -> idx_sorted s x) c in
                   let ckey = Array.make (1 + Array.length cl) di.d_id in
                   Array.iteri (fun j v -> ckey.(j + 1) <- v) cl;
                   match Ktbl.find_opt ctbl ckey with
                   | Some u -> slot.(i) <- u
                   | None ->
                       Ktbl.add ctbl ckey !nu;
                       slot.(i) <- !nu;
                       uwork := (di, cl) :: !uwork;
                       incr nu
                 end
               end)
             tups;
           let uwork = Array.of_list (List.rev !uwork) in
           let ucodes =
             Wm_par.Pool.parallel_map
               (fun (di, cl) -> code_of di cl)
               uwork
           in
           Array.map
             (fun u -> if u < 0 then None else Some ucodes.(u))
             slot
         end
       in
       let tbl : (int array, int) Hashtbl.t = Hashtbl.create (max 16 nt) in
       Array.iteri
         (fun i code ->
           match code with
           | None -> ()
           | Some cd -> (
               match Hashtbl.find_opt tbl cd with
               | Some l ->
                   grp.(i) <- l;
                   Obs.incr c_bw_bypassed
               | None -> Hashtbl.add tbl cd i))
         codes;
       Obs.add c_bw_groups (Hashtbl.length tbl));
  (* Phase D (parallel): per-leader substructure, sub-Gaifman graph,
     cheap key, certificate, refinement prep.  Group members inherit
     their leader's triple — physically the same prep, so every
     downstream isomorphism answer is the one the leader gets. *)
  let leaders = ref [] in
  Array.iteri (fun i l -> if l = i then leaders := i :: !leaders) grp;
  let leaders = Array.of_list (List.rev !leaders) in
  let schema = Structure.schema ctx.cg in
  let lkeyed =
    Obs.span t_prep @@ fun () ->
    Wm_par.Pool.parallel_map
    (fun i ->
      let c = tups.(i) in
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
    leaders
  in
  let slot = Array.make nt None in
  Array.iteri (fun j i -> slot.(i) <- Some lkeyed.(j)) leaders;
  let keyed =
    Array.init nt (fun i ->
        match slot.(grp.(i)) with Some k -> k | None -> assert false)
  in
  (keyed, grp)

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
  let keyed, grp = Obs.span t_spheres @@ fun () -> materialize ctx tups in
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
     leader is well defined regardless of search order.  A slot whose
     materialization group leader (grp, bounded path) sits earlier in
     the same bucket — it shares the triple, so it must — copies that
     slot's answer without scanning: its prep is physically the
     leader's, so the scan could only repeat the leader's matches. *)
  let leader = Array.make n (-1) in
  let classified =
    Obs.span t_classify @@ fun () ->
    Wm_par.Pool.parallel_map
      (fun slots ->
        let reps = ref [] in
        let local : (int, int) Hashtbl.t = Hashtbl.create 16 in
        let leaders =
          Array.map
            (fun i ->
              let l =
                if grp.(i) <> i then
                  match Hashtbl.find_opt local grp.(i) with
                  | Some l -> l
                  | None -> assert false (* same triple => same bucket *)
                else begin
                  let _, _, prep = keyed.(i) in
                  match
                    List.find_opt (fun (_, rep) -> iso_check prep rep) !reps
                  with
                  | Some (l, _) -> l
                  | None ->
                      reps := (i, prep) :: !reps;
                      i
                end
              in
              Hashtbl.replace local i l;
              l)
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

let index ?(sphere_cache = true) ?width_bound g ~rho tuples =
  Obs.span t_index @@ fun () ->
  let bound = resolve_bound width_bound in
  let gf = Gaifman.of_structure g in
  let ctx = make_ctx ~use_cache:sphere_cache ?bound g gf ~rho in
  let tups = Array.of_list (distinct_tuples tuples) in
  let arity = if Array.length tups > 0 then Array.length tups.(0) else 0 in
  run_index ctx tups ~rho ~arity

let index_bounded ?sphere_cache ~width g ~rho tuples =
  if width < 1 then
    invalid_arg "Neighborhood.index_bounded: width must be >= 1";
  index ?sphere_cache ~width_bound:width g ~rho tuples

let index_universe ?sphere_cache ?width_bound g ~rho ~arity =
  Obs.span t_index @@ fun () ->
  let bound = resolve_bound width_bound in
  let gf = Gaifman.of_structure g in
  let ctx = make_ctx ?use_cache:sphere_cache ?bound g gf ~rho in
  run_index ctx (all_tuples_array g ~arity) ~rho ~arity

let affected_elements ~old_gf ~gf ~rho ~dirty =
  (* Both graphs: an inserted edge shortens distances only in the new graph,
     a deleted one only in the old; a tuple's sphere can change iff one of
     its elements is within rho of a dirty element in either. *)
  List.sort_uniq compare
    (Gaifman.reach old_gf ~sources:dirty ~bound:rho
    @ Gaifman.reach gf ~sources:dirty ~bound:rho)

let reindex ?(threshold = 0.5) ?width_bound ~old g ~prev ~dirty =
  Obs.span t_reindex @@ fun () ->
  let bound = resolve_bound width_bound in
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
    index_universe ?width_bound g ~rho ~arity
  end
  else begin
    let ctx = make_ctx ?bound g gf ~rho in
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
    (* Anchors are one per surviving class, pairwise non-isomorphic, so
       the bounded path's code grouping never merges them — the grp
       component is irrelevant here. *)
    let anchor_keyed, _ = materialize ctx (Array.map snd anchors) in
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
    let keyed, grp = materialize ctx at in
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
          let local : (int, int) Hashtbl.t = Hashtbl.create 16 in
          Array.map
            (fun i ->
              let cls =
                if grp.(i) <> i then
                  (* bounded path: the slot's prep is physically its
                     group leader's, so the scan below would repeat the
                     leader's matches — copy its class. *)
                  match Hashtbl.find_opt local grp.(i) with
                  | Some cls -> cls
                  | None -> assert false (* same triple => same bucket *)
                else begin
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
                          cls)
                end
              in
              Hashtbl.replace local i cls;
              cls)
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

(* Per-sphere width survey for `wmark info`: the min-degree heuristic
   width of every element's rho-sphere substructure — the exact graphs
   the bounded path probes — so users can pick a --width-bound that
   covers (most of) the instance. *)
let max_sphere_width g ~rho =
  let gf = Gaifman.of_structure g in
  let ctx = make_ctx g gf ~rho in
  let n = Structure.size g in
  let widths =
    Wm_par.Pool.parallel_map
      (fun x ->
        let s = Gaifman.sphere_array gf ~rho x in
        let members = members_in ctx s in
        let renamed =
          List.map (fun (_, t) -> Array.map (fun y -> idx_sorted s y) t) members
        in
        let gf_s = Gaifman.of_tuples ~n:(Array.length s) renamed in
        Tdecomp.width (Tdecomp.eliminate gf_s))
      (Array.init n (fun x -> x))
  in
  Array.fold_left max 0 widths
