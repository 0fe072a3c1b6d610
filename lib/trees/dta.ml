type t = {
  nstates : int;
  nlabels : int;
  table : int array; (* [(ql+1) * (n+1) + (qr+1)] * nlabels + label *)
  final : bool array;
}

let idx t ql qr label =
  ((((ql + 1) * (t.nstates + 1)) + (qr + 1)) * t.nlabels) + label

let make ~nstates ~nlabels ~final f =
  if nstates < 1 then invalid_arg "Dta.make: need at least one state";
  if nlabels < 1 then invalid_arg "Dta.make: need at least one label";
  let t =
    {
      nstates;
      nlabels;
      table = Array.make ((nstates + 1) * (nstates + 1) * nlabels) 0;
      final = Array.init nstates final;
    }
  in
  for ql = -1 to nstates - 1 do
    for qr = -1 to nstates - 1 do
      for l = 0 to nlabels - 1 do
        let q = f ql qr l in
        if q < 0 || q >= nstates then invalid_arg "Dta.make: state out of range";
        t.table.(idx t ql qr l) <- q
      done
    done
  done;
  t

let make_reachable (type s) ~nlabels ~(final : s -> bool)
    ~(delta : s option -> s option -> int -> s) =
  let ids : (s, int) Hashtbl.t = Hashtbl.create 64 in
  let states : s option array ref = ref (Array.make 8 None) in
  let count = ref 0 in
  let intern st =
    match Hashtbl.find_opt ids st with
    | Some id -> (id, false)
    | None ->
        let id = !count in
        incr count;
        if id >= Array.length !states then begin
          let bigger = Array.make (2 * Array.length !states) None in
          Array.blit !states 0 bigger 0 (Array.length !states);
          states := bigger
        end;
        !states.(id) <- Some st;
        Hashtbl.add ids st id;
        (id, true)
  in
  let get id = Option.get !states.(id) in
  let table : (int * int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let arg i = if i < 0 then None else Some (get i) in
  let fill sl sr l =
    if Hashtbl.mem table (sl, sr, l) then false
    else begin
      let id, fresh = intern (delta (arg sl) (arg sr) l) in
      Hashtbl.replace table (sl, sr, l) id;
      fresh
    end
  in
  (* Worklist closure: when a state is processed it is paired (both ways,
     and with '*') against every state discovered so far; pairs with states
     discovered later are handled when those are processed.  Each ordered
     pair is visited O(1) times. *)
  for l = 0 to nlabels - 1 do
    ignore (fill (-1) (-1) l)
  done;
  let processed = ref 0 in
  while !processed < !count do
    let s = !processed in
    incr processed;
    for l = 0 to nlabels - 1 do
      ignore (fill s (-1) l);
      ignore (fill (-1) s l);
      for t = 0 to !processed - 1 do
        ignore (fill s t l);
        ignore (fill t s l)
      done
    done
  done;
  let n = max 1 !count in
  make ~nstates:n ~nlabels
    ~final:(fun id -> id < !count && final (get id))
    (fun ql qr l ->
      match Hashtbl.find_opt table (ql, qr, l) with Some id -> id | None -> 0)

let nstates t = t.nstates
let nlabels t = t.nlabels
let is_final t q = t.final.(q)

let delta t ql qr label = t.table.(idx t ql qr label)

let run t tree ~label_of =
  let n = Btree.size tree in
  let state = Array.make n (-1) in
  Array.iter
    (fun v ->
      let ql = match Btree.left tree v with Some c -> state.(c) | None -> -1 in
      let qr = match Btree.right tree v with Some c -> state.(c) | None -> -1 in
      state.(v) <- delta t ql qr (label_of v))
    (Btree.postorder tree);
  state

let state_at_root t tree ~label_of = (run t tree ~label_of).(Btree.root tree)

let accepts t tree ~label_of = is_final t (state_at_root t tree ~label_of)

let run_with_hole_states t tree ~label_of ~hole q =
  let n = Btree.size tree in
  let state = Array.make n (-1) in
  let hole_state = match q with Some q -> q | None -> -1 in
  Array.iter
    (fun v ->
      if v = hole then state.(v) <- hole_state
      else if not (Btree.strictly_below tree hole v) then begin
        let ql =
          match Btree.left tree v with Some c -> state.(c) | None -> -1
        in
        let qr =
          match Btree.right tree v with Some c -> state.(c) | None -> -1
        in
        state.(v) <- delta t ql qr (label_of v)
      end)
    (Btree.postorder tree);
  state

let run_with_hole t tree ~label_of ~hole q =
  (run_with_hole_states t tree ~label_of ~hole q).(Btree.root tree)

(* Bottom-up reachability closure over an implicit automaton whose states
   are [0 .. size-1]: [targets ql qr dst] writes into [dst] the targets of
   the transitions from [(ql, qr)] under every label ([-1] = [*]).  When a
   state is processed it is paired both ways with every state processed so
   far, so each ordered pair is expanded about once.  Returns the marks. *)
let closure ~size ~nlabels ~targets =
  let seen = Array.make size false in
  let order = Array.make size 0 and count = ref 0 in
  let buf = Array.make nlabels 0 in
  let expand ql qr =
    targets ql qr buf;
    for l = 0 to nlabels - 1 do
      let q = buf.(l) in
      if not seen.(q) then begin
        seen.(q) <- true;
        order.(!count) <- q;
        incr count
      end
    done
  in
  expand (-1) (-1);
  let processed = ref 0 in
  while !processed < !count do
    let s = order.(!processed) in
    incr processed;
    expand s (-1);
    expand (-1) s;
    for i = 0 to !processed - 1 do
      let t = order.(i) in
      expand s t;
      if t <> s then expand t s
    done
  done;
  seen

(* The automaton on the states marked in [seen], renumbered in ascending
   order; [targets] and [final] speak the old numbering. *)
let restrict ~nlabels ~seen ~final ~targets =
  let remap = Array.make (Array.length seen) (-1) in
  let n = ref 0 in
  Array.iteri
    (fun q s ->
      if s then begin
        remap.(q) <- !n;
        incr n
      end)
    seen;
  let n = !n in
  let back = Array.make n 0 in
  Array.iteri (fun q m -> if m >= 0 then back.(m) <- q) remap;
  let t =
    {
      nstates = n;
      nlabels;
      table = Array.make ((n + 1) * (n + 1) * nlabels) 0;
      final = Array.map final back;
    }
  in
  let lift q = if q < 0 then -1 else back.(q) in
  let buf = Array.make nlabels 0 in
  for ql = -1 to n - 1 do
    for qr = -1 to n - 1 do
      targets (lift ql) (lift qr) buf;
      let r = idx t ql qr 0 in
      for l = 0 to nlabels - 1 do
        t.table.(r + l) <- remap.(buf.(l))
      done
    done
  done;
  t

let product a b ~final =
  if a.nlabels <> b.nlabels then invalid_arg "Dta.product: alphabet mismatch";
  let nb = b.nstates and nl = a.nlabels in
  (* Pair (qa, qb) is state qa * nb + qb of the full product; only the
     reachable pairs are built, numbered in that order. *)
  let targets pl pr dst =
    let split p = if p < 0 then (-1, -1) else (p / nb, p mod nb) in
    let qla, qlb = split pl and qra, qrb = split pr in
    let ra = idx a qla qra 0 and rb = idx b qlb qrb 0 in
    for l = 0 to nl - 1 do
      dst.(l) <- (a.table.(ra + l) * nb) + b.table.(rb + l)
    done
  in
  let size = a.nstates * nb in
  restrict ~nlabels:nl
    ~seen:(closure ~size ~nlabels:nl ~targets)
    ~final:(fun p -> final a.final.(p / nb) b.final.(p mod nb))
    ~targets

let complement t = { t with final = Array.map not t.final }

let accept_all ~nlabels =
  make ~nstates:1 ~nlabels ~final:(fun _ -> true) (fun _ _ _ -> 0)

let accept_none ~nlabels =
  make ~nstates:1 ~nlabels ~final:(fun _ -> false) (fun _ _ _ -> 0)

let own_targets t ql qr dst = Array.blit t.table (idx t ql qr 0) dst 0 t.nlabels

let reachable t =
  closure ~size:t.nstates ~nlabels:t.nlabels ~targets:(own_targets t)

let reduce t =
  let seen = reachable t in
  if Array.for_all Fun.id seen then t
  else
    restrict ~nlabels:t.nlabels ~seen ~final:(Array.get t.final)
      ~targets:(own_targets t)

(* Labels whose columns agree entry for entry are interchangeable in every
   signature [minimize] compares: the first label of each such group
   stands for the group. *)
let distinct_labels t =
  let nl = t.nlabels and rows = (t.nstates + 1) * (t.nstates + 1) in
  let same l l' =
    let rec go i =
      i = rows
      || (t.table.((i * nl) + l) = t.table.((i * nl) + l') && go (i + 1))
    in
    go 0
  in
  let hash l =
    let h = ref 0 in
    for i = 0 to rows - 1 do
      h := ((!h * 65599) + t.table.((i * nl) + l)) land max_int
    done;
    !h
  in
  let groups = Hashtbl.create 16 in
  List.filter
    (fun l ->
      let h = hash l in
      if List.exists (same l) (Hashtbl.find_all groups h) then false
      else begin
        Hashtbl.add groups h l;
        true
      end)
    (List.init nl Fun.id)
  |> Array.of_list

(* Moore partition refinement.  A state's signature is its class together
   with the classes of every transition it takes part in, as left or as
   right child, under every label.  Each round regroups the states by
   signature, numbering the groups in order of their first member; the
   fixpoint is the coarsest congruence separating final from non-final
   states, and its classes are numbered by smallest member.  Signatures
   are never materialized: states are bucketed by a hash over the whole
   signature and compared entry by entry with the first member of each
   group in their bucket. *)
let minimize t =
  let t = reduce t in
  let n = t.nstates and nl = t.nlabels in
  let labels = distinct_labels t in
  let m = Array.length labels in
  let w = n + 1 in
  (* [sub] is the table over the distinct labels only: entry
     [((ql+1) * w + (qr+1)) * m + j] is delta(ql, qr, labels.(j)). *)
  let sub =
    Array.init (w * w * m) (fun i ->
        t.table.(((i / m) * nl) + labels.(i mod m)))
  in
  let cls = Array.init n (fun q -> if t.final.(q) then 1 else 0) in
  let nclasses =
    ref
      ((if Array.exists Fun.id t.final then 1 else 0)
      + if Array.exists not t.final then 1 else 0)
  in
  let stable = ref false in
  while not !stable do
    let c = Array.map (fun q -> cls.(q)) sub in
    (* The left block of q is contiguous; its right block is w strided
       runs of m entries. *)
    let left q = (q + 1) * w * m and right q r = ((r * w) + q + 1) * m in
    let hash q =
      let h = ref cls.(q) in
      let b = left q in
      for i = b to b + (w * m) - 1 do
        h := ((!h * 65599) + c.(i)) land max_int
      done;
      for r = 0 to w - 1 do
        let b = right q r in
        for i = b to b + m - 1 do
          h := ((!h * 65599) + c.(i)) land max_int
        done
      done;
      !h
    in
    let rec same_run bp bq k =
      k = 0 || (c.(bp) = c.(bq) && same_run (bp + 1) (bq + 1) (k - 1))
    in
    let equal p q =
      let rec rights r =
        r = w || (same_run (right p r) (right q r) m && rights (r + 1))
      in
      cls.(p) = cls.(q) && same_run (left p) (left q) (w * m) && rights 0
    in
    let groups = Hashtbl.create n in
    let next = ref 0 in
    let fresh = Array.make n 0 in
    for q = 0 to n - 1 do
      let h = hash q in
      let bucket = Hashtbl.find_all groups h in
      match List.find_opt (fun (p, _) -> equal p q) bucket with
      | Some (_, k) -> fresh.(q) <- k
      | None ->
          fresh.(q) <- !next;
          Hashtbl.add groups h (q, !next);
          incr next
    done;
    (* Each round refines the last, so an equal class count means an equal
       partition: [fresh] is then the fixpoint, in first-member order. *)
    stable := !next = !nclasses;
    nclasses := !next;
    Array.blit fresh 0 cls 0 n
  done;
  let k = !nclasses in
  let rep = Array.make k 0 in
  for q = n - 1 downto 0 do
    rep.(cls.(q)) <- q
  done;
  let lift c = if c < 0 then -1 else rep.(c) in
  let mt =
    {
      nstates = k;
      nlabels = nl;
      table = Array.make ((k + 1) * (k + 1) * nl) 0;
      final = Array.map (Array.get t.final) rep;
    }
  in
  for cl = -1 to k - 1 do
    for cr = -1 to k - 1 do
      let src = idx t (lift cl) (lift cr) 0 and dst = idx mt cl cr 0 in
      for l = 0 to nl - 1 do
        mt.table.(dst + l) <- cls.(t.table.(src + l))
      done
    done
  done;
  mt

let is_empty t =
  let reach = reachable t in
  not (Array.exists2 (fun r f -> r && f) reach t.final)

let equivalent a b =
  is_empty (product a b ~final:(fun x y -> x <> y))

let pp fmt t =
  let finals =
    List.filter (fun q -> t.final.(q)) (List.init t.nstates Fun.id)
  in
  Format.fprintf fmt "dta{%d states, %d labels, final=%s}" t.nstates t.nlabels
    (String.concat "," (List.map string_of_int finals))
