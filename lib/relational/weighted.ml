(* Flat weight assignments (DESIGN.md 5.12).

   The explicit entries live in two parallel flat buffers: [keys], one
   contiguous row-major int array of [nk] sorted distinct tuple rows
   (the row index is the interned tuple id), and [vals], a Bigarray of
   the corresponding weights — unboxed, off the OCaml minor heap, so a
   million-element assignment is two cache-friendly blocks instead of a
   balanced tree of boxed (tuple, int) nodes.  [get] is binary search.

   Like [Relation], functional updates go through a bounded overlay
   ([over], a small map of added/overridden entries) that compacts back
   into fresh flat buffers once it passes max(64, nk/4).  There is no
   removal in this API, which keeps the overlay one-sided.

   An explicit entry whose value equals [default] is still an entry: it
   shows up in [bindings]/[support] exactly as the pre-flat map did.

   Semantic bugfix carried by this PR (mirrored in [Weighted_ref] so
   the equivalence suite pins it): [local_distance] now accounts for
   the |default - default'| delta of tuples outside both supports —
   previously two assignments with different defaults but equal
   supports could report distance 0. *)

type t = {
  arity : int;
  default : int;
  nk : int;             (* rows in [keys] / length of [vals] *)
  keys : int array;     (* nk * arity, row-major, ascending, distinct *)
  vals : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  over : int Tuple.Map.t;  (* entries added/overridden since last compact *)
  nover : int;
}

let no_vals = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0

let create ?(default = 0) arity =
  if arity < 1 then invalid_arg "Weighted.create: arity < 1";
  {
    arity;
    default;
    nk = 0;
    keys = [||];
    vals = no_vals;
    over = Tuple.Map.empty;
    nover = 0;
  }

let arity w = w.arity
let default w = w.default

(* Monomorphic int comparison — the generic [compare] costs a C call
   per cell, which dominates the binary search. *)
let icmp (x : int) y = if x < y then -1 else if x > y then 1 else 0

(* key row [i] vs tuple [t], lexicographic (equal arities). *)
let cmp_key w i (t : Tuple.t) =
  let base = i * w.arity in
  let rec go j =
    if j = w.arity then 0
    else
      let c = icmp w.keys.(base + j) t.(j) in
      if c <> 0 then c else go (j + 1)
  in
  go 0

(* Index of [t] among the key rows, -1 if absent. *)
let find_key w t =
  let lo = ref 0 and hi = ref (w.nk - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = cmp_key w mid t in
    if c = 0 then found := mid else if c < 0 then lo := mid + 1 else hi := mid - 1
  done;
  !found

let get w t =
  if Tuple.arity t <> w.arity then w.default
  else if w.nover = 0 then
    if w.arity = 1 then begin
      (* Singleton keys are plain ints.  When they are dense — ascending
         distinct with first 0 and last nk-1, i.e. keys.(i) = i, the
         shape [weigh] builds over a full universe — lookup is O(1);
         otherwise an int binary search with no closure or boxing. *)
      let x = t.(0) in
      let nk = w.nk in
      if nk > 0 && w.keys.(0) = 0 && w.keys.(nk - 1) = nk - 1 then
        if x >= 0 && x < nk then w.vals.{x} else w.default
      else begin
        let lo = ref 0 and hi = ref (nk - 1) and res = ref w.default in
        while !lo <= !hi do
          let mid = (!lo + !hi) lsr 1 in
          let k = Array.unsafe_get w.keys mid in
          if k < x then lo := mid + 1
          else if k > x then hi := mid - 1
          else begin
            res := w.vals.{mid};
            lo := !hi + 1
          end
        done;
        !res
      end
    end
    else
      let i = find_key w t in
      if i < 0 then w.default else w.vals.{i}
  else
    match Tuple.Map.find_opt t w.over with
    | Some v -> v
    | None ->
        let i = find_key w t in
        if i < 0 then w.default else w.vals.{i}

(* Explicit entries in ascending tuple order, as (buffer, offset, value);
   zero per-entry allocation on a compacted value. *)
let iter_bindings_flat f w =
  let a = w.arity in
  if w.nover = 0 then
    for i = 0 to w.nk - 1 do
      f w.keys (i * a) w.vals.{i}
    done
  else begin
    let over = ref (Tuple.Map.bindings w.over) in
    let i = ref 0 in
    while !i < w.nk || !over <> [] do
      match !over with
      | [] ->
          f w.keys (!i * a) w.vals.{!i};
          incr i
      | (t, v) :: rest ->
          if !i >= w.nk then begin
            f t 0 v;
            over := rest
          end
          else
            let c = cmp_key w !i t in
            if c < 0 then begin
              f w.keys (!i * a) w.vals.{!i};
              incr i
            end
            else if c > 0 then begin
              f t 0 v;
              over := rest
            end
            else begin
              (* overridden row: the overlay value wins *)
              f t 0 v;
              over := rest;
              incr i
            end
    done
  end

let count_bindings w =
  let n = ref 0 in
  iter_bindings_flat (fun _ _ _ -> incr n) w;
  !n

let compact w =
  if w.nover = 0 then w
  else begin
    let n = count_bindings w in
    let keys = Array.make (n * w.arity) 0 in
    let vals = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    let i = ref 0 in
    iter_bindings_flat
      (fun buf off v ->
        Array.blit buf off keys (!i * w.arity) w.arity;
        vals.{!i} <- v;
        incr i)
      w;
    { w with nk = n; keys; vals; over = Tuple.Map.empty; nover = 0 }
  end

let overlay_limit w = max 64 (w.nk / 4)

let set w t v =
  if Tuple.arity t <> w.arity then invalid_arg "Weighted.set: arity mismatch";
  let nover = if Tuple.Map.mem t w.over then w.nover else w.nover + 1 in
  let w = { w with over = Tuple.Map.add t v w.over; nover } in
  if w.nover > overlay_limit w then compact w else w

let set_elt w x v = set w (Tuple.singleton x) v
let get_elt w x = get w (Tuple.singleton x)

(* Bulk build: one sort over the pairs instead of a functional insert
   each.  Later occurrences of a key win, like the fold of [set] this
   replaces — ties are broken by list position. *)
let of_list ?(default = 0) arity l =
  let w0 = create ~default arity in
  let arr = Array.of_list l in
  let k = Array.length arr in
  if k = 0 then w0
  else begin
    Array.iter
      (fun (t, _) ->
        if Tuple.arity t <> arity then
          invalid_arg "Weighted.set: arity mismatch")
      arr;
    (* Already-ascending input (bindings of another assignment, a saved
       file) skips the sort; the dedup sweep below handles equal
       adjacent keys either way, later occurrence winning. *)
    let sorted = ref true in
    let i = ref 1 in
    while !sorted && !i < k do
      if Tuple.compare (fst arr.(!i - 1)) (fst arr.(!i)) > 0 then
        sorted := false;
      incr i
    done;
    let idx = Array.init k (fun i -> i) in
    if not !sorted then
      Array.sort
        (fun i j ->
          let ti, _ = arr.(i) and tj, _ = arr.(j) in
          let c = Tuple.compare ti tj in
          if c <> 0 then c else icmp i j)
        idx;
    let keys = Array.make (k * arity) 0 in
    let vtmp = Array.make k 0 in
    let row_equals r (t : Tuple.t) =
      let base = r * arity in
      let rec go p = p = arity || (keys.(base + p) = t.(p) && go (p + 1)) in
      go 0
    in
    let w = ref (-1) in
    Array.iter
      (fun i ->
        let t, v = arr.(i) in
        if !w >= 0 && row_equals !w t then vtmp.(!w) <- v
        else begin
          incr w;
          Array.blit t 0 keys (!w * arity) arity;
          vtmp.(!w) <- v
        end)
      idx;
    let nk = !w + 1 in
    let keys = if nk = k then keys else Array.sub keys 0 (nk * arity) in
    let vals = Bigarray.Array1.create Bigarray.int Bigarray.c_layout nk in
    for i = 0 to nk - 1 do
      vals.{i} <- vtmp.(i)
    done;
    { w0 with nk; keys; vals }
  end

let tup arity (buf : int array) off =
  if off = 0 && Array.length buf = arity then buf else Array.sub buf off arity

let bindings w =
  let acc = ref [] in
  iter_bindings_flat (fun buf off v -> acc := (tup w.arity buf off, v) :: !acc) w;
  List.rev !acc

let support w = List.map fst (bindings w)

let restrict w ~size =
  of_list ~default:w.default w.arity
    (List.filter
       (fun (t, _) -> Array.for_all (fun x -> x >= 0 && x < size) t)
       (bindings w))

let add_delta w t d = set w t (get w t + d)

(* Bulk mark application: net delta per tuple, then one merged rebuild
   of the flat buffers — a mark list touching the whole support costs
   O(nk + m log m) instead of m overlay inserts with interleaved
   compactions.  Same observable result as folding [add_delta]: every
   marked tuple ends with an explicit entry valued [get w t + net t],
   net-zero marks included. *)
let apply_marks w marks =
  if marks = [] then w
  else begin
    let arr = Array.of_list marks in
    let m = Array.length arr in
    Array.iter
      (fun (t, _) ->
        if Tuple.arity t <> w.arity then
          invalid_arg "Weighted.set: arity mismatch")
      arr;
    (* Net delta per tuple.  Deltas sum, so order within equal keys is
       irrelevant: sort by tuple — skipped when the stream is already
       ascending, the common shape of an orientation-mark list — then
       collapse runs in one sweep. *)
    let sorted = ref true in
    let i = ref 1 in
    while !sorted && !i < m do
      if Tuple.compare (fst arr.(!i - 1)) (fst arr.(!i)) > 0 then
        sorted := false;
      incr i
    done;
    if not !sorted then
      Array.sort (fun (ta, _) (tb, _) -> Tuple.compare ta tb) arr;
    let dts = Array.make m [||] and dds = Array.make m 0 in
    let nd = ref 0 in
    Array.iter
      (fun (t, d) ->
        if !nd > 0 && Tuple.compare dts.(!nd - 1) t = 0 then
          dds.(!nd - 1) <- dds.(!nd - 1) + d
        else begin
          dts.(!nd) <- t;
          dds.(!nd) <- d;
          incr nd
        end)
      arr;
    let nd = !nd in
    let base = compact w in
    let a = base.arity in
    let fresh = ref 0 in
    for j = 0 to nd - 1 do
      if find_key base dts.(j) < 0 then incr fresh
    done;
    let nk = base.nk + !fresh in
    let keys = Array.make (nk * a) 0 in
    let vals = Bigarray.Array1.create Bigarray.int Bigarray.c_layout nk in
    let wi = ref 0 and i = ref 0 and j = ref 0 in
    let put_row src off v =
      Array.blit src off keys (!wi * a) a;
      vals.{!wi} <- v;
      incr wi
    in
    while !i < base.nk || !j < nd do
      if !j >= nd then begin
        put_row base.keys (!i * a) base.vals.{!i};
        incr i
      end
      else if !i >= base.nk then begin
        put_row dts.(!j) 0 (base.default + dds.(!j));
        incr j
      end
      else
        let c = cmp_key base !i dts.(!j) in
        if c < 0 then begin
          put_row base.keys (!i * a) base.vals.{!i};
          incr i
        end
        else if c > 0 then begin
          put_row dts.(!j) 0 (base.default + dds.(!j));
          incr j
        end
        else begin
          put_row dts.(!j) 0 (base.vals.{!i} + dds.(!j));
          incr i;
          incr j
        end
    done;
    { base with nk; keys; vals }
  end

let local_distance a b =
  if a.arity <> b.arity then invalid_arg "Weighted.local_distance: arity";
  (* Off both supports every tuple weighs the respective default, so the
     sup starts at |default - default'| (the PR 8 bugfix), then a merged
     walk over the two sorted supports covers the explicit entries. *)
  let rec go d la lb =
    match (la, lb) with
    | [], [] -> d
    | (_, va) :: la, [] -> go (max d (abs (va - b.default))) la []
    | [], (_, vb) :: lb -> go (max d (abs (a.default - vb))) [] lb
    | (ta, va) :: la', (tb, vb) :: lb' ->
        let c = Tuple.compare ta tb in
        if c = 0 then go (max d (abs (va - vb))) la' lb'
        else if c < 0 then go (max d (abs (va - b.default))) la' lb
        else go (max d (abs (a.default - vb))) la lb'
  in
  go (abs (a.default - b.default)) (bindings a) (bindings b)

let is_local_distortion ~c a b = local_distance a b <= c

let equal a b =
  a.arity = b.arity && local_distance a b = 0 && a.default = b.default

let pp fmt w =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (t, v) -> Format.fprintf fmt "W%a = %d@," Tuple.pp t v)
    (bindings w);
  Format.fprintf fmt "@]"

type structure = { graph : Structure.t; weights : t }

let make graph weights =
  if arity weights <> Schema.weight_arity (Structure.schema graph) then
    invalid_arg "Weighted.make: weight arity differs from schema";
  let n = Structure.size graph in
  iter_bindings_flat
    (fun buf off _ ->
      for p = 0 to weights.arity - 1 do
        let x = buf.(off + p) in
        if x < 0 || x >= n then
          invalid_arg "Weighted.make: weighted tuple outside universe"
      done)
    weights;
  { graph; weights }

(* The E26 hot path: the universe is 0..n-1 so the singleton key rows
   are already sorted — fill both flat buffers directly, no overlay. *)
let weigh f g =
  let n = Structure.size g in
  let keys = Array.init n Fun.id in
  let vals = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    vals.{i} <- f i
  done;
  make g
    { arity = 1; default = 0; nk = n; keys; vals; over = Tuple.Map.empty;
      nover = 0 }
