(* Flat columnar relations (DESIGN.md 5.12).

   The canonical storage is one contiguous int array of [nrows] rows in
   ascending tuple order ([data], row-major, [arity] cells per row):
   membership is binary search, iteration walks a cache-resident array
   instead of a balanced tree of boxed tuples, and bulk construction
   ([of_list], [filter], [union], [rename]) builds the array directly.

   The functional update API is kept by a small overlay: [adds] holds
   live tuples absent from [data], [dels] the data rows removed.  Both
   stay bounded — any update pushing the overlay past max(64, nrows/4)
   folds it into a fresh flat array — so single edits are cheap and a
   long add-chain (the Textio load path, the attack generators) costs
   amortized O(arity) per tuple in array copies plus small-set inserts.

   Every observable behavior (ascending iteration order, error
   messages, [equal]) is bit-identical to the frozen pre-flat
   implementation [Relation_ref] (test/oracles); test/test_flatcore.ml
   enforces this on random op sequences. *)

type t = {
  arity : int;
  nrows : int;          (* rows in [data], including deleted ones *)
  data : int array;     (* nrows * arity, row-major, ascending, distinct *)
  adds : Tuple.Set.t;   (* live tuples not among the data rows *)
  nadds : int;
  dels : Tuple.Set.t;   (* data rows that have been removed *)
  ndels : int;
}

let empty arity =
  if arity < 1 then invalid_arg "Relation.empty: arity < 1";
  {
    arity;
    nrows = 0;
    data = [||];
    adds = Tuple.Set.empty;
    nadds = 0;
    dels = Tuple.Set.empty;
    ndels = 0;
  }

let arity r = r.arity
let cardinal r = r.nrows - r.ndels + r.nadds
let is_empty r = cardinal r = 0

(* --- row primitives ------------------------------------------------- *)

(* Int comparison, kept monomorphic: the generic [compare] costs a C
   call per cell, which dominates binary search and sorting here. *)
let icmp (x : int) y = if x < y then -1 else if x > y then 1 else 0

(* data row [i] vs tuple [t], lexicographic (equal arities). *)
let cmp_row r i (t : Tuple.t) =
  let base = i * r.arity in
  let rec go j =
    if j = r.arity then 0
    else
      let c = icmp r.data.(base + j) t.(j) in
      if c <> 0 then c else go (j + 1)
  in
  go 0

(* Index of [t] among the data rows, -1 if absent. *)
let find_row r t =
  let lo = ref 0 and hi = ref (r.nrows - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = cmp_row r mid t in
    if c = 0 then found := mid else if c < 0 then lo := mid + 1 else hi := mid - 1
  done;
  !found

(* rows [i] and [j] of one flat buffer *)
let cmp_rows arity (buf : int array) i j =
  let bi = i * arity and bj = j * arity in
  let rec go p =
    if p = arity then 0
    else
      let c = icmp buf.(bi + p) buf.(bj + p) in
      if c <> 0 then c else go (p + 1)
  in
  go 0

let rows_equal arity (buf : int array) bi (out : int array) bo =
  let rec go p = p = arity || (buf.(bi + p) = out.(bo + p) && go (p + 1)) in
  go 0

(* Sort [k] rows of [buf] and drop duplicates; returns (rows, data).
   [buf] must be private to the caller (it is returned directly on the
   fast path).  Bulk sources are usually already ascending — [to_list]
   of a relation, a file saved by Textio — so sortedness is checked in
   one O(k) sweep first and the heapsort skipped when it holds. *)
let sort_dedup_rows arity buf k =
  let sorted = ref true in
  let i = ref 1 in
  while !sorted && !i < k do
    if cmp_rows arity buf (!i - 1) !i > 0 then sorted := false;
    incr i
  done;
  if !sorted then begin
    let dups = ref 0 in
    for i = 1 to k - 1 do
      if rows_equal arity buf (i * arity) buf ((i - 1) * arity) then incr dups
    done;
    if !dups = 0 then (k, buf)
    else begin
      let out = Array.make ((k - !dups) * arity) 0 in
      let w = ref 0 in
      for i = 0 to k - 1 do
        if i = 0 || not (rows_equal arity buf (i * arity) buf ((i - 1) * arity))
        then begin
          Array.blit buf (i * arity) out (!w * arity) arity;
          incr w
        end
      done;
      (!w, out)
    end
  end
  else begin
    let idx = Array.init k (fun i -> i) in
    Array.sort (fun i j -> cmp_rows arity buf i j) idx;
    let out = Array.make (k * arity) 0 in
    let w = ref 0 in
    Array.iter
      (fun i ->
        if !w = 0
           || not (rows_equal arity buf (i * arity) out ((!w - 1) * arity))
        then begin
          Array.blit buf (i * arity) out (!w * arity) arity;
          incr w
        end)
      idx;
    (!w, if !w = k then out else Array.sub out 0 (!w * arity))
  end

let of_rows arity (nrows, data) =
  {
    arity;
    nrows;
    data;
    adds = Tuple.Set.empty;
    nadds = 0;
    dels = Tuple.Set.empty;
    ndels = 0;
  }

(* --- merged iteration ------------------------------------------------

   Live rows in ascending tuple order: the sorted data rows (minus
   [dels]) merged with the sorted [adds].  [f] receives (buffer,
   offset); for a flat value this is the zero-allocation fast path. *)

let iter_flat f r =
  let a = r.arity in
  if r.nadds = 0 && r.ndels = 0 then
    for i = 0 to r.nrows - 1 do
      f r.data (i * a)
    done
  else begin
    (* Deleted row indices come out ascending: dels iterates in tuple
       order and the data rows are sorted the same way. *)
    let dels =
      ref (List.rev (Tuple.Set.fold (fun t acc -> find_row r t :: acc) r.dels []))
    in
    let adds = ref (Tuple.Set.elements r.adds) in
    let i = ref 0 in
    while !i < r.nrows || !adds <> [] do
      match !dels with
      | d :: rest when d = !i ->
          dels := rest;
          incr i
      | _ -> (
          if !i >= r.nrows then (
            match !adds with
            | t :: rest ->
                f t 0;
                adds := rest
            | [] -> ())
          else
            match !adds with
            | t :: rest when cmp_row r !i t > 0 ->
                f t 0;
                adds := rest
            | _ ->
                f r.data (!i * a);
                incr i)
    done
  end

(* The tuple at (buf, off) as a Tuple.t, sharing when it already is one. *)
let tup arity (buf : int array) off =
  if off = 0 && Array.length buf = arity then buf else Array.sub buf off arity

let iter f r = iter_flat (fun buf off -> f (tup r.arity buf off)) r

let fold f r acc =
  let acc = ref acc in
  iter (fun t -> acc := f t !acc) r;
  !acc

let to_list r = List.rev (fold (fun t acc -> t :: acc) r [])

let for_all p r =
  let exception Falsified in
  try
    iter (fun t -> if not (p t) then raise Falsified) r;
    true
  with Falsified -> false

let exists p r = not (for_all (fun t -> not (p t)) r)

(* --- compaction ------------------------------------------------------ *)

let flatten r =
  if r.nadds = 0 && r.ndels = 0 then r
  else begin
    let n = cardinal r in
    let out = Array.make (n * r.arity) 0 in
    let w = ref 0 in
    iter_flat
      (fun buf off ->
        Array.blit buf off out !w r.arity;
        w := !w + r.arity)
      r;
    of_rows r.arity (n, out)
  end

let overlay_limit r = max 64 (r.nrows / 4)

let maybe_compact r =
  if r.nadds + r.ndels > overlay_limit r then flatten r else r

(* --- point queries and updates -------------------------------------- *)

let mem t r =
  Tuple.arity t = r.arity
  && (Tuple.Set.mem t r.adds
     || ((not (Tuple.Set.mem t r.dels)) && find_row r t >= 0))

let add t r =
  if Tuple.arity t <> r.arity then invalid_arg "Relation.add: arity mismatch";
  if Tuple.Set.mem t r.adds then r
  else if Tuple.Set.mem t r.dels then
    { r with dels = Tuple.Set.remove t r.dels; ndels = r.ndels - 1 }
  else if find_row r t >= 0 then r
  else
    maybe_compact { r with adds = Tuple.Set.add t r.adds; nadds = r.nadds + 1 }

let remove t r =
  if Tuple.arity t <> r.arity then r
  else if Tuple.Set.mem t r.adds then
    { r with adds = Tuple.Set.remove t r.adds; nadds = r.nadds - 1 }
  else if (not (Tuple.Set.mem t r.dels)) && find_row r t >= 0 then
    maybe_compact { r with dels = Tuple.Set.add t r.dels; ndels = r.ndels + 1 }
  else r

(* --- bulk builders --------------------------------------------------- *)

let of_list ar ts =
  if ar < 1 then invalid_arg "Relation.empty: arity < 1";
  let k = List.length ts in
  let buf = Array.make (k * ar) 0 in
  List.iteri
    (fun i t ->
      if Tuple.arity t <> ar then invalid_arg "Relation.add: arity mismatch";
      Array.blit t 0 buf (i * ar) ar)
    ts;
  of_rows ar (sort_dedup_rows ar buf k)

let of_pairs ps = of_list 2 (List.map (fun (a, b) -> Tuple.pair a b) ps)

(* Filtering preserves order, so the surviving rows are already sorted
   and distinct — two merged walks, no sort. *)
let filter p r =
  let a = r.arity in
  let n = ref 0 in
  iter (fun t -> if p t then incr n) r;
  let out = Array.make (!n * a) 0 in
  let w = ref 0 in
  iter
    (fun t ->
      if p t then begin
        Array.blit t 0 out !w a;
        w := !w + a
      end)
    r;
  of_rows a (!n, out)

let restrict keep r = filter (fun t -> Array.for_all keep t) r

let union a b =
  if a.arity <> b.arity then invalid_arg "Relation.union: arity mismatch";
  let fa = flatten a and fb = flatten b in
  let ar = a.arity in
  let out = Array.make ((fa.nrows + fb.nrows) * ar) 0 in
  let cmp i j =
    let bi = i * ar and bj = j * ar in
    let rec go p =
      if p = ar then 0
      else
        let c = icmp fa.data.(bi + p) fb.data.(bj + p) in
        if c <> 0 then c else go (p + 1)
    in
    go 0
  in
  let w = ref 0 and i = ref 0 and j = ref 0 in
  let emit (src : int array) off =
    Array.blit src off out (!w * ar) ar;
    incr w
  in
  while !i < fa.nrows || !j < fb.nrows do
    if !i >= fa.nrows then begin
      emit fb.data (!j * ar);
      incr j
    end
    else if !j >= fb.nrows then begin
      emit fa.data (!i * ar);
      incr i
    end
    else
      let c = cmp !i !j in
      if c < 0 then begin
        emit fa.data (!i * ar);
        incr i
      end
      else if c > 0 then begin
        emit fb.data (!j * ar);
        incr j
      end
      else begin
        emit fa.data (!i * ar);
        incr i;
        incr j
      end
  done;
  of_rows ar (!w, if !w * ar = Array.length out then out else Array.sub out 0 (!w * ar))

let rename f r =
  let a = r.arity in
  let n = cardinal r in
  let buf = Array.make (n * a) 0 in
  let w = ref 0 in
  iter_flat
    (fun src off ->
      for p = 0 to a - 1 do
        buf.(!w + p) <- f src.(off + p)
      done;
      w := !w + a)
    r;
  of_rows a (sort_dedup_rows a buf n)

let equal a b =
  a.arity = b.arity
  && cardinal a = cardinal b
  &&
  let fa = flatten a and fb = flatten b in
  fa.data = fb.data

let max_elt r =
  let best = ref (-1) in
  iter_flat
    (fun buf off ->
      for p = 0 to r.arity - 1 do
        if buf.(off + p) > !best then best := buf.(off + p)
      done)
    r;
  !best

let pp fmt r =
  Format.fprintf fmt "{%s}"
    (String.concat "; " (List.map Tuple.to_string (to_list r)))
