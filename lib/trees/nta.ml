(* Every NTA built here has at most two targets per transition, so the
   transition relation is two tables in {!Dta}'s layout: from (ql, qr)
   under [label] the automaton may go to [lo.(i)] or to [hi.(i)], where
   i = ((ql+1) * (nstates+1) + (qr+1)) * nlabels + label. *)
type t = {
  nstates : int;
  nlabels : int;
  lo : int array;
  hi : int array;
  final : bool array;
}

let nstates t = t.nstates
let nlabels t = t.nlabels

let idx t ql qr l = ((((ql + 1) * (t.nstates + 1)) + (qr + 1)) * t.nlabels) + l

let tabulate d ~nlabels f =
  let n = Dta.nstates d in
  let t =
    {
      nstates = n;
      nlabels;
      lo = Array.make ((n + 1) * (n + 1) * nlabels) 0;
      hi = Array.make ((n + 1) * (n + 1) * nlabels) 0;
      final = Array.init n (Dta.is_final d);
    }
  in
  for ql = -1 to n - 1 do
    for qr = -1 to n - 1 do
      for l = 0 to nlabels - 1 do
        let a, b = f ql qr l in
        let i = idx t ql qr l in
        t.lo.(i) <- a;
        t.hi.(i) <- b
      done
    done
  done;
  t

let of_dta d =
  tabulate d ~nlabels:(Dta.nlabels d) (fun ql qr l ->
      let q = Dta.delta d ql qr l in
      (q, q))

let project d ~alpha ~bit =
  let small =
    Alphabet.make ~base_size:alpha.Alphabet.base_size
      ~bits:(alpha.Alphabet.bits - 1)
  in
  tabulate d ~nlabels:(Alphabet.size small) (fun ql qr l ->
      ( Dta.delta d ql qr (Alphabet.insert_bit small bit false l),
        Dta.delta d ql qr (Alphabet.insert_bit small bit true l) ))

let members marks =
  let acc = ref [] in
  for q = Array.length marks - 1 downto 0 do
    if marks.(q) then acc := q :: !acc
  done;
  Array.of_list !acc

(* Set-of-states simulation; [-1] stands for a missing child. *)
let accepts t tree ~label_of =
  let state = Array.make (Btree.size tree) [||] in
  let side = function None -> [| -1 |] | Some c -> state.(c) in
  Array.iter
    (fun v ->
      let marks = Array.make t.nstates false in
      Array.iter
        (fun ql ->
          Array.iter
            (fun qr ->
              let i = idx t ql qr (label_of v) in
              marks.(t.lo.(i)) <- true;
              marks.(t.hi.(i)) <- true)
            (side (Btree.right tree v)))
        (side (Btree.left tree v));
      state.(v) <- members marks)
    (Btree.postorder tree);
  Array.exists (Array.get t.final) state.(Btree.root tree)

(* Subsets of states as bitsets of [words] ints, so that the subsets for
   every label of one (left, right) pair accumulate side by side; the
   interning table hashes a subset's whole bitset. *)
let bits = Sys.int_size

module Key = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )

  let hash a =
    Array.fold_left (fun h x -> ((h * 65599) + x) land max_int) 0 a
end)

let determinize t =
  let nl = t.nlabels in
  let words = (t.nstates + bits - 1) / bits in
  let ids = Key.create 64 in
  let subsets = ref [||] and count = ref 0 in
  let intern key =
    match Key.find_opt ids key with
    | Some id -> id
    | None ->
        let id = !count in
        incr count;
        Key.add ids key id;
        let s =
          members
            (Array.init t.nstates (fun q ->
                 (key.(q / bits) lsr (q mod bits)) land 1 = 1))
        in
        if id >= Array.length !subsets then begin
          let bigger = Array.make (max 8 (2 * id)) [||] in
          Array.blit !subsets 0 bigger 0 id;
          subsets := bigger
        end;
        !subsets.(id) <- s;
        id
  in
  (* Rows of the result in discovery order: (left id, right id, targets by
     label), ids -1 for [*]. *)
  let rows = ref [] in
  let acc = Array.make (nl * words) 0 in
  let add l q =
    let i = (l * words) + (q / bits) in
    acc.(i) <- acc.(i) lor (1 lsl (q mod bits))
  in
  let expand sl sr =
    let side s = if s < 0 then [| -1 |] else !subsets.(s) in
    Array.iter
      (fun ql ->
        Array.iter
          (fun qr ->
            let base = idx t ql qr 0 in
            for l = 0 to nl - 1 do
              add l t.lo.(base + l);
              add l t.hi.(base + l)
            done)
          (side sr))
      (side sl);
    let row =
      Array.init nl (fun l -> intern (Array.sub acc (l * words) words))
    in
    Array.fill acc 0 (nl * words) 0;
    rows := (sl, sr, row) :: !rows
  in
  (* Seed with the leaf transitions, then close in rounds.  Round r expands,
     in row-major (left, right) order, exactly the pairs not expanded yet
     among the subsets known when it starts — those whose larger id is at
     least the count the previous round started with — and the closure
     ends after a round that finds no new subset.  Subset ids follow this
     discovery order. *)
  expand (-1) (-1);
  let prev = ref 0 and stable = ref false in
  while not !stable do
    let n = !count in
    for sl = -1 to n - 1 do
      for sr = -1 to n - 1 do
        if max sl sr >= !prev then expand sl sr
      done
    done;
    prev := n;
    stable := !count = n
  done;
  let n = !count in
  let table = Array.make ((n + 1) * (n + 1)) [||] in
  List.iter
    (fun (sl, sr, row) -> table.(((sl + 1) * (n + 1)) + sr + 1) <- row)
    !rows;
  Dta.make ~nstates:n ~nlabels:nl
    ~final:(fun id -> Array.exists (Array.get t.final) !subsets.(id))
    (fun ql qr l -> table.(((ql + 1) * (n + 1)) + qr + 1).(l))
