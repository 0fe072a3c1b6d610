module Obs = Wm_obs.Obs

(* Automaton transitions taken over the document by the passes below,
   added once per pass. *)
let c_delta_calls = Obs.counter "trees.delta_calls"

type t = { auto : Dta.t; alpha : Alphabet.t; k : int; s : int }

let make auto ~alpha ~k ~s =
  if k < 0 || s < 1 then invalid_arg "Tree_query.make: bad arities";
  if alpha.Alphabet.bits < k + s then
    invalid_arg "Tree_query.make: alphabet has too few pebble bits";
  if Dta.nlabels auto <> Alphabet.size alpha then
    invalid_arg "Tree_query.make: automaton/alphabet mismatch";
  { auto; alpha; k; s }

let of_compiled (c : Mso_compile.t) ~params ~results =
  let order = params @ results in
  let declared = List.map fst c.free_bits in
  if List.sort compare order <> List.sort compare declared then
    invalid_arg "Tree_query.of_compiled: params+results <> free variables";
  (* Bits were assigned in the order [free] was given to [compile]; require
     that order to be params then results so bit layout matches. *)
  if order <> declared then
    invalid_arg
      "Tree_query.of_compiled: compile with ~free:(params @ results)";
  make c.auto ~alpha:c.alpha ~k:(List.length params) ~s:(List.length results)

let k t = t.k
let s t = t.s
let automaton t = t.auto
let alpha t = t.alpha

let pebbles t a b =
  List.mapi (fun i node -> (i, node)) (Array.to_list a)
  @ List.mapi (fun i node -> (t.k + i, node)) (Array.to_list b)

let member t tree a b =
  assert (Tuple.arity a = t.k && Tuple.arity b = t.s);
  Dta.accepts t.auto tree
    ~label_of:(Alphabet.labeler t.alpha tree (pebbles t a b))

let rec tuples_over n arity =
  if arity = 0 then [ [] ]
  else
    List.concat_map
      (fun rest -> List.init n (fun x -> x :: rest))
      (tuples_over n (arity - 1))

(* For s = 1 the whole result set W_a comes out of two linear passes: a
   bottom-up run with only the parameter pebbles placed, then a top-down
   "context acceptance" table Acc(v, q) = "would the tree be accepted if
   the state at v were q".  Placing the result pebble on b only changes
   b's own letter, so b is in W_a iff Acc(b, delta(ql, qr, letter_b with
   the result bit set)).  O(n * states) per parameter instead of n runs. *)
let result_set_s1 t tree a =
  let n = Btree.size tree in
  let m = Dta.nstates t.auto in
  let label_of =
    Alphabet.labeler t.alpha tree
      (List.mapi (fun i node -> (i, node)) (Array.to_list a))
  in
  let state = Dta.run t.auto tree ~label_of in
  let acc = Array.make_matrix n m false in
  let root = Btree.root tree in
  for q = 0 to m - 1 do
    acc.(root).(q) <- Dta.is_final t.auto q
  done;
  (* Preorder: parents before children. *)
  for v = 0 to n - 1 do
    let ql = match Btree.left tree v with Some c -> state.(c) | None -> -1 in
    let qr = match Btree.right tree v with Some c -> state.(c) | None -> -1 in
    let lv = label_of v in
    (match Btree.left tree v with
    | Some c ->
        for q = 0 to m - 1 do
          acc.(c).(q) <- acc.(v).(Dta.delta t.auto q qr lv)
        done
    | None -> ());
    match Btree.right tree v with
    | Some c ->
        for q = 0 to m - 1 do
          acc.(c).(q) <- acc.(v).(Dta.delta t.auto ql q lv)
        done
    | None -> ()
  done;
  let result = ref Tuple.Set.empty in
  for b = 0 to n - 1 do
    let ql = match Btree.left tree b with Some c -> state.(c) | None -> -1 in
    let qr = match Btree.right tree b with Some c -> state.(c) | None -> -1 in
    let letter = Alphabet.with_bit t.alpha (label_of b) t.k true in
    if acc.(b).(Dta.delta t.auto ql qr letter) then
      result := Tuple.Set.add (Tuple.singleton b) !result
  done;
  (* the run, m per non-root node top-down, one per candidate *)
  Obs.add c_delta_calls (n + (m * (n - 1)) + n);
  !result

let result_set t tree a =
  assert (Tuple.arity a = t.k);
  if t.s = 1 then result_set_s1 t tree a
  else
    let n = Btree.size tree in
    List.fold_left
      (fun acc b ->
        let b = Tuple.of_list b in
        if member t tree a b then Tuple.Set.add b acc else acc)
      Tuple.Set.empty (tuples_over n t.s)

let all_params t tree =
  List.map Tuple.of_list (tuples_over (Btree.size tree) t.k)

(* For k = s = 1 the active set W = U_a W_a comes out of two passes,
   O(n * m^2) in all, instead of one O(n * m) pass per parameter.
   Bottom-up, each node v gets q0(v), the state it reaches with no pebble
   in its subtree, and P(v), the states it can reach with the parameter
   pebble somewhere in its subtree.  Top-down, each node gets two
   acceptance contexts: acc0(v, q) = "accepted if v is in state q and
   neither pebble lies outside subtree(v)", and accp(v, q), the same but
   with the parameter pebble somewhere outside subtree(v).  Then b is in
   W iff the result pebble on b is accepted with the parameter on b
   itself, in its left subtree, in its right subtree, or outside its
   subtree. *)
let active_11 t tree =
  let n = Btree.size tree and m = Dta.nstates t.auto in
  let calls = ref 0 in
  let delta ql qr letter =
    incr calls;
    Dta.delta t.auto ql qr letter
  in
  let letter v mask = Alphabet.encode t.alpha ~base:(Btree.label tree v) ~mask in
  let param = 1 and result = 2 (* pebble bits 0 and k = 1 *) in
  let child f v = match f tree v with Some c -> c | None -> -1 in
  let q0 = Array.make n (-1) in
  let below = Array.make (n * m) false in
  (* [exists_below c f]: some state p in P(c) satisfies [f p] *)
  let exists_below c f =
    c >= 0
    &&
    let rec go p = p < m && ((below.((c * m) + p) && f p) || go (p + 1)) in
    go 0
  in
  let st c = if c < 0 then -1 else q0.(c) in
  Array.iter
    (fun v ->
      let l = child Btree.left v and r = child Btree.right v in
      let ql = st l and qr = st r and lv = letter v 0 in
      q0.(v) <- delta ql qr lv;
      let add q = below.((v * m) + q) <- true in
      add (delta ql qr (letter v param));
      if l >= 0 then
        for p = 0 to m - 1 do
          if below.((l * m) + p) then add (delta p qr lv)
        done;
      if r >= 0 then
        for p = 0 to m - 1 do
          if below.((r * m) + p) then add (delta ql p lv)
        done)
    (Btree.postorder tree);
  let acc0 = Array.make (n * m) false and accp = Array.make (n * m) false in
  let root = Btree.root tree in
  for q = 0 to m - 1 do
    acc0.((root * m) + q) <- Dta.is_final t.auto q
  done;
  let accepts0 v q = acc0.((v * m) + q) in
  (* Preorder ids: parents before children. *)
  for v = 0 to n - 1 do
    let l = child Btree.left v and r = child Btree.right v in
    let lv = letter v 0 and lva = letter v param in
    (* [into c sib state_with]: contexts of child [c], whose sibling is
       [sib]; [state_with q s lt] is v's state with c in q, the sibling in
       s, under letter lt *)
    let into c sib state_with =
      if c >= 0 then
        for q = 0 to m - 1 do
          let s = state_with q (st sib) lv in
          acc0.((c * m) + q) <- accepts0 v s;
          accp.((c * m) + q) <-
            accp.((v * m) + s)
            || accepts0 v (state_with q (st sib) lva)
            || exists_below sib (fun p -> accepts0 v (state_with q p lv))
        done
    in
    into l r (fun q s lt -> delta q s lt);
    into r l (fun q s lt -> delta s q lt)
  done;
  let w = ref Tuple.Set.empty in
  for b = n - 1 downto 0 do
    let l = child Btree.left b and r = child Btree.right b in
    let ql = st l and qr = st r in
    let lb = letter b result in
    if
      accepts0 b (delta ql qr (letter b (param lor result)))
      || exists_below l (fun p -> accepts0 b (delta p qr lb))
      || exists_below r (fun p -> accepts0 b (delta ql p lb))
      || accp.((b * m) + delta ql qr lb)
    then w := Tuple.Set.add (Tuple.singleton b) !w
  done;
  Obs.add c_delta_calls !calls;
  !w

let active t tree =
  if t.k = 1 && t.s = 1 then active_11 t tree
  else
    List.fold_left
      (fun acc a -> Tuple.Set.union acc (result_set t tree a))
      Tuple.Set.empty (all_params t tree)

let f t tree ~weights a =
  Tuple.Set.fold
    (fun b acc -> acc + Weighted.get weights b)
    (result_set t tree a) 0

let answer t tree ~weights a =
  Tuple.Set.fold
    (fun b acc -> (b, Weighted.get weights b) :: acc)
    (result_set t tree a) []
  |> List.rev
