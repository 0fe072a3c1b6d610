(* Elimination-ordering tree decompositions over CSR Gaifman graphs.

   This is the engine behind Treewidth (lib/cliquewidth), which wraps it
   over whole structures and single spheres for the Theorem 4 tooling.

   The heuristics are the classical elimination orderings: repeatedly
   pick a vertex (minimum degree, or minimum fill-in), make its
   neighborhood a clique, and drop it; the elimination cliques are the
   bags, glued in elimination order.  Always a valid decomposition; the
   width is an upper bound on the true tree-width, exact on chordal
   graphs.  Ties break to the lowest vertex id, so the decomposition is
   a deterministic function of the graph. *)

module Iset = Set.Make (Int)

type t = {
  bags : int array array;
  edges : (int * int) list;
  step_of : int array;
  width : int;
}

type heuristic = Min_degree | Min_fill

let width t = t.width

(* Missing edges among the neighbors of [v] — the number of fill edges
   eliminating [v] would add. *)
let fill_count adj v =
  let nb = adj.(v) in
  let missing = ref 0 in
  Iset.iter
    (fun a ->
      Iset.iter
        (fun b -> if a < b && not (Iset.mem b adj.(a)) then incr missing)
        nb)
    nb;
  !missing

(* Shared tail: the bag of elimination step s attaches to the step of
   the earliest-eliminated remaining member of its bag; last bags of
   components attach to the final bag, so the bag graph is always one
   tree even on disconnected inputs (validated by the cliquewidth
   tests). *)
let glue_edges n bags step_of =
  let edges = ref [] in
  for s = 0 to n - 1 do
    let v = ref (-1) in
    Array.iter (fun u -> if step_of.(u) = s then v := u) bags.(s);
    if Array.length bags.(s) > 1 then begin
      let next = ref max_int in
      Array.iter (fun u -> if u <> !v then next := min !next step_of.(u)) bags.(s);
      edges := (s, !next) :: !edges
    end
    else if s < n - 1 then edges := (s, n - 1) :: !edges
  done;
  !edges

(* Bitmask fast path for graphs that fit one machine word (sphere-sized
   graphs).  Same heuristic keys, same strict-< lowest-id tie-breaks,
   same bags (bit iteration is ascending), so the result is identical to
   the generic Iset path below. *)
let popcount x =
  let c = ref 0 and x = ref x in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr c
  done;
  !c

let eliminate_small ~heuristic adj n =
  let fill_small v =
    (* missing edges among neighbors: for each neighbor a, the higher
       neighbors of v that a misses *)
    let nb = adj.(v) in
    let missing = ref 0 in
    for a = 0 to n - 1 do
      if nb land (1 lsl a) <> 0 then
        missing :=
          !missing
          + popcount (nb land lnot adj.(a) land lnot ((1 lsl (a + 1)) - 1))
    done;
    !missing
  in
  let alive = ref ((1 lsl n) - 1) in
  let step_of = Array.make n (-1) in
  let bags = Array.make n [||] in
  let wid = ref 0 in
  for step = 0 to n - 1 do
    let best = ref (-1) and bk1 = ref max_int and bk2 = ref max_int in
    for v = 0 to n - 1 do
      if !alive land (1 lsl v) <> 0 then begin
        let k1, k2 =
          match heuristic with
          | Min_degree -> (popcount adj.(v), 0)
          | Min_fill -> (fill_small v, popcount adj.(v))
        in
        if !best < 0 || k1 < !bk1 || (k1 = !bk1 && k2 < !bk2) then begin
          best := v;
          bk1 := k1;
          bk2 := k2
        end
      end
    done;
    let v = !best in
    let bag_width = popcount adj.(v) in
    wid := max !wid bag_width;
    step_of.(v) <- step;
    let bagm = adj.(v) lor (1 lsl v) in
    let bag = Array.make (bag_width + 1) 0 in
    let i = ref 0 in
    for u = 0 to n - 1 do
      if bagm land (1 lsl u) <> 0 then begin
        bag.(!i) <- u;
        incr i
      end
    done;
    bags.(step) <- bag;
    let nbv = adj.(v) in
    for a = 0 to n - 1 do
      if nbv land (1 lsl a) <> 0 then
        adj.(a) <- (adj.(a) lor nbv) land lnot ((1 lsl a) lor (1 lsl v))
    done;
    alive := !alive land lnot (1 lsl v)
  done;
  { bags; edges = glue_edges n bags step_of; step_of; width = !wid }

let eliminate ?(heuristic = Min_degree) gf =
  let n = Gaifman.size gf in
  if n <= 62 then begin
    let adj = Array.make n 0 in
    for v = 0 to n - 1 do
      Gaifman.iter_neighbors gf v (fun w -> adj.(v) <- adj.(v) lor (1 lsl w))
    done;
    eliminate_small ~heuristic adj n
  end
  else
  let adj =
    Array.init n (fun v ->
        let s = ref Iset.empty in
        Gaifman.iter_neighbors gf v (fun w -> s := Iset.add w !s);
        !s)
  in
  let alive = Array.make n true in
  let step_of = Array.make n (-1) in
  let bags = Array.make n [||] in
  let wid = ref 0 in
  for step = 0 to n - 1 do
    (* minimum-key alive vertex; strict [<] keeps the lowest id on ties *)
    let best = ref (-1) and best_key = ref (max_int, max_int) in
    for v = 0 to n - 1 do
      if alive.(v) then begin
        let key =
          match heuristic with
          | Min_degree -> (Iset.cardinal adj.(v), 0)
          | Min_fill -> (fill_count adj v, Iset.cardinal adj.(v))
        in
        if !best < 0 || key < !best_key then begin
          best := v;
          best_key := key
        end
      end
    done;
    let v = !best in
    let bag_width = Iset.cardinal adj.(v) in
    (* = |bag| - 1 *)
    wid := max !wid bag_width;
    step_of.(v) <- step;
    bags.(step) <- Array.of_list (Iset.elements (Iset.add v adj.(v)));
    (* make the neighborhood a clique, drop v *)
    Iset.iter
      (fun a ->
        Iset.iter
          (fun b -> if a <> b then adj.(a) <- Iset.add b adj.(a))
          adj.(v);
        adj.(a) <- Iset.remove v adj.(a))
      adj.(v);
    alive.(v) <- false
  done;
  { bags; edges = glue_edges n bags step_of; step_of; width = !wid }
