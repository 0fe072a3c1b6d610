(* The min-degree elimination loop as it stood before the priority-set
   rewrite, kept verbatim apart from the dropped heuristic switch: each
   step scans all alive vertices and takes Iset.cardinal of each
   neighbor set.  Ties break to the lowest vertex id, so the
   decomposition is a deterministic function of the graph. *)

module Iset = Set.Make (Int)

type t = { bags : int array array; edges : (int * int) list }

(* The bag of elimination step s attaches to the step of the
   earliest-eliminated remaining member of its bag; last bags of
   components attach to the final bag, so the bag graph is always one
   tree even on disconnected inputs. *)
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

let eliminate gf =
  let n = Gaifman.size gf in
  let adj =
    Array.init n (fun v ->
        let s = ref Iset.empty in
        Gaifman.iter_neighbors gf v (fun w -> s := Iset.add w !s);
        !s)
  in
  let alive = Array.make n true in
  let step_of = Array.make n (-1) in
  let bags = Array.make n [||] in
  for step = 0 to n - 1 do
    (* minimum-key alive vertex; strict [<] keeps the lowest id on ties *)
    let best = ref (-1) and best_key = ref max_int in
    for v = 0 to n - 1 do
      if alive.(v) then begin
        let key = Iset.cardinal adj.(v) in
        if !best < 0 || key < !best_key then begin
          best := v;
          best_key := key
        end
      end
    done;
    let v = !best in
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
  { bags; edges = glue_edges n bags step_of }
