module Iset = Set.Make (Int)
module Obs = Wm_obs.Obs

type t = { bags : int list array; edges : (int * int) list }

let t_eliminate = Obs.timer "tw.eliminate"
let c_key_updates = Obs.counter "tw.key_updates"

let width t =
  Array.fold_left (fun acc bag -> max acc (List.length bag - 1)) 0 t.bags

let validate g t =
  let n = Structure.size g in
  let nbags = Array.length t.bags in
  let in_bag = Array.make n [] in
  (try
     Array.iteri
       (fun b bag -> List.iter (fun v -> in_bag.(v) <- b :: in_bag.(v)) bag)
       t.bags
   with Invalid_argument _ ->
     invalid_arg "Treewidth.validate: bag element outside the universe");
  (* 1. Every element occurs. *)
  let missing =
    Structure.fold_universe
      (fun v acc -> acc || in_bag.(v) = [])
      g false
  in
  if missing then Error "element in no bag"
  else begin
    (* The bag tree must be a tree (or forest matching bag count). *)
    let ok_edges =
      List.for_all (fun (a, b) -> a >= 0 && a < nbags && b >= 0 && b < nbags) t.edges
    in
    if not ok_edges then Error "bag edge out of range"
    else begin
      let adj = Array.make nbags [] in
      List.iter
        (fun (a, b) ->
          adj.(a) <- b :: adj.(a);
          adj.(b) <- a :: adj.(b))
        t.edges;
      (* acyclicity: |edges| = nbags - #components *)
      let seen = Array.make nbags false in
      let comps = ref 0 in
      for b = 0 to nbags - 1 do
        if not seen.(b) then begin
          incr comps;
          let q = Queue.create () in
          Queue.add b q;
          seen.(b) <- true;
          while not (Queue.is_empty q) do
            let x = Queue.pop q in
            List.iter
              (fun y ->
                if not seen.(y) then begin
                  seen.(y) <- true;
                  Queue.add y q
                end)
              adj.(x)
          done
        end
      done;
      if List.length t.edges <> nbags - !comps then Error "bag graph has a cycle"
      else begin
        (* 2. Every Gaifman edge inside some bag. *)
        let gf = Gaifman.of_structure g in
        let covered u v =
          List.exists (fun b -> List.mem v t.bags.(b)) in_bag.(u)
        in
        let bad_edge =
          Structure.fold_universe
            (fun u acc ->
              acc
              || List.exists
                   (fun v -> not (covered u v))
                   (Gaifman.neighbors gf u))
            g false
        in
        if bad_edge then Error "edge covered by no bag"
        else begin
          (* 3. Occurrence connectivity per element. *)
          let connected v =
            let bags_v = Iset.of_list in_bag.(v) in
            match in_bag.(v) with
            | [] -> true
            | b0 :: _ ->
                let seen = ref (Iset.singleton b0) in
                let q = Queue.create () in
                Queue.add b0 q;
                while not (Queue.is_empty q) do
                  let x = Queue.pop q in
                  List.iter
                    (fun y ->
                      if Iset.mem y bags_v && not (Iset.mem y !seen) then begin
                        seen := Iset.add y !seen;
                        Queue.add y q
                      end)
                    adj.(x)
                done;
                Iset.equal !seen bags_v
          in
          if Structure.fold_universe (fun v acc -> acc && connected v) g true
          then Ok ()
          else Error "occurrence not connected"
        end
      end
    end
  end

(* Min-degree elimination.  The alive vertices wait in a priority set
   keyed on (degree, id), packed into one int as degree * n + id, so its
   minimum is the lowest-id vertex of least degree.  Eliminating v turns
   its neighborhood into a clique and drops v: only the neighbors'
   degrees change, so only they get new keys.  The bag of step s is v's
   elimination clique; it attaches to the bag of its earliest-eliminated
   other member, and a component's last bag (a singleton) attaches to
   the final bag, so the bag graph is one tree even on disconnected
   inputs. *)
let eliminate gf =
  let n = Gaifman.size gf in
  let adj =
    Array.init n (fun v ->
        let s = ref Iset.empty in
        Gaifman.iter_neighbors gf v (fun w -> s := Iset.add w !s);
        !s)
  in
  let deg = Array.map Iset.cardinal adj in
  let key v = (deg.(v) * n) + v in
  let queue = ref Iset.empty in
  for v = 0 to n - 1 do
    queue := Iset.add (key v) !queue
  done;
  let order = Array.make n 0 and step_of = Array.make n 0 in
  let bags = Array.make n [] in
  for step = 0 to n - 1 do
    let k = Iset.min_elt !queue in
    queue := Iset.remove k !queue;
    let v = k mod n in
    let nv = adj.(v) in
    order.(step) <- v;
    step_of.(v) <- step;
    bags.(step) <- Iset.elements (Iset.add v nv);
    Iset.iter
      (fun a ->
        queue := Iset.remove (key a) !queue;
        adj.(a) <- Iset.remove v (Iset.remove a (Iset.union adj.(a) nv));
        deg.(a) <- Iset.cardinal adj.(a);
        queue := Iset.add (key a) !queue)
      nv;
    Obs.add c_key_updates deg.(v)
  done;
  let edges = ref [] in
  for s = 0 to n - 1 do
    match bags.(s) with
    | [ _ ] -> if s < n - 1 then edges := (s, n - 1) :: !edges
    | bag ->
        let next =
          List.fold_left
            (fun m u -> if u = order.(s) then m else min m step_of.(u))
            max_int bag
        in
        edges := (s, next) :: !edges
  done;
  { bags; edges = !edges }

let by_min_degree g =
  Obs.time t_eliminate (fun () -> eliminate (Gaifman.of_structure g))

let heuristic_width g = width (by_min_degree g)
