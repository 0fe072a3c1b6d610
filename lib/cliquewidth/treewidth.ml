module Iset = Set.Make (Int)

type t = { bags : int list array; edges : (int * int) list }

(* The elimination engine lives in Wm_relational.Tdecomp, next to the
   Gaifman graphs it decomposes; this module keeps the structure-level
   API and the exact validity checker. *)
let of_decomp (d : Tdecomp.t) =
  { bags = Array.map Array.to_list d.Tdecomp.bags; edges = d.Tdecomp.edges }

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

let by_min_degree g =
  of_decomp
    (Tdecomp.eliminate ~heuristic:Tdecomp.Min_degree (Gaifman.of_structure g))

let by_min_fill g =
  of_decomp
    (Tdecomp.eliminate ~heuristic:Tdecomp.Min_fill (Gaifman.of_structure g))

let of_sphere ?(heuristic = Tdecomp.Min_degree) gf =
  of_decomp (Tdecomp.eliminate ~heuristic gf)

let heuristic_width g = width (by_min_degree g)
