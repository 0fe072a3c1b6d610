(* The reference Theorem 5 block construction: the straightforward
   phases 1-3 of Tree_scheme.prepare, with the active set as the union of
   per-parameter result sets, regions filtered from the whole postorder,
   behaviours replayed over the whole region and the block forest found
   by a scan over all block roots.  Quadratic in the document.  Test-only
   — the oracle the linear construction (DESIGN.md 5.3) is checked
   against. *)

open Wm_trees
module Tree_scheme = Wm_watermark.Tree_scheme
module Pairing = Wm_watermark.Pairing

type block = { broot : int; hole : int option; members : int list }

let active query tree =
  List.fold_left
    (fun acc a -> Tuple.Set.union acc (Tree_query.result_set query tree a))
    Tuple.Set.empty
    (Tree_query.all_params query tree)

(* Postorder of the nodes of subtree(root) excluding everything strictly
   below [hole] ([hole] itself included, as the summary point). *)
let region_postorder tree broot hole =
  let keep v =
    Btree.ancestor_or_equal tree broot v
    && match hole with
       | Some h -> not (Btree.strictly_below tree h v)
       | None -> true
  in
  Array.to_list (Btree.postorder tree) |> List.filter keep

let region_state auto alpha tree region broot hole q ~bit b =
  let state = Hashtbl.create (List.length region) in
  let get v = match Hashtbl.find_opt state v with Some s -> s | None -> -1 in
  List.iter
    (fun v ->
      if hole = Some v then Hashtbl.replace state v q
      else begin
        let ql = match Btree.left tree v with Some c -> get c | None -> -1 in
        let qr = match Btree.right tree v with Some c -> get c | None -> -1 in
        let base = Btree.label tree v in
        let mask = if v = b then 1 lsl bit else 0 in
        let letter = Alphabet.encode alpha ~base ~mask in
        Hashtbl.replace state v (Dta.delta auto ql qr letter)
      end)
    region;
  get broot

let behavior auto alpha tree region broot hole ~bit b =
  match hole with
  | None -> [ region_state auto alpha tree region broot hole (-1) ~bit b ]
  | Some _ ->
      List.init (Dta.nstates auto) (fun q ->
          region_state auto alpha tree region broot hole q ~bit b)

(* [prepare] returns what Tree_scheme exposes of a prepared scheme:
   (pairs, regions, report), or the same error message. *)
let prepare ?(options = Tree_scheme.default_options) tree query =
  if Tree_query.k query <> 1 || Tree_query.s query <> 1 then
    Error "tree scheme requires one parameter and one result pebble"
  else begin
    let auto = Tree_query.automaton query in
    let alpha = Tree_query.alpha query in
    let m = Dta.nstates auto in
    let active = active query tree in
    let active_node v = Tuple.Set.mem (Tuple.singleton v) active in
    let nactive = Tuple.Set.cardinal active in
    if nactive = 0 then Error "query has no active weighted elements"
    else begin
      let threshold =
        match options.Tree_scheme.block_size with
        | Some b -> max 2 b
        | None -> 2 * m
      in
      (* Phase 1: minimal blocks of >= threshold ungrouped active nodes. *)
      let n = Btree.size tree in
      let cnt = Array.make n 0 in
      let grouped = Array.make n false in
      let blocks = ref [] in
      Array.iter
        (fun v ->
          let c =
            (match Btree.left tree v with Some c -> cnt.(c) | None -> 0)
            + (match Btree.right tree v with Some c -> cnt.(c) | None -> 0)
            + if active_node v then 1 else 0
          in
          if c >= threshold then begin
            let members =
              List.filter
                (fun u -> active_node u && not grouped.(u))
                (Btree.subtree_nodes tree v)
            in
            List.iter (fun u -> grouped.(u) <- true) members;
            blocks := (v, members) :: !blocks;
            cnt.(v) <- 0
          end
          else cnt.(v) <- c)
        (Btree.postorder tree);
      let blocks = List.rev !blocks in
      let blocks_formed = List.length blocks in
      (* Phase 2: the forest over block roots; keep blocks with <= 1
         child. *)
      let roots = List.map fst blocks in
      let parent_of r =
        List.filter
          (fun r' -> r' <> r && Btree.ancestor_or_equal tree r' r)
          roots
        |> List.fold_left
             (fun best r' ->
               match best with
               | None -> Some r'
               | Some b ->
                   if Btree.ancestor_or_equal tree b r' then Some r' else best)
             None
      in
      let children = Hashtbl.create 16 in
      List.iter
        (fun r ->
          match parent_of r with
          | Some p ->
              Hashtbl.replace children p
                (r :: Option.value ~default:[] (Hashtbl.find_opt children p))
          | None -> ())
        roots;
      let kept =
        List.filter_map
          (fun (r, members) ->
            match Option.value ~default:[] (Hashtbl.find_opt children r) with
            | [] -> Some { broot = r; hole = None; members }
            | [ c ] -> Some { broot = r; hole = Some c; members }
            | _ -> None)
          blocks
      in
      let blocks_kept = List.length kept in
      (* Phase 3: behavioral collisions. *)
      let bit = Tree_query.k query in
      let paired =
        List.filter_map
          (fun b ->
            let region = region_postorder tree b.broot b.hole in
            let members =
              List.filter
                (fun u ->
                  match b.hole with
                  | Some h -> not (Btree.ancestor_or_equal tree h u)
                  | None -> true)
                b.members
            in
            let groups = Hashtbl.create 16 in
            List.iter
              (fun u ->
                let beh =
                  behavior auto alpha tree region b.broot b.hole ~bit u
                in
                Hashtbl.replace groups beh
                  (u :: Option.value ~default:[] (Hashtbl.find_opt groups beh)))
              members;
            let collisions =
              Hashtbl.fold
                (fun _ us acc ->
                  if List.length us >= 2 then List.sort compare us :: acc
                  else acc)
                groups []
              |> List.sort (fun a b -> compare (List.hd a) (List.hd b))
            in
            let rec take_pairs budget acc = function
              | u :: u' :: rest when budget > 0 ->
                  take_pairs (budget - 1)
                    ({ Pairing.fst = Tuple.singleton u; snd = Tuple.singleton u' }
                     :: acc)
                    rest
              | _ -> acc
            in
            let pairs =
              List.fold_left
                (fun acc us ->
                  take_pairs
                    (options.Tree_scheme.pairs_per_block - List.length acc)
                    acc us)
                [] collisions
            in
            if pairs = [] then None else Some (b, pairs))
          kept
      in
      let selected = List.concat_map snd paired in
      if selected = [] then Error "no block yielded a behavioral pair"
      else
        let rep =
          {
            Tree_scheme.states = m;
            tree_size = n;
            active = nactive;
            predicted_pairs = nactive / (4 * m);
            blocks_formed;
            blocks_kept;
            blocks_paired = List.length paired;
            capacity = List.length selected;
            certified_distortion = options.Tree_scheme.pairs_per_block;
          }
        in
        Ok
          ( selected,
            List.map (fun (b, _) -> (b.broot, b.hole)) paired,
            rep )
    end
  end
