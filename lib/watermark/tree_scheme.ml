open Wm_trees

type options = { block_size : int option; pairs_per_block : int }

let default_options = { block_size = None; pairs_per_block = 1 }

type report = {
  states : int;
  tree_size : int;
  active : int;
  predicted_pairs : int;
  blocks_formed : int;
  blocks_kept : int;
  blocks_paired : int;
  capacity : int;
  certified_distortion : int;
}

type block = { broot : int; hole : int option; members : int list }

type t = {
  tree : Btree.t;
  query : Tree_query.t;
  qs : Query_system.t;
  selected : Pairing.pair list;
  paired_blocks : block list;
  rep : report;
}

module Obs = Wm_obs.Obs

let c_delta_calls = Obs.counter "trees.delta_calls"

(* Block construction (DESIGN.md 5.3), linear in the tree for a fixed
   automaton.  Node ids are preorder, so ancestorship is an O(1) interval
   test; the states a region reaches are read off one pebble-free run
   [q0], and moving the result pebble onto a member only changes the
   states on the path from it up to the block root. *)
let prepare ?(options = default_options) tree query =
  if Tree_query.k query <> 1 || Tree_query.s query <> 1 then
    Error "tree scheme requires one parameter and one result pebble"
  else if Option.fold ~none:false ~some:(fun b -> b < 2) options.block_size
  then Error "block size must be at least 2"
  else begin
    let auto = Tree_query.automaton query in
    let alpha = Tree_query.alpha query in
    let m = Dta.nstates auto in
    let qs = Query_system.of_tree query tree in
    let active = Query_system.active_set qs in
    let n = Btree.size tree in
    let is_active = Array.make n false in
    Tuple.Set.iter (fun b -> is_active.(b.(0)) <- true) active;
    let nactive = Tuple.Set.cardinal active in
    if nactive = 0 then Error "query has no active weighted elements"
    else begin
      let threshold =
        match options.block_size with Some b -> b | None -> 2 * m
      in
      let child f v = match f tree v with Some c -> c | None -> -1 in
      (* Phase 1: minimal blocks of >= threshold ungrouped active nodes.
         The ungrouped active nodes seen so far wait on a stack in
         postorder; those of subtree(v) are its top cnt(v) entries. *)
      let cnt = Array.make n 0 in
      let waiting = Array.make n 0 and top = ref 0 in
      let blocks = ref [] in
      Array.iter
        (fun v ->
          if is_active.(v) then begin
            waiting.(!top) <- v;
            incr top
          end;
          let count c = if c < 0 then 0 else cnt.(c) in
          let c =
            count (child Btree.left v) + count (child Btree.right v)
            + if is_active.(v) then 1 else 0
          in
          if c >= threshold then begin
            let members = List.init c (fun i -> waiting.(!top - 1 - i)) in
            top := !top - c;
            blocks := (v, members) :: !blocks;
            cnt.(v) <- 0
          end
          else cnt.(v) <- c)
        (Btree.postorder tree);
      let blocks = Array.of_list (List.rev !blocks) in
      let blocks_formed = Array.length blocks in
      (* Phase 2: the forest over block roots, by a preorder walk keeping
         the chain of open block roots on a stack; keep blocks with <= 1
         child. *)
      let block_at = Array.make n (-1) in
      Array.iteri (fun i (r, _) -> block_at.(r) <- i) blocks;
      let nchildren = Array.make blocks_formed 0 in
      let only_child = Array.make blocks_formed (-1) in
      let open_roots = Array.make blocks_formed 0 and depth = ref 0 in
      for v = 0 to n - 1 do
        let i = block_at.(v) in
        if i >= 0 then begin
          let open_root () = fst blocks.(open_roots.(!depth - 1)) in
          while !depth > 0 && not (Btree.ancestor_or_equal tree (open_root ()) v) do
            decr depth
          done;
          if !depth > 0 then begin
            let p = open_roots.(!depth - 1) in
            nchildren.(p) <- nchildren.(p) + 1;
            only_child.(p) <- v
          end;
          open_roots.(!depth) <- i;
          incr depth
        end
      done;
      let kept =
        Array.to_list blocks
        |> List.mapi (fun i (broot, members) ->
               match nchildren.(i) with
               | 0 -> Some { broot; hole = None; members }
               | 1 -> Some { broot; hole = Some only_child.(i); members }
               | _ -> None)
        |> List.filter_map Fun.id
      in
      let blocks_kept = List.length kept in
      (* Phase 3: behavioral collisions.  [q0] is the pebble-free run.  A
         member's behaviour replays only the path from it up to the block
         root, reading each off-path child's state from [q0] — or, for a
         child on the path down to the hole, from that path's states under
         each entering state, computed once per block. *)
      let calls = ref n in
      let delta ql qr letter =
        incr calls;
        Dta.delta auto ql qr letter
      in
      let plain =
        Array.init n (fun v ->
            Alphabet.encode alpha ~base:(Btree.label tree v) ~mask:0)
      in
      let q0 = Dta.run auto tree ~label_of:(Array.get plain) in
      let base y = if y < 0 then -1 else q0.(y) in
      (* the state at [p] when its child [x] is in state [s] *)
      let step off x p s =
        let l = child Btree.left p and r = child Btree.right p in
        if l = x then delta s (off r) plain.(p) else delta (off l) s plain.(p)
      in
      let rec climb off x s top =
        if x = top then s
        else
          let p = child Btree.parent x in
          climb off p (step off x p s) top
      in
      (* entry i: the state at the i-th ancestor of [x], [x] being in [s] *)
      let path_states x s top =
        let st = Array.make (Btree.depth tree x - Btree.depth tree top + 1) s in
        let x = ref x in
        for i = 1 to Array.length st - 1 do
          let p = child Btree.parent !x in
          st.(i) <- step base !x p st.(i - 1);
          x := p
        done;
        st
      in
      let bit = Tree_query.k query in
      let behaviors b =
        let replay off u =
          let own =
            delta
              (off (child Btree.left u))
              (off (child Btree.right u))
              (Alphabet.with_bit alpha plain.(u) bit true)
          in
          climb off u own b.broot
        in
        match b.hole with
        | None -> fun u -> [ replay base u ]
        | Some h ->
            let offs =
              List.init m (fun q ->
                  let st = path_states h q b.broot in
                  fun y ->
                    if y >= 0 && Btree.ancestor_or_equal tree y h then
                      st.(Btree.depth tree h - Btree.depth tree y)
                    else base y)
            in
            fun u -> List.map (fun off -> replay off u) offs
      in
      let paired =
        List.filter_map
          (fun b ->
            let members =
              (* Defensive: candidates must lie in the region (which, like
                 the paper's V_i, excludes the child block's root). *)
              List.filter
                (fun u ->
                  match b.hole with
                  | Some h -> not (Btree.ancestor_or_equal tree h u)
                  | None -> true)
                b.members
            in
            let behavior = behaviors b in
            let groups = Hashtbl.create 16 in
            List.iter
              (fun u ->
                let beh = behavior u in
                Hashtbl.replace groups beh
                  (u :: Option.value ~default:[] (Hashtbl.find_opt groups beh)))
              members;
            (* Collision groups in order of their smallest member, so the
               pairs chosen are a function of the behaviours alone. *)
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
                  take_pairs (options.pairs_per_block - List.length acc) acc us)
                [] collisions
            in
            if pairs = [] then None else Some (b, pairs))
          kept
      in
      Obs.add c_delta_calls !calls;
      let selected = List.concat_map snd paired in
      if selected = [] then Error "no block yielded a behavioral pair"
      else
        let rep =
          {
            states = m;
            tree_size = n;
            active = nactive;
            predicted_pairs = nactive / (4 * m);
            blocks_formed;
            blocks_kept;
            blocks_paired = List.length paired;
            capacity = List.length selected;
            certified_distortion = options.pairs_per_block;
          }
        in
        Ok
          {
            tree;
            query;
            qs;
            selected;
            paired_blocks = List.map fst paired;
            rep;
          }
    end
  end

let report t = t.rep
let capacity t = List.length t.selected
let pairs t = t.selected

let regions t = List.map (fun b -> (b.broot, b.hole)) t.paired_blocks

let query_system t = t.qs

let mark t message w =
  Weighted.apply_marks w (Pairing.orientation_marks t.selected message)

let detect t ~original ~server ~length =
  if length > capacity t then
    invalid_arg "Tree_scheme.detect: length exceeds capacity";
  Detector.decode_server t.qs t.selected ~original ~server ~length

let detect_weights t ~original ~suspect ~length =
  if length > capacity t then
    invalid_arg "Tree_scheme.detect: length exceeds capacity";
  Detector.decode_weights t.selected ~original ~suspect ~length
