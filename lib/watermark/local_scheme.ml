type options = {
  seed : int;
  rho : int option;
  epsilon : float;
  selection : [ `Greedy | `Random of int ];
}

let default_options =
  { seed = 0xC0FFEE; rho = None; epsilon = 1.0; selection = `Greedy }

type report = {
  degree : int;
  rho : int;
  ntp : int;
  active : int;
  pairs_available : int;
  pairs_selected : int;
  eta : int;
  budget : int;
  max_split : int;
}

type t = {
  qs : Query_system.t;
  selected : Pairing.pair list;
  rep : report;
  ix : Neighborhood.index;
  options : options;
}

(* The pairing/selection/report tail shared by [prepare] and [update]: a
   deterministic function of (options, query, query system, degree, index),
   so an incremental update that reproduces the same inputs reproduces the
   same scheme. *)
let assemble ~options ~g ~q ~qs ~degree ~rho ~ix =
  let active = Query_system.active qs in
  if active = [] then Error "query has no active weighted elements"
  else begin
    let canonical = Array.to_list ix.Neighborhood.representatives in
    let all_pairs = Pairing.s_partition qs ~canonical in
    let budget = int_of_float (ceil (1.0 /. options.epsilon)) in
    let eta = Locality.eta q ~k:degree ~rho in
    let selected =
      let g0 = Prng.create options.seed in
      match options.selection with
      | `Greedy -> Pairing.select_greedy g0 qs all_pairs ~budget
      | `Random tries ->
          let n = Locality.query_count_bound g q in
          let p =
            1.0
            /. (float_of_int (max 1 eta)
               *. (float_of_int (2 * n) ** options.epsilon))
          in
          let rec attempt i =
            if i = 0 then []
            else
              match Pairing.select_random g0 qs all_pairs ~p ~budget with
              | Some pairs when pairs <> [] -> pairs
              | _ -> attempt (i - 1)
          in
          attempt tries
    in
    if selected = [] then Error "no pair survived eps-good selection"
    else
      let rep =
        {
          degree;
          rho;
          ntp = Neighborhood.ntp ix;
          active = List.length active;
          pairs_available = List.length all_pairs;
          pairs_selected = List.length selected;
          eta;
          budget;
          max_split = Pairing.max_split qs selected;
        }
      in
      Ok { qs; selected; rep; ix; options }
  end

let prepare ?(options = default_options) ?qs ?gf ?ix (ws : Weighted.structure)
    q =
  let g = ws.Weighted.graph in
  if Query.result_arity q <> Weighted.arity ws.Weighted.weights then
    Error "result arity differs from weight arity"
  else if options.epsilon <= 0. || options.epsilon > 1. then
    Error "epsilon must lie in (0, 1]"
  else if Option.fold ~none:false ~some:(fun r -> r < 0) options.rho then
    Error "rho must be nonnegative"
  else begin
    let qs =
      match qs with Some qs -> qs | None -> Query_system.of_relational g q
    in
    let gf = match gf with Some gf -> gf | None -> Gaifman.of_structure g in
    let degree = Gaifman.max_degree gf in
    let rho =
      match options.rho with
      | Some r -> r
      | None -> Locality.best_rank q.Query.phi
    in
    let ix =
      match ix with
      | Some ix when ix.Neighborhood.rho = rho -> ix
      | Some _ | None -> Neighborhood.index g ~rho (Query_system.params qs)
    in
    assemble ~options ~g ~q ~qs ~degree ~rho ~ix
  end

let update ?old_gf t ~old (ws : Weighted.structure) q ~dirty =
  let options = t.options in
  let g = ws.Weighted.graph in
  if Query.result_arity q <> Weighted.arity ws.Weighted.weights then
    Error "result arity differs from weight arity"
  else begin
    let old_g = old.Weighted.graph in
    let rho = t.ix.Neighborhood.rho in
    let old_gf =
      match old_gf with
      | Some gf -> gf
      | None -> Gaifman.of_structure old_g
    in
    let gf = Gaifman.refresh g ~prev:old_gf ~dirty in
    let degree = Gaifman.max_degree gf in
    let affected = Neighborhood.affected_elements ~old_gf ~gf ~rho ~dirty in
    let ix = Neighborhood.reindex ~old:old_g g ~prev:t.ix ~dirty in
    let qs = Query_system.refresh_relational t.qs g q ~affected in
    assemble ~options ~g ~q ~qs ~degree ~rho ~ix
  end

let report t = t.rep
(* O(1): the report already carries the selected-pair count, and a
   serving engine consults the capacity on every mark/detect request. *)
let capacity t = t.rep.pairs_selected
let pairs t = t.selected
let query_system t = t.qs
let index t = t.ix

let mark t message w =
  (* Pairs beyond the message carry no marks; truncating first keeps a
     short-message mark O(message) instead of O(capacity), which is what
     a serving engine marking against a half-million-pair scheme needs. *)
  let l = Bitvec.length message in
  if l > capacity t then
    invalid_arg "Pairing.orientation_marks: message longer than capacity";
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  Weighted.apply_marks w (Pairing.orientation_marks (take l t.selected) message)

let detect t ~original ~server ~length =
  if length > capacity t then
    invalid_arg "Local_scheme.detect: length exceeds capacity";
  Detector.decode_server t.qs t.selected ~original ~server ~length

let detect_weights t ~original ~suspect ~length =
  if length > capacity t then
    invalid_arg "Local_scheme.detect: length exceeds capacity";
  Detector.decode_weights t.selected ~original ~suspect ~length
