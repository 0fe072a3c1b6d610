type options = Local_scheme.options

type report = {
  queries : int;
  rho : int list;
  ntp : int list;
  active : int;
  pairs_available : int;
  pairs_selected : int;
  budget : int;
  max_split : int;
}

type t = {
  systems : Query_system.t list;
  selected : Pairing.pair list;
  rep : report;
  indexes : Neighborhood.index list;
  options : options;
}

(* Disjoint union of query systems: parameters carry their query index as
   a leading component.  Result sets (hence active sets, split counts,
   distortion) are untouched — only parameter identity is enriched. *)
let tag i a = Tuple.concat (Tuple.singleton i) a

let combined_of systems =
  let arr = Array.of_list systems in
  let params =
    List.concat
      (List.mapi
         (fun i qs -> List.map (tag i) (Query_system.params qs))
         systems)
  in
  Query_system.of_custom ~params
    ~result_set:(fun tagged ->
      let i = tagged.(0) in
      let a = Array.sub tagged 1 (Array.length tagged - 1) in
      Query_system.result_set arr.(i) a)
    ~weight_arity:(Query_system.weight_arity (List.hd systems))

(* Tail shared by [prepare] and [update]; deterministic in its inputs, so
   incrementally refreshed systems/indexes reproduce the scheme exactly. *)
let assemble ~options ~queries ~systems ~indexes =
  let combined = combined_of systems in
  if Query_system.active combined = [] then
    Error "queries have no active weighted elements"
  else begin
    let canonical =
      List.concat
        (List.mapi
           (fun i ix ->
             List.map (tag i) (Array.to_list ix.Neighborhood.representatives))
           indexes)
    in
    let all_pairs = Pairing.s_partition combined ~canonical in
    let budget = int_of_float (ceil (1.0 /. options.Local_scheme.epsilon)) in
    let selected =
      Pairing.select_greedy
        (Prng.create options.Local_scheme.seed)
        combined all_pairs ~budget
    in
    if selected = [] then Error "no pair survived eps-good selection"
    else
      Ok
        {
          systems;
          selected;
          indexes;
          options;
          rep =
            {
              queries = List.length queries;
              rho = List.map (fun ix -> ix.Neighborhood.rho) indexes;
              ntp = List.map Neighborhood.ntp indexes;
              active = List.length (Query_system.active combined);
              pairs_available = List.length all_pairs;
              pairs_selected = List.length selected;
              budget;
              max_split = Pairing.max_split combined selected;
            };
        }
  end

let check_arity (ws : Weighted.structure) queries =
  List.exists
    (fun q -> Query.result_arity q <> Weighted.arity ws.Weighted.weights)
    queries

let prepare ?(options = Local_scheme.default_options) (ws : Weighted.structure)
    queries =
  let g = ws.Weighted.graph in
  if queries = [] then Error "no queries"
  else if check_arity ws queries then
    Error "some query's result arity differs from the weight arity"
  else if Option.fold ~none:false ~some:(fun r -> r < 0) options.Local_scheme.rho
  then Error "rho must be nonnegative"
  else begin
    let systems = List.map (Query_system.of_relational g) queries in
    let rhos =
      List.map
        (fun q ->
          match options.Local_scheme.rho with
          | Some r -> r
          | None -> Locality.best_rank q.Query.phi)
        queries
    in
    let indexes =
      List.map2
        (fun q rho -> Neighborhood.index g ~rho (Query.all_params g q))
        queries rhos
    in
    assemble ~options ~queries ~systems ~indexes
  end

let update t ~old (ws : Weighted.structure) queries ~dirty =
  let options = t.options in
  let g = ws.Weighted.graph in
  if List.length queries <> List.length t.systems then
    Error "update: query list differs from the prepared one"
  else if check_arity ws queries then
    Error "some query's result arity differs from the weight arity"
  else begin
    let old_g = old.Weighted.graph in
    let old_gf = Gaifman.of_structure old_g in
    let gf = Gaifman.refresh g ~prev:old_gf ~dirty in
    let systems =
      List.map2
        (fun (qs, ix) q ->
          let rho = ix.Neighborhood.rho in
          let affected =
            Neighborhood.affected_elements ~old_gf ~gf ~rho ~dirty
          in
          Query_system.refresh_relational qs g q ~affected)
        (List.combine t.systems t.indexes)
        queries
    in
    let indexes =
      List.map
        (fun ix -> Neighborhood.reindex ~old:old_g g ~prev:ix ~dirty)
        t.indexes
    in
    assemble ~options ~queries ~systems ~indexes
  end

let report t = t.rep
let capacity t = List.length t.selected
let pairs t = t.selected
let indexes t = t.indexes

let mark t message w =
  Weighted.apply_marks w (Pairing.orientation_marks t.selected message)

let detect_weights t ~original ~suspect ~length =
  if length > capacity t then
    invalid_arg "Multi_scheme.detect_weights: length exceeds capacity";
  Detector.decode_weights t.selected ~original ~suspect ~length

let distortion t w w' =
  List.mapi (fun i qs -> (i, Distortion.global qs w w')) t.systems
