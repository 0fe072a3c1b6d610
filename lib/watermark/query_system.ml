(* Observability: the memoization behavior of [result_set] (frozen-map
   hits vs. mutex-guarded cache hits vs. full evaluations) and the reach
   of edit-scoped refreshes. *)
module Obs = Wm_obs.Obs

let c_frozen_hits = Obs.counter "qs.frozen_hits"
let c_cache_hits = Obs.counter "qs.cache_hits"
let c_misses = Obs.counter "qs.misses"
let c_refreshes = Obs.counter "qs.refreshes"
let c_refresh_kept = Obs.counter "qs.refresh_kept"
let c_refresh_candidates = Obs.counter "qs.refresh_candidates"

type t = {
  params : Tuple.t list;
  result_fn : Tuple.t -> Tuple.Set.t;
  weight_arity : int;
  mutable frozen : Tuple.Set.t Tuple.Map.t;
      (* lock-free read path: written only by [precompute]/[refresh] before
         the value is shared across domains *)
  cache : Tuple.Set.t Tuple.Hashtbl.t; (* guarded by [lock] *)
  lock : Mutex.t;
  mutable active : Tuple.Set.t option;
  active_fn : (unit -> Tuple.Set.t) option;
      (* a direct construction of the active set, in place of the union of
         every parameter's result set *)
}

let make ?active_fn params result_fn weight_arity =
  {
    params;
    result_fn;
    weight_arity;
    frozen = Tuple.Map.empty;
    cache = Tuple.Hashtbl.create (List.length params);
    lock = Mutex.create ();
    active = None;
    active_fn;
  }

let of_relational g q =
  make (Query.all_params g q) (Query.result_set g q) (Query.result_arity q)

let of_tree tq tree =
  let module Tq = Wm_trees.Tree_query in
  make
    ~active_fn:(fun () -> Tq.active tq tree)
    (Tq.all_params tq tree) (Tq.result_set tq tree) (Tq.s tq)

let of_custom ~params ~result_set ~weight_arity =
  make params result_set weight_arity

let params t = t.params
let weight_arity t = t.weight_arity

let result_set t a =
  match Tuple.Map.find_opt a t.frozen with
  | Some s ->
      Obs.incr c_frozen_hits;
      s
  | None -> (
      Mutex.lock t.lock;
      match Tuple.Hashtbl.find_opt t.cache a with
      | Some s ->
          Mutex.unlock t.lock;
          Obs.incr c_cache_hits;
          s
      | None ->
          (* Evaluate outside the lock: [result_fn] is deterministic, so a
             racing domain computing the same miss stores the same set and
             either store may win. *)
          Mutex.unlock t.lock;
          Obs.incr c_misses;
          let s = t.result_fn a in
          Mutex.lock t.lock;
          Tuple.Hashtbl.replace t.cache a s;
          Mutex.unlock t.lock;
          s)

let active_set t =
  match t.active with
  | Some s -> s
  | None ->
      let s =
        match t.active_fn with
        | Some f -> f ()
        | None ->
            List.fold_left
              (fun acc a -> Tuple.Set.union acc (result_set t a))
              Tuple.Set.empty t.params
      in
      t.active <- Some s;
      s

let active t = Tuple.Set.elements (active_set t)

let precompute t =
  (* Promote every param's result set into the frozen map and materialize
     the active set.  After this, [result_set] on a param never touches the
     hashtable; only misses on non-param tuples do, and those go through
     [lock]. *)
  t.frozen <-
    List.fold_left
      (fun m a -> Tuple.Map.add a (result_set t a) m)
      t.frozen t.params;
  ignore (active_set t)

(* --- edit-scoped refresh --------------------------------------------- *)

let refresh t ~result_fn ~holds ~params ~size ~affected =
  Obs.incr c_refreshes;
  let in_a = Array.make (max size 1) false in
  List.iter (fun x -> if x >= 0 && x < size then in_a.(x) <- true) affected;
  let touched tup = Array.exists (fun x -> x >= size || in_a.(x)) tup in
  (* Result tuples whose membership may have flipped: those with an element
     in the affected region.  Everything else keeps its old verdict, by the
     same rho-locality the scheme's type index relies on. *)
  let candidates =
    let r = t.weight_arity in
    let rec go k acc =
      if k = 0 then acc
      else
        go (k - 1)
          (List.concat_map
             (fun rest -> List.init size (fun x -> x :: rest))
             acc)
    in
    if size = 0 then []
    else
      List.filter_map
        (fun l ->
          let tup = Tuple.of_list l in
          if touched tup then Some tup else None)
        (go r [ [] ])
  in
  let patch a s =
    let kept = Tuple.Set.filter (fun b -> not (touched b)) s in
    List.fold_left
      (fun acc b -> if holds a b then Tuple.Set.add b acc else acc)
      kept candidates
  in
  Obs.add c_refresh_candidates (List.length candidates);
  let survivors = ref Tuple.Map.empty in
  let add a s =
    if (not (touched a)) && not (Tuple.Map.mem a !survivors) then
      survivors := Tuple.Map.add a (patch a s) !survivors
  in
  Tuple.Map.iter add t.frozen;
  Mutex.lock t.lock;
  Tuple.Hashtbl.iter add t.cache;
  Mutex.unlock t.lock;
  Obs.add c_refresh_kept (Tuple.Map.cardinal !survivors);
  {
    params;
    result_fn;
    weight_arity = t.weight_arity;
    frozen = !survivors;
    cache = Tuple.Hashtbl.create (List.length params);
    lock = Mutex.create ();
    active = None;
    active_fn = None;
  }

let refresh_relational t g q ~affected =
  let holds =
    let holds = Eval.compile g (q.Query.params @ q.Query.results) q.Query.phi in
    fun a b -> holds (Tuple.concat a b)
  in
  refresh t
    ~result_fn:(Query.result_set g q)
    ~holds
    ~params:(Query.all_params g q)
    ~size:(Structure.size g) ~affected

let f t w a =
  Tuple.Set.fold (fun b acc -> acc + Weighted.get w b) (result_set t a) 0

type server = Tuple.t -> (Tuple.t * int) list

let server t w a =
  Tuple.Set.fold (fun b acc -> (b, Weighted.get w b) :: acc) (result_set t a) []
  |> List.rev

let reconstruct_some _t srv params =
  List.fold_left
    (fun acc a ->
      List.fold_left (fun acc (b, v) -> Tuple.Map.add b v acc) acc (srv a))
    Tuple.Map.empty params

let reconstruct t srv = reconstruct_some t srv t.params
