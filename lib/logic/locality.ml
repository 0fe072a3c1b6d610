let saturating_pow base exp =
  let cap = max_int / 4 in
  let rec go acc i =
    if i = 0 then acc
    else if acc > cap / base then cap
    else go (acc * base) (i - 1)
  in
  go 1 exp

let gaifman_bound phi =
  let qr = Fo.quantifier_rank phi in
  (saturating_pow 7 qr - 1) / 2

(* Make bound variables globally unique so existentials can be hoisted
   through conjunctions (Ex.a & b = Ex.(a & b) when x is not free in b). *)
let fo_alpha_rename phi =
  let counter = ref 0 in
  let module M = Map.Make (String) in
  let subst env x = match M.find_opt x env with Some y -> y | None -> x in
  let rec go env (phi : Fo.t) : Fo.t =
    match phi with
    | True -> True
    | False -> False
    | Atom (r, vs) -> Atom (r, List.map (subst env) vs)
    | Eq (x, y) -> Eq (subst env x, subst env y)
    | Not a -> Not (go env a)
    | And (a, b) -> And (go env a, go env b)
    | Or (a, b) -> Or (go env a, go env b)
    | Implies (a, b) -> Implies (go env a, go env b)
    | Exists (x, a) ->
        incr counter;
        let x' = Printf.sprintf "%s#%d" x !counter in
        Exists (x', go (M.add x x' env) a)
    | Forall (x, a) ->
        incr counter;
        let x' = Printf.sprintf "%s#%d" x !counter in
        Forall (x', go (M.add x x' env) a)
  in
  go M.empty phi

(* Conjunctive-query shape: a conjunction of relational/equality atoms
   under existential quantifiers (anywhere, thanks to renaming); returns
   (bound vars, atom variable lists) or None. *)
let rec cq_shape (phi : Fo.t) =
  match phi with
  | Exists (x, body) ->
      Option.map (fun (bound, ats) -> (x :: bound, ats)) (cq_shape body)
  | And (a, b) ->
      Option.bind (cq_shape a) (fun (ba, aa) ->
          Option.map (fun (bb, ab) -> (ba @ bb, aa @ ab)) (cq_shape b))
  | Atom (_, vars) -> Some ([], [ vars ])
  | Eq (x, y) -> Some ([], [ [ x; y ] ])
  | True -> Some ([], [])
  | False | Or _ | Implies _ | Not _ | Forall _ -> None

let cq_rank phi =
  let phi = fo_alpha_rename phi in
  match cq_shape phi with
  | None -> None
  | Some (bound, atoms) ->
      let free = Fo.free_vars phi in
      let vars =
        List.sort_uniq compare (free @ bound @ List.concat atoms)
      in
      let ix v =
        let rec go i = function
          | [] -> assert false
          | w :: _ when w = v -> i
          | _ :: rest -> go (i + 1) rest
        in
        go 0 vars
      in
      let n = List.length vars in
      (* BFS from the set of free variables over the query graph (variables
         co-occurring in an atom are adjacent). *)
      let adj = Array.make n [] in
      List.iter
        (fun atom_vars ->
          let is' = List.sort_uniq compare (List.map ix atom_vars) in
          List.iter
            (fun a ->
              List.iter (fun b -> if a <> b then adj.(a) <- b :: adj.(a)) is')
            is')
        atoms;
      let dist = Array.make n (-1) in
      let q = Queue.create () in
      List.iter
        (fun v ->
          dist.(ix v) <- 0;
          Queue.add (ix v) q)
        free;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        List.iter
          (fun v ->
            if dist.(v) < 0 then begin
              dist.(v) <- dist.(u) + 1;
              Queue.add v q
            end)
          adj.(u)
      done;
      (* Unreached variables live in components without free variables:
         per-structure constants, irrelevant to the rank. *)
      Some (Array.fold_left max 0 dist)

let best_rank phi =
  match cq_rank phi with Some r -> r | None -> gaifman_bound phi

let respects_rank g phi ~rho =
  let vars = Fo.free_vars phi in
  let arity = List.length vars in
  if arity = 0 then true
  else begin
    let tuples = Neighborhood.all_tuples g ~arity in
    let ix = Neighborhood.index g ~rho tuples in
    (* Within each type, satisfaction must be constant. *)
    let verdict = Hashtbl.create 16 in
    let holds = Eval.compile g vars phi in
    List.for_all
      (fun t ->
        let ty = Neighborhood.type_of ix t in
        let sat = holds t in
        match Hashtbl.find_opt verdict ty with
        | Some s -> s = sat
        | None ->
            Hashtbl.add verdict ty sat;
            true)
      tuples
  end

let minimal_rank g phi ~max =
  let rec go rho =
    if rho > max then None
    else if respects_rank g phi ~rho then Some rho
    else go (rho + 1)
  in
  go 0

let eta q ~k ~rho =
  let r = Query.param_arity q in
  let cap = max_int / 4 in
  let pow = saturating_pow (Stdlib.max 1 k) ((2 * rho) + 1) in
  if pow > cap / (2 * Stdlib.max 1 r) then cap else 2 * r * pow

let query_count_bound g q =
  saturating_pow (Stdlib.max 1 (Structure.size g)) (Query.param_arity q)
