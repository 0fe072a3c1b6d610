(* The reference FO evaluator: the straightforward recursive interpreter
   over a string-keyed environment, with every quantifier and result
   variable ranging over the whole universe.  Test-only — the oracle the
   compiled evaluator (Eval) is checked against. *)

module Smap = Map.Make (String)

let bind_all env vars t =
  if List.length vars <> Array.length t then
    invalid_arg "Eval_ref.bind_all: length mismatch";
  List.fold_left2 (fun env x v -> Smap.add x v env) env vars (Array.to_list t)

let lookup env x =
  match Smap.find_opt x env with Some v -> v | None -> raise Not_found

let rec holds g env (phi : Fo.t) =
  match phi with
  | True -> true
  | False -> false
  | Atom (r, vars) ->
      let t = Tuple.of_list (List.map (lookup env) vars) in
      Relation.mem t (Structure.relation g r)
  | Eq (x, y) -> lookup env x = lookup env y
  | Not a -> not (holds g env a)
  | And (a, b) -> holds g env a && holds g env b
  | Or (a, b) -> holds g env a || holds g env b
  | Implies (a, b) -> (not (holds g env a)) || holds g env b
  | Exists (x, a) ->
      let n = Structure.size g in
      let rec go v = v < n && (holds g (Smap.add x v env) a || go (v + 1)) in
      go 0
  | Forall (x, a) ->
      let n = Structure.size g in
      let rec go v = v >= n || (holds g (Smap.add x v env) a && go (v + 1)) in
      go 0

let satisfying g env vars phi =
  let n = Structure.size g in
  let rec go env = function
    | [] ->
        fun acc partial ->
          if holds g env phi then
            Tuple.Set.add (Tuple.of_list (List.rev partial)) acc
          else acc
    | x :: rest ->
        fun acc partial ->
          let acc = ref acc in
          for v = 0 to n - 1 do
            acc := go (Smap.add x v env) rest !acc (v :: partial)
          done;
          !acc
  in
  go env vars Tuple.Set.empty []

let result_set g (q : Query.t) a =
  satisfying g (bind_all Smap.empty q.params a) q.results q.phi
