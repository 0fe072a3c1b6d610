type t =
  | True
  | False
  | Atom of string * string list
  | Eq of string * string
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Exists of string * t
  | Forall of string * t

let atom r vars = Atom (r, vars)
let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)
let neg a = Not a
let exists x a = Exists (x, a)
let forall x a = Forall (x, a)
let eq x y = Eq (x, y)

let conj = function [] -> True | x :: xs -> List.fold_left ( &&& ) x xs
let disj = function [] -> False | x :: xs -> List.fold_left ( ||| ) x xs

module Svars = Set.Make (String)

let rec free_vars_set = function
  | True | False -> Svars.empty
  | Atom (_, vars) -> Svars.of_list vars
  | Eq (x, y) -> Svars.of_list [ x; y ]
  | Not a -> free_vars_set a
  | And (a, b) | Or (a, b) | Implies (a, b) ->
      Svars.union (free_vars_set a) (free_vars_set b)
  | Exists (x, a) | Forall (x, a) -> Svars.remove x (free_vars_set a)

let free_vars phi = Svars.elements (free_vars_set phi)

let rec quantifier_rank = function
  | True | False | Atom _ | Eq _ -> 0
  | Not a -> quantifier_rank a
  | And (a, b) | Or (a, b) | Implies (a, b) ->
      max (quantifier_rank a) (quantifier_rank b)
  | Exists (_, a) | Forall (_, a) -> 1 + quantifier_rank a

let rec schema_error schema = function
  | True | False | Eq _ -> None
  | Atom (r, vars) ->
      let got = List.length vars in
      if not (Schema.mem schema r) then
        Some
          (Printf.sprintf "unknown relation %s/%d; the schema has %s" r got
             (String.concat ", "
                (List.map
                   (fun (s : Schema.symbol) -> Printf.sprintf "%s/%d" s.name s.arity)
                   (Schema.symbols schema))))
      else
        let want = Schema.arity_of schema r in
        if want <> got then
          Some (Printf.sprintf "relation %s/%d used with %d arguments" r want got)
        else None
  | Not a | Exists (_, a) | Forall (_, a) -> schema_error schema a
  | And (a, b) | Or (a, b) | Implies (a, b) -> (
      match schema_error schema a with
      | None -> schema_error schema b
      | e -> e)

let well_formed schema phi = schema_error schema phi = None

let rec pp fmt = function
  | True -> Format.pp_print_string fmt "true"
  | False -> Format.pp_print_string fmt "false"
  | Atom (r, vars) ->
      Format.fprintf fmt "%s(%s)" r (String.concat "," vars)
  | Eq (x, y) -> Format.fprintf fmt "%s = %s" x y
  | Not a -> Format.fprintf fmt "~%a" pp_negand a
  | And (a, b) -> Format.fprintf fmt "%a & %a" pp_atomic a pp_atomic b
  | Or (a, b) -> Format.fprintf fmt "%a | %a" pp_atomic a pp_atomic b
  | Implies (a, b) -> Format.fprintf fmt "%a -> %a" pp_atomic a pp_atomic b
  | Exists (x, a) -> Format.fprintf fmt "exists %s. %a" x pp a
  | Forall (x, a) -> Format.fprintf fmt "forall %s. %a" x pp a

and pp_atomic fmt phi =
  match phi with
  | True | False | Atom _ | Eq _ | Not _ -> pp fmt phi
  | _ -> Format.fprintf fmt "(%a)" pp phi

(* "~x = y" would re-parse as (~x) = y, so negated equalities keep their
   parentheses. *)
and pp_negand fmt phi =
  match phi with
  | True | False | Atom _ | Not _ -> pp fmt phi
  | _ -> Format.fprintf fmt "(%a)" pp phi

let to_string phi = Format.asprintf "%a" pp phi
