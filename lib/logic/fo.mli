(** First-order formulas over a relational schema.

    Formulas are built from atomic formulas R(x1,...,xk) and equalities with
    the boolean connectives and element quantifiers (Section 1).  Variables
    are named; there are no constant or function symbols — query parameters
    are just free variables that the evaluator binds externally. *)

type t =
  | True
  | False
  | Atom of string * string list  (** R(x1, ..., xk) *)
  | Eq of string * string
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Exists of string * t
  | Forall of string * t

val atom : string -> string list -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val neg : t -> t
val exists : string -> t -> t
val forall : string -> t -> t
val eq : string -> string -> t

val conj : t list -> t
(** Conjunction of a list; [True] when empty. *)

val disj : t list -> t

val free_vars : t -> string list
(** Free variables, sorted, without duplicates. *)

val quantifier_rank : t -> int
(** Depth of quantifier nesting — the parameter Gaifman's bound on locality
    rank is exponential in. *)

val well_formed : Schema.t -> t -> bool
(** Every atom uses a schema symbol with the right arity. *)

val schema_error : Schema.t -> t -> string option
(** Why {!well_formed} fails, for the first offending atom: an unknown
    relation (listing the schema's symbols with their arities) or a known
    one used with the wrong number of arguments. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
