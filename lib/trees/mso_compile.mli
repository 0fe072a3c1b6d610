(** Compilation of MSO formulas to tree automata (Lemma 2, after
    Grohe-Turán / Thatcher-Wright).

    Vocabulary tau(Sigma): binary [S1] (left child), [S2] (right child),
    [Leq] (reflexive tree order: [Leq(x,y)] iff x is an ancestor of y or
    x = y), equality, set membership, and one unary predicate per letter of
    Sigma written as an atom named by the letter, e.g. [exam(x)].  Two
    more binary atoms read a binary tree as the first-child/next-sibling
    encoding of an unranked one: [Child(x,y)] (y lies on the S2-spine of
    x's S1 child, i.e. y is an unranked child of x) and [Desc(x,y)] (y lies
    in the binary subtree of x's S1 child, i.e. y is a proper unranked
    descendant of x).  Arity tells them apart from letters of the same
    name.

    The compilation is compositional over a {e fixed} pebble alphabet
    Sigma x {0,1}^K, where K counts the free variables plus all
    (alpha-renamed) bound variables: atoms become 3-5 state automata that
    read only their own bits, conjunction and disjunction become products,
    negation becomes complement intersected with the singleton validity of
    the free element variables, and quantifiers become bit projection
    followed by subset-construction determinization.  Keeping the alphabet
    fixed turns cylindrification into a no-op (an automaton simply ignores
    bits it does not read); projected bits must be 0 on input trees, which
    they are — the caller only pebbles free variables. *)

type t = {
  auto : Dta.t;  (** deterministic, complete, reduced *)
  alpha : Alphabet.t;  (** Sigma x {0,1}^K *)
  base : string array;  (** Sigma *)
  free_bits : (string * int) list;  (** free variable -> pebble bit *)
}

exception Unsupported of string
(** Raised on atoms outside the tree vocabulary. *)

val compile : base:string array -> free:string list -> Mso.t -> t
(** [compile ~base ~free phi] compiles [phi]; [free] must list exactly the
    free variables (element and set), in the bit order the caller wants.
    @raise Unsupported on non-tree atoms,
    @raise Invalid_argument when [free] mismatches the formula. *)

val accepts :
  t -> Btree.t -> elems:(string * int) list -> sets:(string * int list) list
  -> bool
(** Run the compiled automaton on T_{assignment}: element variables pebble
    one node, set variables pebble a set of nodes.  All free variables must
    be assigned. *)

val size_report : t -> string
(** "states=.., labels=.." — experiment E8 reports compiled sizes. *)
