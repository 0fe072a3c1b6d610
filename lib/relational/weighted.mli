(** Weight assignments and weighted structures.

    A weighted structure (G, W) pairs a finite structure with a weight
    assignment W : U^s -> N (Section 1).  The watermarking schemes perturb
    weights of s-tuples by +-1 while leaving the structure — the parameter
    part — untouched, so weights live in their own value, sharing the
    structure.

    Distortion vocabulary (Section 1): W' is a {e c-local distortion} of W
    when |W(w) - W'(w)| <= c for every s-tuple w; the {e d-global}
    assumption additionally bounds the change of every query weight f(a) and
    is checked by {!Wm_watermark.Distortion} because it needs a query. *)

type t
(** A weight assignment.  Tuples without an explicit entry weigh
    [default] (0 unless stated otherwise).  Flat-memory representation
    (DESIGN.md 5.12): explicit entries are a sorted contiguous key
    array plus an unboxed Bigarray of weights; behavior matches the
    frozen test oracle [Weighted_ref] (test/oracles). *)

val create : ?default:int -> int -> t
(** [create arity] is the empty assignment on [arity]-tuples. *)

val arity : t -> int

val default : t -> int
(** The weight of tuples without an explicit entry. *)

val get : t -> Tuple.t -> int
val set : t -> Tuple.t -> int -> t
(** Functional update; validates arity. *)

val set_elt : t -> int -> int -> t
(** [set_elt w x v] abbreviates [set w [|x|] v] for the common s = 1 case. *)

val get_elt : t -> int -> int

val of_list : ?default:int -> int -> (Tuple.t * int) list -> t

val bindings : t -> (Tuple.t * int) list
(** Explicit entries, ascending tuple order. *)

val iter_bindings_flat : (int array -> int -> int -> unit) -> t -> unit
(** [iter_bindings_flat f w] calls [f buf off v] once per explicit entry
    in ascending tuple order; the key occupies [buf.(off) .. buf.(off +
    arity w - 1)].  Zero per-entry allocation on a bulk-built value; the
    buffer must not be mutated. *)

val support : t -> Tuple.t list
(** Tuples with an explicit entry. *)

val restrict : t -> size:int -> t
(** [restrict w ~size] keeps the explicit entries all of whose elements
    lie in [0 .. size - 1] — the weights that survive an edit shrinking
    the universe to [size] elements — with the same default. *)

val add_delta : t -> Tuple.t -> int -> t
(** [add_delta w t d] adds [d] to the weight of [t]. *)

val apply_marks : t -> (Tuple.t * int) list -> t
(** Adds every listed delta; the list is a mark in the paper's sense. *)

val local_distance : t -> t -> int
(** sup-distance max_w |W(w) - W'(w)| over {e all} tuples: the union of
    supports, plus the [|default - default'|] delta every off-support
    tuple contributes.  This is the smallest c for which the c-local
    distortion assumption holds. *)

val is_local_distortion : c:int -> t -> t -> bool
(** Does the second assignment satisfy the c-local assumption wrt the
    first? *)

val equal : t -> t -> bool
(** Extensional equality on the union of supports. *)

val pp : Format.formatter -> t -> unit

type structure = { graph : Structure.t; weights : t }
(** A weighted structure (G, W). *)

val make : Structure.t -> t -> structure
(** Validates that the weight arity matches the schema and every supported
    tuple lies in the universe. *)

val weigh : (int -> int) -> Structure.t -> structure
(** [weigh f g] puts weight [f x] on every element [x] — s = 1
    convenience. *)
