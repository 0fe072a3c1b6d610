(** Minimal XML documents: parsing and printing.

    Just enough XML for the paper's Section 4 workloads: elements, text,
    attributes, comments and processing instructions (the last two are
    skipped on parse).  No namespaces, DTDs or CDATA.  Whitespace-only text
    between elements is dropped; other text is kept verbatim after entity
    decoding. *)

type t =
  | Element of { tag : string; attrs : (string * string) list; children : t list }
  | Text of string

exception Parse_error of string
(** Raised with a message naming the line, column and problem. *)

type error = { line : int; column : int; message : string }
(** 1-based line and column; both 0 when no position applies. *)

val error_to_string : error -> string

val parse_result : string -> (t, error) result
(** Total: parses one document (leading [<?xml ...?>] allowed); every
    malformed input comes back as [Error] with position information.
    Never raises. *)

val parse : string -> t
(** @raise Parse_error on malformed input (delegates to
    {!parse_result}). *)

val to_string : ?indent:bool -> t -> string
(** Serializes; [indent] (default true) pretty-prints with 2-space
    indentation, text-only elements staying on one line. *)

val is_name : string -> bool
(** A non-empty string of the characters tag and attribute names may
    hold here: ASCII letters, digits, [_ - . :]. *)

val element : string -> t list -> t
(** Element with no attributes. *)

val text : string -> t
val int_text : int -> t

val tag_of : t -> string option
val children_of : t -> t list

val equal : t -> t -> bool
(** Structural equality (attribute order significant). *)
