(** Plain-text serialization of weighted structures.

    The on-disk format the [wmark] CLI reads and writes.  Line-oriented,
    comments with [#]:

    {v
    # qpwm weighted structure
    schema Route/2 Timetable/4
    weight_arity 1
    size 18
    name 0 India discovery      # optional, one per line
    rel Route 0 3
    rel Timetable 3 9 10 15
    weight 3 635
    v}

    Unknown directives are an error; names may contain spaces (the rest of
    the line).  Characters the line format cannot carry raw — ['#'],
    ['%'], every control byte (codes below [0x20] plus DEL, which would
    corrupt a line- or frame-oriented transport such as the [wmark serve]
    wire protocol), and leading/trailing/doubled spaces — are escaped as
    ['%XX'] (uppercase hex) on write and decoded on read, so every name
    round-trips byte for byte; files written by older versions (which
    never contain escapes) parse unchanged. *)

exception Format_error of string

type error = { line : int; message : string }
(** [line] is 1-based; 0 when no single line is to blame (e.g. a missing
    [schema] directive or an IO error). *)

val error_to_string : error -> string

val escape_name : string -> string
(** The name-escaping pass on its own: ['%XX'] for ['#'], ['%'], control
    bytes and boundary/doubled spaces.  The serve wire protocol reuses it
    to keep arbitrary error text single-line. *)

val unescape_name : string -> string
(** Inverse of {!escape_name}; decodes only codes the escaper emits, so
    legacy percent signs in never-escaped text survive. *)

val to_string : Weighted.structure -> string

val of_string_result : string -> (Weighted.structure, error) result
(** Total: every malformed input — unknown directives, non-integers,
    out-of-range indices, arity mismatches, inconsistent weights — comes
    back as [Error] with line information.  Never raises. *)

val of_string : string -> Weighted.structure
(** @raise Format_error on malformed content (delegates to
    {!of_string_result}). *)

val save : string -> Weighted.structure -> unit
(** Atomic: writes [<path>.tmp] in the same directory, then renames it
    over [path].  On failure the temp file is removed, the old [path] is
    left untouched, and the exception is re-raised ([Sys_error] on IO
    problems). *)

val load : string -> Weighted.structure
(** @raise Sys_error on IO problems, @raise Format_error on malformed
    content. *)

val load_result : string -> (Weighted.structure, error) result
(** Total file variant: IO problems come back as [Error] with line 0. *)

(** {1 Edit scripts}

    The line-oriented form of {!Structure.edit} lists — what
    [wmark update] reads.  One edit per line, same comment and [%XX]
    escaping conventions as the structure format:

    {v
    # qpwm edit script
    insert Route 0 3
    delete Route 0 3
    add                 # anonymous fresh element
    add Elbonia%20      # named fresh element
    remove 17           # must be the current last element
    v} *)

val edits_to_string : Structure.edit list -> string

val edits_of_string_result : string -> (Structure.edit list, error) result
(** Total: malformed lines come back as [Error] with line information. *)

val edits_of_string : string -> Structure.edit list
(** @raise Format_error on malformed content. *)
