type t =
  | Element of { tag : string; attrs : (string * string) list; children : t list }
  | Text of string

exception Parse_error of string

type error = { line : int; column : int; message : string }

let error_to_string e =
  Printf.sprintf "line %d, column %d: %s" e.line e.column e.message

(* Internal: failures carry the raw offset; [parse_result] converts it to
   line/column against the source once, at the boundary. *)
exception Fail_at of int * string

let fail off msg = raise (Fail_at (off, msg))

let position_of src off =
  let off = min (max 0 off) (String.length src) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to off - 1 do
    if src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, off - !bol + 1)

(* ------------------------------------------------------------------ *)
(* Lexing helpers over a string cursor. *)

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let looking_at c s =
  let n = String.length s in
  c.pos + n <= String.length c.src && String.sub c.src c.pos n = s

let advance c n = c.pos <- c.pos + n

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> true
    | _ -> false
  do
    advance c 1
  done

let is_name_char ch =
  (ch >= 'a' && ch <= 'z')
  || (ch >= 'A' && ch <= 'Z')
  || (ch >= '0' && ch <= '9')
  || ch = '_' || ch = '-' || ch = '.' || ch = ':'

let is_name s = s <> "" && String.for_all is_name_char s

let read_name c =
  let start = c.pos in
  while (match peek c with Some ch -> is_name_char ch | None -> false) do
    advance c 1
  done;
  if c.pos = start then fail c.pos "expected a name";
  String.sub c.src start (c.pos - start)

let decode_entities ?(base = 0) s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '&' then begin
      let semi =
        match String.index_from_opt s !i ';' with
        | Some j when j - !i <= 6 -> j
        | _ -> fail (base + !i) "unterminated entity"
      in
      let name = String.sub s (!i + 1) (semi - !i - 1) in
      Buffer.add_string buf
        (match name with
        | "lt" -> "<"
        | "gt" -> ">"
        | "amp" -> "&"
        | "quot" -> "\""
        | "apos" -> "'"
        | _ -> fail (base + !i) ("unknown entity &" ^ name ^ ";"));
      i := semi + 1
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let encode_entities s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let is_blank s = String.for_all (fun ch -> ch = ' ' || ch = '\t' || ch = '\n' || ch = '\r') s

(* ------------------------------------------------------------------ *)

let rec skip_misc c =
  skip_ws c;
  if looking_at c "<!--" then begin
    (match
       let rec find i =
         if i + 3 > String.length c.src then None
         else if String.sub c.src i 3 = "-->" then Some i
         else find (i + 1)
       in
       find (c.pos + 4)
     with
    | Some j -> c.pos <- j + 3
    | None -> fail c.pos "unterminated comment");
    skip_misc c
  end
  else if looking_at c "<?" then begin
    (match String.index_from_opt c.src c.pos '>' with
    | Some j -> c.pos <- j + 1
    | None -> fail c.pos "unterminated processing instruction");
    skip_misc c
  end

let read_attr c =
  let name = read_name c in
  skip_ws c;
  if peek c <> Some '=' then fail c.pos "expected '=' in attribute";
  advance c 1;
  skip_ws c;
  let quote =
    match peek c with
    | Some ('"' as q) | Some ('\'' as q) -> q
    | _ -> fail c.pos "expected quoted attribute value"
  in
  advance c 1;
  let start = c.pos in
  (match String.index_from_opt c.src c.pos quote with
  | Some j -> c.pos <- j
  | None -> fail c.pos "unterminated attribute value");
  let value = decode_entities ~base:start (String.sub c.src start (c.pos - start)) in
  advance c 1;
  (name, value)

let rec read_element c =
  if peek c <> Some '<' then fail c.pos "expected '<'";
  advance c 1;
  let tag = read_name c in
  let attrs = ref [] in
  skip_ws c;
  while (match peek c with Some ch -> is_name_char ch | None -> false) do
    attrs := read_attr c :: !attrs;
    skip_ws c
  done;
  if looking_at c "/>" then begin
    advance c 2;
    Element { tag; attrs = List.rev !attrs; children = [] }
  end
  else begin
    if peek c <> Some '>' then fail c.pos "expected '>'";
    advance c 1;
    let children = read_children c tag in
    Element { tag; attrs = List.rev !attrs; children }
  end

and read_children c tag =
  let close = "</" ^ tag in
  let out = ref [] in
  let finished = ref false in
  while not !finished do
    if looking_at c close then begin
      advance c (String.length close);
      skip_ws c;
      if peek c <> Some '>' then fail c.pos "expected '>' in closing tag";
      advance c 1;
      finished := true
    end
    else if looking_at c "<!--" || looking_at c "<?" then skip_misc c
    else if looking_at c "</" then fail c.pos ("mismatched closing tag, wanted " ^ tag)
    else if peek c = Some '<' then out := read_element c :: !out
    else begin
      let start = c.pos in
      while peek c <> Some '<' && peek c <> None do
        advance c 1
      done;
      if peek c = None then fail start ("unterminated element " ^ tag);
      let txt = String.sub c.src start (c.pos - start) in
      if not (is_blank txt) then
        out := Text (decode_entities ~base:start (String.trim txt)) :: !out
    end
  done;
  List.rev !out

let parse_result s =
  let run () =
    let c = { src = s; pos = 0 } in
    skip_misc c;
    if peek c <> Some '<' then fail c.pos "document must start with an element";
    let doc = read_element c in
    skip_misc c;
    if c.pos <> String.length s then
      fail c.pos "trailing content after document";
    doc
  in
  match run () with
  | doc -> Ok doc
  | exception Fail_at (off, message) ->
      let line, column = position_of s off in
      Error { line; column; message }
  | exception (Invalid_argument m | Failure m) ->
      (* Defensive: no parser path should reach here, but a total result
         API must not leak an exception on any input. *)
      Error { line = 0; column = 0; message = m }

let parse s =
  match parse_result s with
  | Ok doc -> doc
  | Error e -> raise (Parse_error (error_to_string e))

(* ------------------------------------------------------------------ *)

let to_string ?(indent = true) doc =
  let buf = Buffer.create 1024 in
  let attrs_str attrs =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf " %s=\"%s\"" k (encode_entities v)) attrs)
  in
  let rec go depth node =
    let pad = if indent then String.make (2 * depth) ' ' else "" in
    match node with
    | Text s ->
        Buffer.add_string buf pad;
        Buffer.add_string buf (encode_entities s);
        if indent then Buffer.add_char buf '\n'
    | Element { tag; attrs; children = [] } ->
        Buffer.add_string buf (Printf.sprintf "%s<%s%s/>" pad tag (attrs_str attrs));
        if indent then Buffer.add_char buf '\n'
    | Element { tag; attrs; children = [ Text s ] } ->
        Buffer.add_string buf
          (Printf.sprintf "%s<%s%s>%s</%s>" pad tag (attrs_str attrs)
             (encode_entities s) tag);
        if indent then Buffer.add_char buf '\n'
    | Element { tag; attrs; children } ->
        Buffer.add_string buf (Printf.sprintf "%s<%s%s>" pad tag (attrs_str attrs));
        if indent then Buffer.add_char buf '\n';
        List.iter (go (depth + 1)) children;
        Buffer.add_string buf (Printf.sprintf "%s</%s>" pad tag);
        if indent then Buffer.add_char buf '\n'
  in
  go 0 doc;
  Buffer.contents buf

let element tag children = Element { tag; attrs = []; children }
let text s = Text s
let int_text n = Text (string_of_int n)

let tag_of = function Element { tag; _ } -> Some tag | Text _ -> None
let children_of = function Element { children; _ } -> children | Text _ -> []

let rec equal a b =
  match (a, b) with
  | Text x, Text y -> x = y
  | Element ea, Element eb ->
      ea.tag = eb.tag && ea.attrs = eb.attrs
      && List.length ea.children = List.length eb.children
      && List.for_all2 equal ea.children eb.children
  | _ -> false
