(* The benchmark's own span recorder.

   Spans are recorded around every call the benchmark makes into a layer
   of the library, from the benchmark's side of the call: name, start,
   end, parent span and request id.  They stay in memory and are written
   out once, at exit.  Recording is off unless [set_enabled true]; a
   disabled [record] is one branch and the call itself.

   Span names are "<layer>.<operation>" for layer calls ("nbh.index",
   "serve.detect") and "bench.<what>" for the benchmark's own grouping
   spans (a pass, a set-up); the layer is the text before the first
   dot. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at top level *)
  rid : int;  (** request id: the pass or frame this span serves *)
  start : float;
  mutable stop : float;
}

let enabled = ref false
let set_enabled b = enabled := b
let recorded : t list ref = ref []
let next_id = ref 0
let stack : t list ref = ref []
let current_rid = ref 0

let now = Unix.gettimeofday

(* Runs [f] with [rid] as the request id of every span opened inside. *)
let with_rid rid f =
  let saved = !current_rid in
  current_rid := rid;
  Fun.protect ~finally:(fun () -> current_rid := saved) f

let record name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = !next_id; name; parent; rid = !current_rid; start = now ();
        stop = nan }
    in
    incr next_id;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now ();
        stack := List.tl !stack;
        recorded := s :: !recorded)
      f
  end

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let duration s = s.stop -. s.start

(* Self time of every span: its duration minus what its direct children
   cover (children never overlap on the single recording domain). *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

let all () = List.rev !recorded

let write_jsonl path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"rid\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.name s.parent s.rid s.start s.stop)
    (all ())
