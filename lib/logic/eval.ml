(* Compiled first-order model checking (DESIGN.md 5.15).

   A formula is compiled once against a structure: names resolve to slots
   of an [int array] environment and atoms to their flattened relations.
   Every binder draws its candidate values from a guard found in its body
   (an equality, an atom's hash index, a union over disjuncts) and falls
   back to the whole universe only when there is none; the compiled body
   still checks every candidate, so answers equal brute force. *)

module Obs = Wm_obs.Obs

let c_candidates = Obs.counter "fo.candidates"
let c_scans = Obs.counter "fo.scans"

(* --- one-shot environments ------------------------------------------ *)

type env = (string * int) list (* most recent binding first *)

let empty_env = []
let bind env x v = (x, v) :: env

let bind_all env vars t =
  if List.length vars <> Array.length t then
    invalid_arg "Eval.bind_all: length mismatch";
  List.fold_left2 bind env vars (Array.to_list t)

let lookup env x = List.assoc x env

(* --- resolution ------------------------------------------------------ *)

(* Slot [-1] is a name bound nowhere and [None] an unknown relation
   symbol: both compile, and raise [Not_found] only when evaluation
   reaches them. *)
type ir =
  | True
  | False
  | Atom of Relation.t option * int array
  | Eq of int * int
  | Not of ir
  | And of ir * ir
  | Or of ir * ir
  | Implies of ir * ir
  | Exists of int * ir
  | Forall of int * ir

(* Inputs take slots [0 .. k-1] left to right (a repeated name resolves
   to its last slot); every binder gets a fresh slot after them. *)
let resolve g inputs (phi : Fo.t) =
  let next = ref (List.length inputs) in
  let relation r =
    match Structure.relation g r with
    | rel -> Some (Relation.flatten rel)
    | exception Not_found -> None
  in
  let slot scope x = Option.value (List.assoc_opt x scope) ~default:(-1) in
  let rec go scope : Fo.t -> ir = function
    | True -> True
    | False -> False
    | Atom (r, vs) -> Atom (relation r, Array.of_list (List.map (slot scope) vs))
    | Eq (x, y) -> Eq (slot scope x, slot scope y)
    | Not a -> Not (go scope a)
    | And (a, b) -> And (go scope a, go scope b)
    | Or (a, b) -> Or (go scope a, go scope b)
    | Implies (a, b) -> Implies (go scope a, go scope b)
    | Exists (x, a) ->
        let s = !next in
        incr next;
        Exists (s, go ((x, s) :: scope) a)
    | Forall (x, a) ->
        let s = !next in
        incr next;
        Forall (s, go ((x, s) :: scope) a)
  in
  let scope = List.rev (List.mapi (fun i x -> (x, i)) inputs) in
  let ir = go scope phi in
  (ir, !next)

(* --- guards ---------------------------------------------------------- *)

(* A guard for slot [x]: given the slots bound so far, a sorted, distinct
   superset of the values of [x] that can satisfy the formula it was
   found in.  [est] estimates its size, to pick among a conjunction's
   guards; [build] makes the index, so only chosen guards pay for one. *)
type guard = { est : int; build : unit -> int array -> int array }

let mul a b =
  let cap = max_int / 4 in
  if a = 0 || b <= cap / a then a * b else cap

let sorted_distinct l = Array.of_list (List.sort_uniq Int.compare l)

let positions p vs =
  List.filter (fun i -> p vs.(i)) (List.init (Array.length vs) Fun.id)

(* R(..x..) as a conjunct: a hash index from the values at the bound
   positions to the values of [x], over the tuples whose [x] positions
   agree.  Positions holding unbound slots are wildcards. *)
let atom_guard n r vs x bound =
  let xs = positions (fun s -> s = x) vs in
  let keys = Array.of_list (positions (fun s -> s <> x && List.mem s bound) vs) in
  let x0 = List.hd xs in
  let est =
    Array.fold_left (fun c _ -> max 1 (c / max 1 n)) (Relation.cardinal r) keys
  in
  let build () =
    let lists = Tuple.Hashtbl.create 64 in
    Relation.iter_flat
      (fun buf off ->
        let v = buf.(off + x0) in
        if List.for_all (fun p -> buf.(off + p) = v) xs then begin
          let key = Array.map (fun p -> buf.(off + p)) keys in
          let l = Option.value (Tuple.Hashtbl.find_opt lists key) ~default:[] in
          Tuple.Hashtbl.replace lists key (v :: l)
        end)
      r;
    let index = Tuple.Hashtbl.create (Tuple.Hashtbl.length lists) in
    Tuple.Hashtbl.iter
      (fun key l -> Tuple.Hashtbl.replace index key (sorted_distinct l))
      lists;
    fun env ->
      match Tuple.Hashtbl.find_opt index (Array.map (fun p -> env.(vs.(p))) keys) with
      | Some values -> values
      | None -> [||]
  in
  { est; build }

let smaller a b =
  match (a, b) with
  | Some ga, Some gb -> if gb.est < ga.est then b else a
  | Some _, None -> a
  | None, _ -> b

let rec guard n x bound : ir -> guard option = function
  | Eq (a, b) when a = x && b <> x && List.mem b bound ->
      Some { est = 1; build = (fun () env -> [| env.(b) |]) }
  | Eq (b, a) when a = x && b <> x && List.mem b bound ->
      Some { est = 1; build = (fun () env -> [| env.(b) |]) }
  | Atom (Some r, vs) when Array.mem x vs && Array.length vs = Relation.arity r ->
      Some (atom_guard n r vs x bound)
  | And (a, b) -> smaller (guard n x bound a) (guard n x bound b)
  | Or (a, b) -> (
      match (guard n x bound a, guard n x bound b) with
      | Some ga, Some gb ->
          Some
            {
              est = ga.est + gb.est;
              build =
                (fun () ->
                  let va = ga.build () and vb = gb.build () in
                  fun env ->
                    sorted_distinct (Array.to_list (va env) @ Array.to_list (vb env)));
            }
      | _ -> None)
  | Exists (w, a) ->
      (* Either w stays a wildcard, or x's candidates are unioned over
         w's own candidates, each bound in turn.  Writing w's slot here is
         safe: its binder lies inside x's scope and is not running. *)
      let through =
        match (guard n w bound a, guard n x (w :: bound) a) with
        | Some gw, Some gx ->
            Some
              {
                est = mul gw.est gx.est;
                build =
                  (fun () ->
                    let vw = gw.build () and vx = gx.build () in
                    fun env ->
                      sorted_distinct
                        (Array.fold_left
                           (fun acc v ->
                             env.(w) <- v;
                             Array.to_list (vx env) @ acc)
                           [] (vw env)));
              }
        | _ -> None
      in
      smaller (guard n x bound a) through
  | _ -> None

(* --- compilation ----------------------------------------------------- *)

(* Sets [env.(x)] to each candidate in turn until [body env = stop];
   says whether that happened. *)
let search count value x body stop env =
  let i = ref 0 and hit = ref false in
  while (not !hit) && !i < count do
    env.(x) <- value !i;
    incr i;
    hit := body env = stop
  done;
  Obs.add c_candidates !i;
  !hit

let binder n x g body stop =
  match g with
  | Some g ->
      let values = g.build () in
      fun env ->
        let vs = values env in
        search (Array.length vs) (Array.get vs) x body stop env
  | None ->
      fun env ->
        Obs.incr c_scans;
        search n Fun.id x body stop env

let rec comp n bound : ir -> int array -> bool = function
  | True -> fun _ -> true
  | False -> fun _ -> false
  | Atom (None, _) -> fun _ -> raise Not_found
  | Atom (Some _, vs) when Array.mem (-1) vs -> fun _ -> raise Not_found
  | Atom (Some r, vs) -> fun env -> Relation.mem (Array.map (fun s -> env.(s)) vs) r
  | Eq (a, b) when a < 0 || b < 0 -> fun _ -> raise Not_found
  | Eq (a, b) -> fun env -> env.(a) = env.(b)
  | Not a ->
      let a = comp n bound a in
      fun env -> not (a env)
  | And (a, b) ->
      let a = comp n bound a and b = comp n bound b in
      fun env -> a env && b env
  | Or (a, b) ->
      let a = comp n bound a and b = comp n bound b in
      fun env -> a env || b env
  | Implies (a, b) ->
      let a = comp n bound a and b = comp n bound b in
      fun env -> (not (a env)) || b env
  | Exists (x, a) ->
      binder n x (guard n x bound a) (comp n (x :: bound) a) true
  | Forall (x, a) ->
      (* only values satisfying the premise can falsify A -> B *)
      let g = match a with Implies (p, _) -> guard n x bound p | _ -> None in
      let falsified = binder n x g (comp n (x :: bound) a) false in
      fun env -> not (falsified env)

let inputs_env nslots k t =
  if Array.length t <> k then invalid_arg "Eval.bind_all: length mismatch";
  let env = Array.make nslots 0 in
  Array.blit t 0 env 0 k;
  env

let compile g vars phi =
  let n = Structure.size g and k = List.length vars in
  let ir, nslots = resolve g vars phi in
  let body = comp n (List.init k Fun.id) ir in
  fun t -> body (inputs_env nslots k t)

let enumerate g ~params ~results phi =
  let n = Structure.size g in
  let p = List.length params and k = List.length results in
  let ir, nslots = resolve g (params @ results) phi in
  let body = comp n (List.init (p + k) Fun.id) ir in
  (* result i is guarded given the parameters and results 0 .. i-1 *)
  let values =
    Array.init k (fun i ->
        Option.map (fun g -> g.build ()) (guard n (p + i) (List.init (p + i) Fun.id) ir))
  in
  fun a ->
    let env = inputs_env nslots p a in
    let acc = ref Tuple.Set.empty in
    let rec level i =
      if i = k then begin
        if body env then acc := Tuple.Set.add (Array.sub env p k) !acc
      end
      else begin
        let visit v =
          env.(p + i) <- v;
          level (i + 1)
        in
        match values.(i) with
        | Some values ->
            let vs = values env in
            Obs.add c_candidates (Array.length vs);
            Array.iter visit vs
        | None ->
            Obs.incr c_scans;
            Obs.add c_candidates n;
            for v = 0 to n - 1 do
              visit v
            done
      end
    in
    level 0;
    !acc

(* --- one-shot wrappers ----------------------------------------------- *)

let split env =
  let env = List.rev env in
  (List.map fst env, Array.of_list (List.map snd env))

let holds g env phi =
  let vars, t = split env in
  compile g vars phi t

let satisfying g env vars phi =
  let params, t = split env in
  enumerate g ~params ~results:vars phi t
