type t = {
  auto : Dta.t;
  alpha : Alphabet.t;
  base : string array;
  free_bits : (string * int) list;
}

exception Unsupported of string

module Obs = Wm_obs.Obs

let t_compile = Obs.timer "trees.compile"
let c_states = Obs.counter "trees.compile.states"

(* ------------------------------------------------------------------ *)
(* Alpha-renaming: make every bound variable unique and distinct from
   free variables, so each variable owns one pebble bit. *)

let alpha_rename phi =
  let counter = ref 0 in
  let fresh x =
    incr counter;
    Printf.sprintf "%s#%d" x !counter
  in
  let module M = Map.Make (String) in
  let subst env x = match M.find_opt x env with Some y -> y | None -> x in
  let rec go env (phi : Mso.t) : Mso.t =
    match phi with
    | True -> True
    | False -> False
    | Atom (r, vs) -> Atom (r, List.map (subst env) vs)
    | Eq (x, y) -> Eq (subst env x, subst env y)
    | In (x, sx) -> In (subst env x, subst env sx)
    | Not a -> Not (go env a)
    | And (a, b) -> And (go env a, go env b)
    | Or (a, b) -> Or (go env a, go env b)
    | Implies (a, b) -> Implies (go env a, go env b)
    | Exists (x, a) ->
        let x' = fresh x in
        Exists (x', go (M.add x x' env) a)
    | Forall (x, a) ->
        let x' = fresh x in
        Forall (x', go (M.add x x' env) a)
    | Exists_set (x, a) ->
        let x' = fresh x in
        Exists_set (x', go (M.add x x' env) a)
    | Forall_set (x, a) ->
        let x' = fresh x in
        Forall_set (x', go (M.add x x' env) a)
  in
  go M.empty phi

(* ------------------------------------------------------------------ *)
(* Atom automata.  Each is a small complete DTA over the alphabet
   Sigma x {0,1}^(number of its own variables): products, negations and
   cylindrifications assemble them into the full formula automaton.  The
   counting automata use occurrence counts capped at 2 (2 = dead); the
   child/order atoms use the explicit state sets documented inline. *)

let cap2 x = if x > 2 then 2 else x

(* Exactly one node carries bit j. *)
let sing alpha j =
  Dta.make ~nstates:3 ~nlabels:(Alphabet.size alpha)
    ~final:(fun q -> q = 1)
    (fun ql qr l ->
      let c q = if q < 0 then 0 else q in
      cap2 (c ql + c qr + if Alphabet.bit alpha l j then 1 else 0))

(* Exactly one node carries bit i, and [ok] holds of its letter. *)
let one_node_satisfying alpha i ok =
  Dta.make ~nstates:3 ~nlabels:(Alphabet.size alpha)
    ~final:(fun q -> q = 1)
    (fun ql qr l ->
      let c q = if q < 0 then 0 else q in
      if Alphabet.bit alpha l i && not (ok l) then 2
      else cap2 (c ql + c qr + if Alphabet.bit alpha l i then 1 else 0))

let eq_atom alpha i j =
  if i = j then sing alpha i
  else
    Dta.product
      (one_node_satisfying alpha i (fun l -> Alphabet.bit alpha l j))
      (sing alpha j) ~final:( && )

let in_atom alpha i jset =
  one_node_satisfying alpha i (fun l -> Alphabet.bit alpha l jset)

let label_atom alpha i letter =
  one_node_satisfying alpha i (fun l -> Alphabet.base alpha l = letter)

(* States shared by the child/order atoms:
   n = nothing relevant inside, y = the pattern's y-part found,
   x = x found alone (order atom only), d = pair established, f = dead. *)
let sn = 0
and sy = 1
and sd = 2
and sf = 3
and sx = 4

(* y (bit j) is the left (resp. right) child of x (bit i). *)
let child_atom alpha ~left:is_left i j =
  Dta.make ~nstates:4 ~nlabels:(Alphabet.size alpha)
    ~final:(fun q -> q = sd)
    (fun ql qr l ->
      let ql = if ql < 0 then sn else ql and qr = if qr < 0 then sn else qr in
      if ql = sf || qr = sf then sf
      else
        let bi = Alphabet.bit alpha l i and bj = Alphabet.bit alpha l j in
        if bi && bj then sf
        else if bj then if ql = sn && qr = sn then sy else sf
        else if bi then begin
          let want, other = if is_left then (ql, qr) else (qr, ql) in
          if want = sy && other = sn then sd else sf
        end
        else
          match (ql, qr) with
          | q, r when q = sn && r = sn -> sn
          | q, r when (q = sd && r = sn) || (q = sn && r = sd) -> sd
          | _ -> sf)

(* x (bit i) is an ancestor of, or equal to, y (bit j). *)
let leq_atom alpha i j =
  if i = j then sing alpha i
  else
    Dta.make ~nstates:5 ~nlabels:(Alphabet.size alpha)
      ~final:(fun q -> q = sd)
      (fun ql qr l ->
        let ql = if ql < 0 then sn else ql
        and qr = if qr < 0 then sn else qr in
        if ql = sf || qr = sf then sf
        else
          let bi = Alphabet.bit alpha l i and bj = Alphabet.bit alpha l j in
          if bi && bj then if ql = sn && qr = sn then sd else sf
          else if bj then if ql = sn && qr = sn then sy else sf
          else if bi then
            match (ql, qr) with
            | q, r when (q = sy && r = sn) || (q = sn && r = sy) -> sd
            | q, r when q = sn && r = sn -> sx
            | _ -> sf
          else
            match (ql, qr) with
            | q, r when q = sn && r = sn -> sn
            | q, r when (q = sy && r = sn) || (q = sn && r = sy) -> sy
            | q, r when (q = sx && r = sn) || (q = sn && r = sx) -> sx
            | q, r when (q = sd && r = sn) || (q = sn && r = sd) -> sd
            | _ -> sf)

(* y (bit j) is a proper unranked descendant of x (bit i) in the FCNS
   reading: y lies in the binary subtree of x's S1 child.  With [~child],
   y must also lie on that child's S2-spine, i.e. be an unranked child of
   x.  [sy]: y lies in this subtree (on its right spine, with [~child]:
   a left edge there makes some node other than x y's parent). *)
let unranked_atom alpha ~child i j =
  Dta.make ~nstates:4 ~nlabels:(Alphabet.size alpha)
    ~final:(fun q -> q = sd)
    (fun ql qr l ->
      let ql = if ql < 0 then sn else ql and qr = if qr < 0 then sn else qr in
      if ql = sf || qr = sf then sf
      else
        let bi = Alphabet.bit alpha l i and bj = Alphabet.bit alpha l j in
        if bi && bj then sf
        else if bj then if ql = sn && qr = sn then sy else sf
        else if bi then if ql = sy && qr = sn then sd else sf
        else
          match (ql, qr) with
          | q, r when q = sn && r = sn -> sn
          | q, r when q = sn && r = sy -> sy
          | q, r when q = sy && r = sn && not child -> sy
          | q, r when (q = sd && r = sn) || (q = sn && r = sd) -> sd
          | _ -> sf)

(* ------------------------------------------------------------------ *)

module Svars = Set.Make (String)

(* Element variables are those used in an element position; set variables
   those used in a set position. *)
let rec classify (phi : Mso.t) (elems, sets) =
  match phi with
  | True | False -> (elems, sets)
  | Atom (_, vs) -> (Svars.union elems (Svars.of_list vs), sets)
  | Eq (x, y) -> (Svars.union elems (Svars.of_list [ x; y ]), sets)
  | In (x, sx) -> (Svars.add x elems, Svars.add sx sets)
  | Not a -> classify a (elems, sets)
  | And (a, b) | Or (a, b) | Implies (a, b) ->
      classify b (classify a (elems, sets))
  | Exists (x, a) | Forall (x, a) -> classify a (Svars.add x elems, sets)
  | Exists_set (x, a) | Forall_set (x, a) ->
      classify a (elems, Svars.add x sets)

let minimize_threshold = 220

(* The partial results of connectives and quantifiers arrive here already
   reduced: products and determinizations build only reachable states.
   The counter sums their sizes before minimization. *)
let tidy auto =
  Obs.add c_states (Dta.nstates auto);
  if Dta.nstates auto <= minimize_threshold then Dta.minimize auto else auto

(* An automaton paired with the sorted list of variables its alphabet's
   pebble bits stand for (bit i = i-th variable in the list). *)
type partial = { dta : Dta.t; fv : string list }

let compile ~base ~free phi =
  Obs.time t_compile @@ fun () ->
  let phi = alpha_rename phi in
  let declared = Svars.of_list free in
  if Svars.cardinal declared <> List.length free then
    invalid_arg "Mso_compile.compile: duplicate free variable";
  let actual_free =
    Svars.of_list (Mso.free_elem_vars phi @ Mso.free_set_vars phi)
  in
  if not (Svars.subset actual_free declared) then
    invalid_arg "Mso_compile.compile: formula has undeclared free variables";
  let nbase = Array.length base in
  let alpha_for fv = Alphabet.make ~base_size:nbase ~bits:(List.length fv) in
  let pos fv v =
    let rec go i = function
      | [] -> invalid_arg ("Mso_compile: variable not in scope: " ^ v)
      | w :: _ when w = v -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 fv
  in
  let letter_of name =
    let rec go i =
      if i = nbase then raise (Unsupported ("unknown letter predicate " ^ name))
      else if base.(i) = name then i
      else go (i + 1)
    in
    go 0
  in
  let elem_vars, _set_vars = classify phi (Svars.empty, Svars.empty) in
  (* Lift an automaton over [a.fv] to an automaton over the sorted union of
     [a.fv] and [vars], inserting one pebble bit per missing variable. *)
  let cylindrify a vars =
    let target = List.sort_uniq compare (vars @ a.fv) in
    let lift acc v =
      if List.mem v acc.fv then acc
      else begin
        let fv' = List.sort compare (v :: acc.fv) in
        let p = pos fv' v in
        let big = alpha_for fv' in
        let dta =
          Dta.make ~nstates:(Dta.nstates acc.dta) ~nlabels:(Alphabet.size big)
            ~final:(Dta.is_final acc.dta)
            (fun ql qr l -> Dta.delta acc.dta ql qr (Alphabet.drop_bit big p l))
        in
        { dta; fv = fv' }
      end
    in
    List.fold_left lift a target
  in
  (* Singleton-validity automaton for the free element variables of a
     partial result — re-imposed after complementation. *)
  let valid_of a =
    let alpha = alpha_for a.fv in
    List.fold_left
      (fun acc v ->
        if Svars.mem v elem_vars then
          Dta.product acc (sing alpha (pos a.fv v)) ~final:( && )
        else acc)
      (Dta.accept_all ~nlabels:(Alphabet.size alpha))
      a.fv
  in
  let binary a b ~final =
    let a = cylindrify a b.fv in
    let b = cylindrify b a.fv in
    { dta = tidy (Dta.product a.dta b.dta ~final); fv = a.fv }
  in
  let quantify ~elem x body =
    if not (List.mem x body.fv) then body
      (* x does not occur: Ex.a = a (tree universes are non-empty). *)
    else begin
      let alpha = alpha_for body.fv in
      let p = pos body.fv x in
      let dta =
        if elem then Dta.product body.dta (sing alpha p) ~final:( && )
        else body.dta
      in
      let nta = Nta.project dta ~alpha ~bit:p in
      { dta = tidy (Nta.determinize nta); fv = List.filter (( <> ) x) body.fv }
    end
  in
  let rec go (phi : Mso.t) : partial =
    match phi with
    | True ->
        { dta = Dta.accept_all ~nlabels:(Alphabet.size (alpha_for [])); fv = [] }
    | False ->
        { dta = Dta.accept_none ~nlabels:(Alphabet.size (alpha_for [])); fv = [] }
    | Atom ("S1", [ x; y ]) | Atom ("S2", [ x; y ])
    | Atom ("Leq", [ x; y ]) | Atom ("Child", [ x; y ])
    | Atom ("Desc", [ x; y ]) | Eq (x, y) | In (x, y) ->
        let fv = List.sort_uniq compare [ x; y ] in
        let alpha = alpha_for fv in
        let i = pos fv x and j = pos fv y in
        let dta =
          match phi with
          | Atom ("S1", _) -> child_atom alpha ~left:true i j
          | Atom ("S2", _) -> child_atom alpha ~left:false i j
          | Atom ("Leq", _) -> leq_atom alpha i j
          | Atom ("Child", _) -> unranked_atom alpha ~child:true i j
          | Atom ("Desc", _) -> unranked_atom alpha ~child:false i j
          | Eq _ -> eq_atom alpha i j
          | In _ -> in_atom alpha i j
          | _ -> assert false
        in
        { dta; fv }
    | Atom (name, [ x ]) ->
        let fv = [ x ] in
        { dta = label_atom (alpha_for fv) 0 (letter_of name); fv }
    | Atom (name, _) ->
        raise (Unsupported ("atom with unexpected arity: " ^ name))
    | And (a, b) -> binary (go a) (go b) ~final:( && )
    | Or (a, b) -> binary (go a) (go b) ~final:( || )
    | Implies (a, b) -> go (Or (Not a, b))
    | Not a ->
        let a = go a in
        {
          dta = tidy (Dta.product (Dta.complement a.dta) (valid_of a) ~final:( && ));
          fv = a.fv;
        }
    | Exists (x, a) -> quantify ~elem:true x (go a)
    | Exists_set (x, a) -> quantify ~elem:false x (go a)
    | Forall (x, a) -> go (Not (Exists (x, Not a)))
    | Forall_set (x, a) -> go (Not (Exists_set (x, Not a)))
  in
  let result = cylindrify (go phi) free in
  (* result.fv is the declared free set in sorted order; permute pebble bits
     so that bit i corresponds to free.(i), the caller's order. *)
  let k = List.length free in
  let sorted = result.fv in
  let alpha = Alphabet.make ~base_size:nbase ~bits:k in
  let to_internal l =
    let b = Alphabet.base alpha l in
    let m = ref 0 in
    List.iteri
      (fun i v ->
        if Alphabet.bit alpha l i then m := !m lor (1 lsl pos sorted v))
      free;
    Alphabet.encode alpha ~base:b ~mask:!m
  in
  let auto =
    if free = sorted then result.dta
    else
      Dta.make ~nstates:(Dta.nstates result.dta) ~nlabels:(Alphabet.size alpha)
        ~final:(Dta.is_final result.dta)
        (fun ql qr l -> Dta.delta result.dta ql qr (to_internal l))
  in
  { auto; alpha; base; free_bits = List.mapi (fun i v -> (v, i)) free }

let accepts t tree ~elems ~sets =
  let bit v =
    match List.assoc_opt v t.free_bits with
    | Some i -> i
    | None -> invalid_arg ("Mso_compile.accepts: not a free variable: " ^ v)
  in
  let missing =
    List.filter
      (fun (v, _) ->
        (not (List.mem_assoc v elems)) && not (List.mem_assoc v sets))
      t.free_bits
  in
  if missing <> [] then
    invalid_arg "Mso_compile.accepts: unassigned free variable";
  let pebbles =
    List.map (fun (v, node) -> (bit v, node)) elems
    @ List.concat_map
        (fun (v, nodes) -> List.map (fun node -> (bit v, node)) nodes)
        sets
  in
  Dta.accepts t.auto tree ~label_of:(Alphabet.labeler t.alpha tree pebbles)

let size_report t =
  Printf.sprintf "states=%d labels=%d" (Dta.nstates t.auto)
    (Alphabet.size t.alpha)
