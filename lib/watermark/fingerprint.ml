(* Multi-recipient fingerprinting (see fingerprint.mli).

   Observability: fp.copies counts generated copies, fp.reads carrier
   reads, fp.traces tracing runs, fp.scored candidates scored,
   fp.tail_evals binomial tails evaluated (one per distinct agreement
   count per trace), fp.accused accusations made, fp.cells
   collusion-grid cells; fp.mark / fp.read / fp.trace / fp.grid time
   the corresponding phases. *)

module Obs = Wm_obs.Obs

let c_copies = Obs.counter "fp.copies"
let c_reads = Obs.counter "fp.reads"
let c_traces = Obs.counter "fp.traces"
let c_scored = Obs.counter "fp.scored"
let c_tail_evals = Obs.counter "fp.tail_evals"
let c_accused = Obs.counter "fp.accused"
let c_cells = Obs.counter "fp.cells"
let t_mark = Obs.timer "fp.mark"
let t_read = Obs.timer "fp.read"
let t_trace = Obs.timer "fp.trace"
let t_grid = Obs.timer "fp.grid"
let t_cell = Obs.timer "fp.cell"

type t = {
  embed : Bitvec.t -> Weighted.t -> Weighted.t;
  pairs : Pairing.pair array;  (* the marked prefix: times * length pairs *)
  active : Tuple.t list;
  master : int;
  length : int;
  times : int;
}

let length t = t.length
let times t = t.times
let master t = t.master

(* --- key derivation -------------------------------------------------- *)

(* FNV-1a with the master key mixed in as a prefix (same construction as
   the recovery layer's keyed certificates): without the master key the
   per-recipient keys, and hence the codewords, are unpredictable. *)
let fnv_prime = 0x100000001B3
let fnv_basis = Int64.to_int 0xCBF29CE484222325L (* 64-bit basis mod 2^63 *)

let fnv_string h s =
  let h = ref h in
  String.iter (fun c -> h := (!h lxor Char.code c) * fnv_prime) s;
  !h

let recipient_key ~master rid =
  let h = fnv_string fnv_basis (string_of_int master) in
  let h = (h lxor 0x7C) * fnv_prime in
  fnv_string h rid land max_int

let codeword t rid =
  Codec.random (Prng.create (recipient_key ~master:t.master rid)) t.length

(* --- construction ---------------------------------------------------- *)

let geometry ?length ?times capacity =
  let length = match length with Some l -> l | None -> min 128 capacity in
  if length <= 0 then Error "fingerprint: codeword length must be positive"
  else if length > capacity then
    Error
      (Printf.sprintf "fingerprint: codeword length %d exceeds capacity %d"
         length capacity)
  else
    let times =
      match times with
      | Some r -> r
      | None ->
          let r = capacity / length in
          if r mod 2 = 0 then max 1 (r - 1) else r
    in
    if times < 1 then Error "fingerprint: times must be >= 1"
    else if times * length > capacity then
      Error
        (Printf.sprintf
           "fingerprint: %d x %d carrier bits exceed capacity %d" times
           length capacity)
    else Ok (length, times)

let prefix_pairs n pairs =
  let rec go n acc = function
    | p :: rest when n > 0 -> go (n - 1) (p :: acc) rest
    | _ -> Array.of_list (List.rev acc)
  in
  go n [] pairs

let make ?length ?times ~master ~capacity ~pairs ~active embed =
  match geometry ?length ?times capacity with
  | Error _ as e -> e
  | Ok (length, times) ->
      Ok
        {
          embed;
          pairs = prefix_pairs (times * length) pairs;
          active;
          master;
          length;
          times;
        }

let of_local ?length ?times ~master scheme =
  make ?length ?times ~master
    ~capacity:(Local_scheme.capacity scheme)
    ~pairs:(Local_scheme.pairs scheme)
    ~active:(Query_system.active (Local_scheme.query_system scheme))
    (Local_scheme.mark scheme)

(* Multi_scheme exposes no query system; the union of pair endpoints is
   the carrier-relevant active set. *)
let active_of_pairs pairs =
  Tuple.Set.elements
    (List.fold_left
       (fun acc { Pairing.fst; snd } ->
         Tuple.Set.add fst (Tuple.Set.add snd acc))
       Tuple.Set.empty pairs)

let of_multi ?length ?times ~master scheme =
  let pairs = Multi_scheme.pairs scheme in
  make ?length ?times ~master
    ~capacity:(Multi_scheme.capacity scheme)
    ~pairs ~active:(active_of_pairs pairs)
    (Multi_scheme.mark scheme)

(* --- generation ------------------------------------------------------ *)

let mark_for t rid w =
  Obs.time t_mark @@ fun () ->
  Obs.incr c_copies;
  t.embed (Codec.repeat ~times:t.times (codeword t rid)) w

let digest w =
  let h = ref (fnv_string fnv_basis "qpwm-fp/1") in
  let mix x = h := (!h lxor x) * fnv_prime in
  mix (Weighted.arity w);
  mix (Weighted.default w);
  let arity = Weighted.arity w in
  Weighted.iter_bindings_flat
    (fun buf off v ->
      for i = off to off + arity - 1 do
        mix buf.(i)
      done;
      mix v)
    w;
  !h land max_int

(* --- tracing --------------------------------------------------------- *)

let read t ~original ~suspect =
  Obs.time t_read @@ fun () ->
  Obs.incr c_reads;
  Array.map (Detector.carrier_of_weights ~original ~suspect) t.pairs

(* Per message bit, a tie-explicit majority over the surviving signal
   carriers.  Silent carriers (zero difference — what collusion leaves
   wherever the coalition's codewords split evenly) and erasures abstain
   rather than voting false; a tied or empty vote decides nothing.
   Scoring decided bits, not raw carriers, is what keeps the innocent
   null exactly Binomial(decided, 1/2): the [times] repetitions of one
   message bit are correlated in the suspect, so counting them as
   independent trials would fatten the tail and accuse innocents. *)
let decode t carriers =
  if Array.length carriers <> t.times * t.length then
    invalid_arg "Fingerprint.decode: carrier count mismatch";
  Array.init t.length (fun i ->
      let ones = ref 0 and votes = ref 0 in
      for c = 0 to t.times - 1 do
        match carriers.((c * t.length) + i) with
        | Detector.Cell (bit, (`Strong | `Weak)) ->
            incr votes;
            if bit then incr ones
        | Detector.Cell (_, `Silent) | Detector.Erased -> ()
      done;
      if 2 * !ones > !votes && !votes > 0 then Some true
      else if 2 * !ones < !votes then Some false
      else None)

type score = {
  rid : string;
  agreements : int;
  trials : int;
  pvalue : float;
  accused : bool;
}

type trace_report = {
  candidates : int;
  alpha : float;
  threshold : float;
  decided : int;
  scores : score list;
  accused : string list;
}

(* The decided bits as two masks, decided-and-1 and decided-and-0: a
   candidate's agreement is then popcount (ones & cw) + popcount
   (zeros & ~cw), a few byte operations instead of a per-bit match. *)
let masks t decoded =
  if Array.length decoded <> t.length then
    invalid_arg "Fingerprint.score: decoded length mismatch";
  let ones = Bitvec.create t.length and zeros = Bitvec.create t.length in
  Array.iteri
    (fun i -> function
      | Some true -> Bitvec.set ones i true
      | Some false -> Bitvec.set zeros i true
      | None -> ())
    decoded;
  (ones, zeros)

let decided (ones, zeros) = Bitvec.popcount ones + Bitvec.popcount zeros

let agreements (ones, zeros) cw =
  Bitvec.popcount (Bitvec.inter ones cw) + Bitvec.popcount (Bitvec.diff zeros cw)

let score t decoded rid =
  let m = masks t decoded in
  (agreements m (codeword t rid), decided m)

let trace ?(alpha = 0.01) t ~original ~suspect candidates =
  if candidates = [] then invalid_arg "Fingerprint.trace: no candidates";
  Obs.time t_trace @@ fun () ->
  Obs.incr c_traces;
  let carriers = read t ~original ~suspect in
  let m = masks t (decode t carriers) in
  let decided = decided m in
  let n = List.length candidates in
  let threshold = Detector.sidak ~alpha ~tests:n in
  let agreed =
    Wm_par.Pool.map_list (fun rid -> (rid, agreements m (codeword t rid)))
      candidates
  in
  (* Every candidate is scored over the same [decided] trials, so its
     p-value depends on its agreement count alone: evaluate the tail once
     per distinct count, the same call on the same arguments as a
     per-candidate evaluation. *)
  let tails = Array.make (decided + 1) None in
  let tail a =
    match tails.(a) with
    | Some p -> p
    | None ->
        Obs.incr c_tail_evals;
        let p = Detector.binomial_tail ~trials:decided ~successes:a in
        tails.(a) <- Some p;
        p
  in
  let scores =
    List.map
      (fun (rid, agreements) ->
        let pvalue = tail agreements in
        {
          rid;
          agreements;
          trials = decided;
          pvalue;
          accused = pvalue <= threshold;
        })
      agreed
  in
  Obs.add c_scored n;
  let accused =
    List.filter_map
      (fun (s : score) -> if s.accused then Some s.rid else None)
      scores
  in
  Obs.add c_accused (List.length accused);
  { candidates = n; alpha; threshold; decided; scores; accused }

let verify t rid ~original ~suspect =
  let carriers = read t ~original ~suspect in
  let raw = Bitvec.create (Array.length carriers) in
  Array.iteri
    (fun j c ->
      match c with
      | Detector.Cell (bit, _) -> Bitvec.set raw j bit
      | Detector.Erased -> ())
    carriers;
  let votes = Codec.majority_decode_opt ~times:t.times raw in
  let cw = codeword t rid in
  let ok = ref true in
  Array.iteri
    (fun i v ->
      match v with
      | Some b when b = Bitvec.get cw i -> ()
      | _ -> ok := false)
    votes;
  !ok

(* --- the collusion grid ---------------------------------------------- *)

type outcome = {
  grid_index : int;
  cell_seed : int;
  recipients : int;
  coalition : int;
  attack : string;
  params : string;
  noise : int;
  caught : int;
  false_accusations : int;
  traced : bool;
  accuracy : float;
  threshold : float;
  min_member_p : float;
  min_innocent_p : float;
}

type grid_report = {
  length : int;
  times : int;
  alpha : float;
  rows : outcome list;
}

let attack_tag = function
  | Adversary.Coalition_majority -> "majority"
  | Adversary.Coalition_mix -> "mix"
  | Adversary.Coalition_interleave -> "interleave"

let run_grid ?(seed = 0xF19) ?(alpha = 0.001) ?(noise = 1)
    ?(recipients = [ 1000 ]) ?(coalitions = [ 1; 2; 3 ])
    ?(attacks =
      [
        Adversary.Coalition_majority; Adversary.Coalition_mix;
        Adversary.Coalition_interleave;
      ]) ?(prefix = "r") t w =
  Obs.time t_grid @@ fun () ->
  let cells =
    List.concat_map
      (fun nrec ->
        List.concat_map
          (fun k -> List.map (fun a -> (nrec, k, a)) attacks)
          coalitions)
      recipients
    |> List.mapi (fun index cell -> (index, cell))
  in
  let run_cell (index, (nrec, k, attack)) =
    Obs.incr c_cells;
    (* the cell's grid position is its seed: adding rows to the grid
       never reshuffles earlier ones (the Attack_suite convention) *)
    let cell_seed = (seed * 1_000_003) + (index * 1009) in
    let g = Prng.create cell_seed in
    let rid i = prefix ^ string_of_int i in
    let coalition = Prng.sample g k (Array.init nrec Fun.id) in
    let k = Array.length coalition in
    let copies =
      Array.mapi
        (fun ci ridx ->
          let m = mark_for t (rid ridx) w in
          if noise <= 0 then m
          else
            (* each colluder launders its own copy on its own derived
               stream — shared noise would cancel in weight differences *)
            Adversary.apply
              (Adversary.copy_prng ~cell_seed ~copy:ci)
              (Adversary.Uniform_noise { amplitude = noise })
              ~active:t.active m)
        coalition
    in
    let colluded =
      Adversary.apply_collusion g attack ~active:t.active copies
    in
    let rep =
      trace ~alpha t ~original:w ~suspect:colluded (List.init nrec rid)
    in
    let is_member = Array.make nrec false in
    Array.iter (fun i -> is_member.(i) <- true) coalition;
    let caught = ref 0 and falsely = ref 0 in
    let min_m = ref 1.0 and min_i = ref 1.0 in
    List.iteri
      (fun i (s : score) ->
        if is_member.(i) then begin
          if s.accused then incr caught;
          if s.pvalue < !min_m then min_m := s.pvalue
        end
        else begin
          if s.accused then incr falsely;
          if s.pvalue < !min_i then min_i := s.pvalue
        end)
      rep.scores;
    {
      grid_index = index;
      cell_seed;
      recipients = nrec;
      coalition = k;
      attack = Adversary.describe_collusion attack;
      params =
        Printf.sprintf "collusion:attack=%s,recipients=%d,coalition=%d,noise=%d"
          (attack_tag attack) nrec k noise;
      noise;
      caught = !caught;
      false_accusations = !falsely;
      traced = !caught > 0;
      accuracy = float_of_int !caught /. float_of_int (max 1 k);
      threshold = rep.threshold;
      min_member_p = !min_m;
      min_innocent_p = !min_i;
    }
  in
  let timed_cell ((index, (nrec, k, attack)) as cell) =
    Obs.span
      ~detail:
        (Printf.sprintf "%s N=%d k=%d idx=%d seed=%d"
           (Adversary.describe_collusion attack)
           nrec k index
           ((seed * 1_000_003) + (index * 1009)))
      t_cell
      (fun () -> run_cell cell)
  in
  let rows = Wm_par.Pool.map_list timed_cell cells in
  { length = t.length; times = t.times; alpha; rows }

let render_grid r =
  let t =
    Texttab.create
      [
        "recipients"; "k"; "attack"; "noise"; "caught"; "false"; "accuracy";
        "member p"; "innocent p"; "traced";
      ]
  in
  List.iter
    (fun o ->
      Texttab.addf t "%d|%d|%s|%d|%d/%d|%d|%.2f|%.2g|%.2g|%s" o.recipients
        o.coalition o.attack o.noise o.caught o.coalition o.false_accusations
        o.accuracy o.min_member_p o.min_innocent_p
        (if o.traced then "traced" else "MISSED"))
    r.rows;
  Printf.sprintf "codeword: %d bits x %d copies, alpha %g (Sidak-corrected)\n%s"
    r.length r.times r.alpha (Texttab.render t)

let outcome_to_json o =
  Json.Obj
    [
      ("grid_index", Json.Int o.grid_index);
      ("cell_seed", Json.Int o.cell_seed);
      ("recipients", Json.Int o.recipients);
      ("coalition", Json.Int o.coalition);
      ("attack", Json.String o.attack);
      ("params", Json.String o.params);
      ("noise", Json.Int o.noise);
      ("caught", Json.Int o.caught);
      ("false_accusations", Json.Int o.false_accusations);
      ("traced", Json.Bool o.traced);
      ("accuracy", Json.Float o.accuracy);
      ("threshold", Json.Float o.threshold);
      ("min_member_p", Json.Float o.min_member_p);
      ("min_innocent_p", Json.Float o.min_innocent_p);
    ]

let grid_to_json r =
  Json.Obj
    [
      ("length", Json.Int r.length);
      ("times", Json.Int r.times);
      ("alpha", Json.Float r.alpha);
      ("rows", Json.List (List.map outcome_to_json r.rows));
    ]
