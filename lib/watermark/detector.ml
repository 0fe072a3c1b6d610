(* Observability: how many carriers each read classified, and how the
   classifications split — the per-phase cost the detector contributes to
   an attack-grid cell. *)
module Obs = Wm_obs.Obs

let c_reads = Obs.counter "det.reads"
let c_carriers = Obs.counter "det.carriers"
let c_erased = Obs.counter "det.erased"
let t_read = Obs.timer "det.read"

type tamper = {
  t_groups : int;
  t_intact : int;
  t_distorted : int;
  t_erased : int;
  t_blind : int;
}

type verdict = {
  decoded : Bitvec.t;
  erasure : Bitvec.t;
  strong : int;
  weak : int;
  silent : int;
  erased : int;
  confidence : float;
  tamper : tamper option;
}

let with_tamper v t = { v with tamper = Some t }

let suspicion t =
  if t.t_groups = 0 then 0.
  else float_of_int (t.t_groups - t.t_intact) /. float_of_int t.t_groups

(* What one carrier contributes, computed independently per pair — the
   unit of work the domain pool parallelizes. *)
type carrier = Erased | Cell of bool * [ `Strong | `Weak | `Silent ]

(* The signal class of one pair's weight difference
   d = delta(fst) - delta(snd).  Literal constructors are preallocated,
   so classifying allocates nothing. *)
let cell_of_delta d =
  if d = 2 then Cell (true, `Strong)
  else if d = -2 then Cell (false, `Strong)
  else if d > 0 then Cell (true, `Weak)
  else if d < 0 then Cell (false, `Weak)
  else Cell (false, `Silent)

let classify_carrier ~original ~observed { Pairing.fst; snd } =
  let seen t = Tuple.Map.mem t observed in
  if (not (seen fst)) && not (seen snd) then Erased
  else begin
    let delta t =
      match Tuple.Map.find_opt t observed with
      | Some v -> v - Weighted.get original t
      | None -> 0
    in
    cell_of_delta (delta fst - delta snd)
  end

let carrier_of_weights ~original ~suspect { Pairing.fst; snd } =
  let delta t = Weighted.get suspect t - Weighted.get original t in
  cell_of_delta (delta fst - delta snd)

(* Sequential accumulation of per-carrier classifications, in index
   order — shared by the plain reader and the sharded serving path, so
   both produce the same verdict from the same carrier array by
   construction. *)
let verdict_of_carriers carriers =
  let length = Array.length carriers in
  let decoded = Bitvec.create length in
  let erasure = Bitvec.create length in
  let strong = ref 0 and weak = ref 0 and silent = ref 0 and erased = ref 0 in
  Array.iteri
    (fun i c ->
      match c with
      | Erased ->
          Bitvec.set erasure i true;
          incr erased
      | Cell (bit, kind) -> (
          Bitvec.set decoded i bit;
          match kind with
          | `Strong -> incr strong
          | `Weak -> incr weak
          | `Silent -> incr silent))
    carriers;
  Obs.add c_erased !erased;
  let read_count = length - !erased in
  {
    decoded;
    erasure;
    strong = !strong;
    weak = !weak;
    silent = !silent;
    erased = !erased;
    confidence =
      (if read_count = 0 then 0.
       else float_of_int (!strong + !weak) /. float_of_int read_count);
    tamper = None;
  }

(* First [n] elements, stopping early — [List.filteri] would traverse
   the whole half-million-pair list on every serve request. *)
let take n l =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | _ -> List.rev acc
  in
  go n [] l

let read pairs ~original ~observed ~length =
  let asked = take length pairs in
  if List.length asked < length then
    invalid_arg "Detector.read: length exceeds pair count";
  Obs.time t_read @@ fun () ->
  Obs.incr c_reads;
  Obs.add c_carriers length;
  let carriers =
    (* parallel phase: each carrier is classified on its own; the
       sequential accumulation is in index order, so the verdict is
       bit-identical to the jobs=1 loop *)
    Wm_par.Pool.parallel_map
      (classify_carrier ~original ~observed)
      (Array.of_list asked)
  in
  verdict_of_carriers carriers

let read_weights pairs ~original ~suspect ~length =
  (* Only the first [length] carriers are read, each straight from the
     suspect's weights at its two endpoints — a serving engine answering
     thousands of short detects per second on a scheme with hundreds of
     thousands of pairs must not pay O(capacity) per request. *)
  let asked = take length pairs in
  if List.length asked < length then
    invalid_arg "Detector.read_weights: length exceeds pair count";
  Obs.time t_read @@ fun () ->
  Obs.incr c_reads;
  Obs.add c_carriers length;
  verdict_of_carriers
    (Array.of_list (List.map (carrier_of_weights ~original ~suspect) asked))

(* The schemes' plain decoders: bit i is the sign of carrier i, an
   erasure reading 0.  Only the first [length] pairs are visited. *)
let decode classify pairs ~length =
  let message = Bitvec.create length in
  let rec walk i = function
    | p :: rest when i < length ->
        (match classify p with
        | Cell (bit, _) -> Bitvec.set message i bit
        | Erased -> ());
        walk (i + 1) rest
    | _ -> ()
  in
  walk 0 pairs;
  message

let decode_weights pairs ~original ~suspect ~length =
  decode (carrier_of_weights ~original ~suspect) pairs ~length

let decode_server qs pairs ~original ~server ~length =
  let observed = Query_system.reconstruct qs server in
  decode (classify_carrier ~original ~observed) pairs ~length

(* log C(n,k) via lgamma-free accumulation to stay in float range. *)
let log_choose n k =
  let k = min k (n - k) in
  let acc = ref 0. in
  for i = 1 to k do
    acc := !acc +. log (float_of_int (n - k + i)) -. log (float_of_int i)
  done;
  !acc

let binomial_tail_p ~p ~trials ~successes =
  (* The negated comparison also rejects NaN, which every [<] test lets
     through. *)
  if not (p >= 0. && p <= 1.) then
    invalid_arg "Detector.binomial_tail_p: p must be in [0, 1]";
  if successes <= 0 then 1.
  else if successes > trials then 0.
  else if p = 0. then 0. (* no success is ever drawn *)
  else if p = 1. then 1. (* log (1 - p) = -inf; 0 * -inf = nan at k = trials *)
  else begin
    let lp = log p and lq = log (1. -. p) in
    let total = ref 0. in
    for k = successes to trials do
      total :=
        !total
        +. exp
             (log_choose trials k
             +. (float_of_int k *. lp)
             +. (float_of_int (trials - k) *. lq))
    done;
    min 1. !total
  end

let binomial_tail ~trials ~successes = binomial_tail_p ~p:0.5 ~trials ~successes

let match_pvalue ~expected verdict =
  let n = Bitvec.length expected in
  if n <> Bitvec.length verdict.decoded then
    invalid_arg "Detector.match_pvalue: length mismatch";
  let trials = ref 0 and agree = ref 0 in
  for i = 0 to n - 1 do
    if not (Bitvec.get verdict.erasure i) then begin
      incr trials;
      if Bitvec.get expected i = Bitvec.get verdict.decoded i then incr agree
    end
  done;
  binomial_tail ~trials:!trials ~successes:!agree

(* Multiple-testing corrections.  A sweep that scores n hypotheses at
   per-test level alpha accuses a wrong one with probability up to
   n * alpha; tracing thousands of candidate recipients, or judging every
   cell of an attack grid, must shrink the per-test threshold to keep the
   family-wise error at alpha. *)

let check_correction who ~alpha ~tests =
  if not (alpha > 0. && alpha <= 1.) then
    invalid_arg (who ^ ": alpha must be in (0, 1]");
  if tests < 1 then invalid_arg (who ^ ": tests must be >= 1")

let bonferroni ~alpha ~tests =
  check_correction "Detector.bonferroni" ~alpha ~tests;
  alpha /. float_of_int tests

let sidak ~alpha ~tests =
  check_correction "Detector.sidak" ~alpha ~tests;
  (* 1 - (1 - alpha)^(1/tests), evaluated through log1p/expm1: the
     direct form cancels to exactly 0 once alpha/tests nears the float
     epsilon (alpha = 1e-10 over 10^7 tests), and then nothing is ever
     accused. *)
  -.Float.expm1 (Float.log1p (-.alpha) /. float_of_int tests)

let is_marked ?(alpha = 0.01) verdict =
  let read = verdict.strong + verdict.weak + verdict.silent in
  (* Null hypothesis: no mark.  A pair shows the exact antisymmetric +-2
     signature only if the two weights independently drifted by +-1 in
     opposite directions — probability 2/9 under uniform +-1 noise, 0 for
     an exact copy; 1/4 is a conservative ceiling.  Strong carriers beyond
     what that explains reject the null. *)
  binomial_tail_p ~p:0.25 ~trials:read ~successes:verdict.strong < alpha
