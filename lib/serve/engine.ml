(* The request engine behind [wmark serve] (DESIGN.md 5.11).

   [handle] decodes one frame payload, dispatches it against the store,
   and encodes the response.  [Batch] frames go through the scheduler:
   maximal runs of consecutive read-only sub-requests execute
   concurrently on the {!Wm_par.Pool} (each against the last published
   dataset version, their inner operations running inline), writers
   run sequentially in arrival order.  Because readers are pure
   functions of a published version and writers publish atomically, the
   response list is byte-identical at every job count — the property
   test/test_serve.ml pins.

   Determinism rule for responses: no timings, no absolute paths the
   client did not supply, no iteration order of any hash table.  All
   measurement goes through wm_obs (counters and per-endpoint latency
   histograms), surfaced by [stats] and the CLI's [--stats]/[--trace-json]
   reporting, never through response fields. *)

module Obs = Wm_obs.Obs
module Pool = Wm_par.Pool

let c_requests = Obs.counter "serve.requests"
let c_errors = Obs.counter "serve.errors"
let c_batches = Obs.counter "serve.batches"
let c_batched_reads = Obs.counter "serve.batched_reads"

(* One latency histogram per endpoint, created eagerly so the stats
   report lists every op from the start. *)
let op_names =
  [
    "ping"; "stats"; "shutdown"; "info"; "put"; "gen"; "load"; "snapshot";
    "prepare"; "mark"; "detect"; "setw"; "update"; "protect"; "audit";
    "repair"; "fingerprint"; "trace"; "batch"; "invalid";
  ]

let histos =
  List.map (fun op -> (op, Obs.histo ("serve.lat." ^ op))) op_names

let histo_of op =
  match List.assoc_opt op histos with
  | Some h -> h
  | None -> List.assoc "invalid" histos

type t = { store : Store.t; mutable stopped : bool }

let create ?dir () = { store = Store.create ?dir (); stopped = false }
let store t = t.store
let stopped t = t.stopped

(* --- small codecs --------------------------------------------------- *)

let bits_of_string s =
  let v = Bitvec.create (String.length s) in
  String.iteri (fun i c -> Bitvec.set v i (c = '1')) s;
  v

let string_of_bits v =
  String.init (Bitvec.length v) (fun i -> if Bitvec.get v i then '1' else '0')

let itoa = string_of_int
let ftoa = Printf.sprintf "%.6f"

(* --- query systems --------------------------------------------------- *)

(* The identity query on weight-arity-1 structures: every element is its
   own parameter and its own (singleton) result set.  The compiled FO
   evaluator would answer "u = v" with one candidate per parameter too
   (DESIGN.md 5.15); building the sets directly also skips its
   per-parameter environment and formula check, which is what E25
   measures at a million elements (Remark 1's escape hatch). *)
let identity_query =
  lazy (Parser.query_of_string ~params:[ "u" ] ~results:[ "v" ] "u = v")

let identity_qs n =
  Query_system.of_custom
    ~params:(List.init n Tuple.singleton)
    ~result_set:(fun p -> Tuple.Set.singleton p)
    ~weight_arity:1

let resolve_query (ds : Store.dataset) = function
  | Protocol.Identity ->
      if Weighted.arity ds.base.Weighted.weights <> 1 then
        Error "identity query requires weight arity 1"
      else
        Ok
          ( identity_qs (Structure.size ds.base.Weighted.graph),
            Lazy.force identity_query,
            "@identity" )
  | Protocol.Fo { params; results; formula } -> (
      if params = [] || results = [] then
        Error "fo query: params and results must be nonempty"
      else
        let g = ds.base.Weighted.graph in
        match Parser.query_of_string ~params ~results formula with
        | exception Parser.Error m -> Error ("fo query: " ^ m)
        | q -> (
            match Fo.schema_error (Structure.schema g) q.Query.phi with
            | Some m -> Error ("fo query: " ^ m)
            | None ->
                Ok
                  ( Query_system.of_relational g q,
                    q,
                    Protocol.string_of_qspec
                      (Protocol.Fo { params; results; formula }) )))

(* --- endpoint helpers ------------------------------------------------ *)

let ok = Protocol.ok_payload
let err m = Protocol.err_payload m

let with_dataset t id f =
  match Store.get t.store id with
  | None -> err (Printf.sprintf "unknown dataset %S" id)
  | Some ds -> f ds

let with_prep (ds : Store.dataset) f =
  match ds.prep with
  | None -> err (Printf.sprintf "dataset %S has no prepared scheme" ds.id)
  | Some prep -> f prep

let with_capsule (ds : Store.dataset) f =
  match ds.cap with
  | None -> err (Printf.sprintf "dataset %S is not protected" ds.id)
  | Some (opts, cap) -> f opts cap

let dataset_fields (ds : Store.dataset) =
  [
    ("size", itoa (Structure.size ds.base.Weighted.graph));
    ("weight_arity", itoa (Weighted.arity ds.base.Weighted.weights));
    ("components", itoa (Shard.ncomps ds.plan));
  ]

let put_structure t ~op id ws =
  let ds = Store.of_structure id ws in
  match Store.put t.store ds with
  | Error m -> err m
  | Ok () -> ok op (dataset_fields ds)

(* --- dispatch -------------------------------------------------------- *)

let rec dispatch t (req : Protocol.req) =
  match req with
  | Ping -> ok "ping" []
  | Stats -> ok "stats" ~body:(Obs_report.render (Obs.snapshot ())) []
  | Shutdown ->
      t.stopped <- true;
      ok "shutdown" []
  | Info id ->
      with_dataset t id @@ fun ds ->
      let prep_fields =
        match ds.prep with
        | None -> [ ("prepared", "0") ]
        | Some p ->
            let rep = Local_scheme.report p.scheme in
            [
              ("prepared", "1");
              ("query", Textio.escape_name p.qspec);
              ("sharded", if p.sharded then "1" else "0");
              ("capacity", itoa (Local_scheme.capacity p.scheme));
              ("rho", itoa rep.Local_scheme.rho);
              ("ntp", itoa rep.Local_scheme.ntp);
            ]
      in
      let cap_fields =
        match ds.cap with
        | None -> [ ("protected", "0") ]
        | Some (_, cap) ->
            [ ("protected", "1"); ("groups", itoa (Recovery.ngroups cap)) ]
      in
      ok "info" (dataset_fields ds @ prep_fields @ cap_fields)
  | Put (id, body) -> (
      match Textio.of_string_result body with
      | Error e -> err (Textio.error_to_string e)
      | Ok ws -> put_structure t ~op:"put" id ws)
  | Gen { id; n; seed } ->
      put_structure t ~op:"gen" id
        (Wm_workload.Random_struct.regular_rings (Prng.create seed) ~n)
  | Load (id, path) -> (
      match Store.load t.store id ?path () with
      | Error m -> err m
      | Ok _ ->
          with_dataset t id @@ fun ds -> ok "load" (dataset_fields ds))
  | Snapshot (id, path) -> (
      match Store.snapshot t.store id ?path () with
      | Error m -> err m
      | Ok _ -> ok "snapshot" [ ("id", id) ])
  | Prepare { id; seed; rho; epsilon; shard; qspec } ->
      let result =
        Store.update t.store id @@ fun ds ->
        match resolve_query ds qspec with
        | Error m -> Error m
        | Ok (qs, q, qtext) -> (
            let rho =
              match rho with
              | Some r -> r
              | None -> Locality.best_rank q.Query.phi
            in
            let options =
              {
                Local_scheme.default_options with
                seed;
                rho = Some rho;
                epsilon;
              }
            in
            let g = ds.base.Weighted.graph in
            let ix =
              if not shard then Ok None
              else
                Result.map Option.some
                  (Shard.index g ds.gf ds.plan ~rho
                     (Query_system.params qs))
            in
            match ix with
            | Error m -> Error m
            | Ok ix -> (
                match
                  Local_scheme.prepare ~options ~qs ~gf:ds.gf ?ix
                    { Weighted.graph = g; weights = ds.base.Weighted.weights }
                    q
                with
                | Error m -> Error m
                | Ok scheme ->
                    let rep = Local_scheme.report scheme in
                    Ok
                      ( {
                          ds with
                          prep =
                            Some
                              { Store.scheme; query = q; qspec = qtext;
                                sharded = shard };
                        },
                        [
                          ("capacity", itoa (Local_scheme.capacity scheme));
                          ("rho", itoa rep.Local_scheme.rho);
                          ("ntp", itoa rep.Local_scheme.ntp);
                          ("active", itoa rep.Local_scheme.active);
                          ("pairs_available",
                           itoa rep.Local_scheme.pairs_available);
                          ("max_split", itoa rep.Local_scheme.max_split);
                          ("sharded", if shard then "1" else "0");
                        ] )))
      in
      (match result with Error m -> err m | Ok fields -> ok "prepare" fields)
  | Mark (id, bits) ->
      let result =
        Store.update t.store id @@ fun ds ->
        match ds.prep with
        | None -> Error (Printf.sprintf "dataset %S has no prepared scheme" id)
        | Some prep ->
            let message = bits_of_string bits in
            let capacity = Local_scheme.capacity prep.scheme in
            if Bitvec.length message > capacity then
              Error
                (Printf.sprintf "message length %d exceeds capacity %d"
                   (Bitvec.length message) capacity)
            else
              let cur =
                Local_scheme.mark prep.scheme message ds.base.Weighted.weights
              in
              Ok
                ( { ds with cur },
                  [
                    ("length", itoa (Bitvec.length message));
                    ("capacity", itoa capacity);
                  ] )
      in
      (match result with Error m -> err m | Ok fields -> ok "mark" fields)
  | Detect { id; length; shard } ->
      with_dataset t id @@ fun ds ->
      with_prep ds @@ fun prep ->
      let capacity = Local_scheme.capacity prep.scheme in
      if length > capacity then
        err
          (Printf.sprintf "detect length %d exceeds capacity %d" length
             capacity)
      else
        let pairs = Local_scheme.pairs prep.scheme in
        let original = ds.base.Weighted.weights and suspect = ds.cur in
        let verdict =
          if shard then
            Shard.read_weights ds.plan pairs ~original ~suspect ~length
          else Detector.read_weights pairs ~original ~suspect ~length
        in
        ok "detect"
          [
            ("message", string_of_bits verdict.Detector.decoded);
            ("strong", itoa verdict.Detector.strong);
            ("weak", itoa verdict.Detector.weak);
            ("silent", itoa verdict.Detector.silent);
            ("erased", itoa verdict.Detector.erased);
            ("confidence", ftoa verdict.Detector.confidence);
            ("marked", if Detector.is_marked verdict then "1" else "0");
          ]
  | Setw { id; value; elt } ->
      let result =
        Store.update t.store id @@ fun ds ->
        let tup = Array.of_list elt in
        let n = Structure.size ds.base.Weighted.graph in
        if Array.length tup <> Weighted.arity ds.base.Weighted.weights then
          Error "setw: tuple arity differs from weight arity"
        else if not (Array.for_all (fun x -> x >= 0 && x < n) tup) then
          Error "setw: element outside the universe"
        else
          (* Theorem 7: a weights-only update commutes with the mark —
             shift the published weight by the same delta the mark put
             on this tuple, O(log n), no re-preparation. *)
          let delta =
            Weighted.get ds.cur tup - Weighted.get ds.base.Weighted.weights tup
          in
          let base =
            {
              ds.base with
              Weighted.weights = Weighted.set ds.base.Weighted.weights tup value;
            }
          in
          let cur = Weighted.set ds.cur tup (value + delta) in
          Ok
            ( { ds with base; cur },
              [ ("value", itoa value); ("published", itoa (value + delta)) ] )
      in
      (match result with Error m -> err m | Ok fields -> ok "setw" fields)
  | Update (id, body) ->
      let result =
        Store.update t.store id @@ fun ds ->
        match Textio.edits_of_string_result body with
        | Error e -> Error (Textio.error_to_string e)
        | Ok edits -> (
            let g' =
              try Ok (Structure.apply_edits ds.base.Weighted.graph edits)
              with Invalid_argument m | Failure m -> Error m
            in
            match g' with
            | Error m -> Error ("update: " ^ m)
            | Ok (g', dirty) -> (
                let n' = Structure.size g' in
                let base =
                  Weighted.make g'
                    (Weighted.restrict ds.base.Weighted.weights ~size:n')
                in
                let cur = Weighted.restrict ds.cur ~size:n' in
                let gf' = Gaifman.refresh g' ~prev:ds.gf ~dirty in
                let fields =
                  [ ("size", itoa n'); ("dirty", itoa (List.length dirty)) ]
                in
                match ds.prep with
                | None ->
                    Ok
                      ( {
                          ds with
                          base;
                          cur = base.Weighted.weights;
                          gf = gf';
                          plan = Shard.plan gf';
                          cap = None;
                        },
                        fields )
                | Some prep -> (
                    match
                      Local_scheme.update ~old_gf:ds.gf prep.scheme
                        ~old:ds.base base prep.query ~dirty
                    with
                    | Error m -> Error ("update: " ^ m)
                    | Ok scheme' ->
                        (* Theorem 8's dichotomy: a type-preserving edit
                           keeps the published marks readable; otherwise
                           the owner must re-mark. *)
                        let decision =
                          Incremental.update_decision_ix
                            ~old_graph:ds.base.Weighted.graph
                            ~old_index:(Local_scheme.index prep.scheme)
                            ~new_graph:g'
                            ~new_index:(Local_scheme.index scheme')
                        in
                        let type_preserving = decision = `Keep_mark in
                        Ok
                          ( {
                              ds with
                              base;
                              cur =
                                (if type_preserving then cur
                                 else base.Weighted.weights);
                              gf = gf';
                              plan = Shard.plan gf';
                              prep = Some { prep with scheme = scheme' };
                              cap = None;
                            },
                            fields
                            @ [
                                ("capacity",
                                 itoa (Local_scheme.capacity scheme'));
                                ("type_preserving",
                                 if type_preserving then "1" else "0");
                              ] ))))
      in
      (match result with Error m -> err m | Ok fields -> ok "update" fields)
  | Protect { id; key; redundancy; group_size } ->
      let result =
        Store.update t.store id @@ fun ds ->
        let options = { Recovery.key; redundancy; group_size } in
        let cap =
          Recovery.protect ~options
            { Weighted.graph = ds.base.Weighted.graph; weights = ds.cur }
        in
        Ok
          ( { ds with cap = Some (options, cap) },
            [ ("groups", itoa (Recovery.ngroups cap)) ] )
      in
      (match result with Error m -> err m | Ok fields -> ok "protect" fields)
  | Audit id ->
      with_dataset t id @@ fun ds ->
      with_capsule ds @@ fun _ cap ->
      let a =
        Recovery.audit cap
          ~suspect:{ Weighted.graph = ds.base.Weighted.graph; weights = ds.cur }
      in
      ok "audit"
        [
          ("groups", itoa (Array.length a.Recovery.statuses));
          ("intact", itoa a.Recovery.intact);
          ("distorted", itoa a.Recovery.distorted);
          ("erased", itoa a.Recovery.erased);
          ("blind", itoa a.Recovery.blind);
          ("suspicion", ftoa (Detector.suspicion a.Recovery.tamper));
        ]
  | Repair id ->
      let result =
        Store.update t.store id @@ fun ds ->
        match ds.cap with
        | None -> Error (Printf.sprintf "dataset %S is not protected" id)
        | Some (_, cap) ->
            let ws', rep =
              Recovery.repair cap
                ~suspect:
                  { Weighted.graph = ds.base.Weighted.graph; weights = ds.cur }
            in
            let fields =
              [
                ("repaired", itoa rep.Recovery.repaired);
                ("unrepairable", itoa rep.Recovery.unrepairable);
                ("restored_weights", itoa rep.Recovery.restored_weights);
                ("confidence", ftoa rep.Recovery.confidence);
              ]
            in
            (* Only publish repaired weights while they still live in
               the dataset's own universe. *)
            if
              Structure.size ws'.Weighted.graph
              = Structure.size ds.base.Weighted.graph
            then Ok ({ ds with cur = ws'.Weighted.weights }, fields)
            else Ok (ds, fields @ [ ("published", "0") ])
      in
      (match result with Error m -> err m | Ok fields -> ok "repair" fields)
  | Fingerprint { id; master; length; times; prefix; count } -> (
      with_dataset t id @@ fun ds ->
      with_prep ds @@ fun prep ->
      match Fingerprint.of_local ?length ?times ~master prep.scheme with
      | Error m -> err m
      | Ok fp ->
          let w = ds.base.Weighted.weights in
          (* one pool task per copy; the response ships digests, not
             copies — combined digest first, per-recipient lines in the
             body, all independent of the job count *)
          let lines =
            Pool.map_list
              (fun i ->
                let rid = prefix ^ itoa i in
                Printf.sprintf "%s %x" rid
                  (Fingerprint.digest (Fingerprint.mark_for fp rid w)))
              (List.init count Fun.id)
          in
          let combined =
            List.fold_left
              (fun h line ->
                String.fold_left
                  (fun h c -> (h lxor Char.code c) * 0x100000001B3)
                  h line)
              0 lines
            land max_int
          in
          ok "fingerprint"
            [
              ("count", itoa count);
              ("length", itoa (Fingerprint.length fp));
              ("times", itoa (Fingerprint.times fp));
              ("digest", Printf.sprintf "%x" combined);
            ]
            ~body:(String.concat "\n" lines))
  | Trace { id; master; length; times; prefix; count; alpha; suspect } -> (
      with_dataset t id @@ fun ds ->
      with_prep ds @@ fun prep ->
      match Fingerprint.of_local ?length ?times ~master prep.scheme with
      | Error m -> err m
      | Ok fp -> (
          let suspect =
            match suspect with
            | None -> Ok ds.cur
            | Some body -> (
                match Textio.of_string_result body with
                | Error e -> Error (Textio.error_to_string e)
                | Ok ws -> Ok ws.Weighted.weights)
          in
          match suspect with
          | Error m -> err m
          | Ok suspect ->
              let rep =
                Fingerprint.trace ~alpha fp
                  ~original:ds.base.Weighted.weights ~suspect
                  (List.init count (fun i -> prefix ^ itoa i))
              in
              let score_line (s : Fingerprint.score) =
                Printf.sprintf "%s %d %d %.6g %d" s.Fingerprint.rid
                  s.Fingerprint.agreements s.Fingerprint.trials
                  s.Fingerprint.pvalue
                  (if s.Fingerprint.accused then 1 else 0)
              in
              ok "trace"
                [
                  ("candidates", itoa rep.Fingerprint.candidates);
                  ("alpha", Printf.sprintf "%.6g" rep.Fingerprint.alpha);
                  ("threshold", Printf.sprintf "%.6g" rep.Fingerprint.threshold);
                  ("decided", itoa rep.Fingerprint.decided);
                  ("naccused", itoa (List.length rep.Fingerprint.accused));
                  ("accused", String.concat "," rep.Fingerprint.accused);
                ]
                ~body:
                  (String.concat "\n"
                     (List.map score_line rep.Fingerprint.scores))))
  | Batch subs ->
      Obs.incr c_batches;
      let resps = run_batch t subs in
      ok "batch"
        [ ("n", itoa (List.length resps)) ]
        ~body:(String.concat "" (List.map Frame.encode resps))

(* The scheduler: walk the decoded sub-requests in arrival order;
   maximal runs of read-only requests fan out on the pool (inner
   operations single-job — the run owns the pool), writers and malformed
   requests run inline.  Readers see the version published by the last
   preceding writer, exactly as in the sequential order, so the response
   list is independent of the job count. *)
and run_batch t subs =
  let items =
    List.map
      (fun payload ->
        match Protocol.decode_request payload with
        | Ok (Protocol.Batch _) -> Error "batch: nesting not allowed"
        | other -> other)
      subs
  in
  let rec go acc = function
    | [] -> List.rev acc
    | Ok req :: _ as l when Protocol.is_read req ->
        let rec split run = function
          | Ok req :: rest when Protocol.is_read req ->
              split (req :: run) rest
          | rest -> (List.rev run, rest)
        in
        let run, rest = split [] l in
        Obs.add c_batched_reads (List.length run);
        let resps = Pool.map_list (observe t) run in
        go (List.rev_append resps acc) rest
    | Ok req :: rest -> go (observe t req :: acc) rest
    | Error m :: rest ->
        Obs.incr c_errors;
        go (err m :: acc) rest
  in
  go [] items

(* Per-endpoint latency, recorded around the dispatch proper. *)
and observe t req =
  Obs.incr c_requests;
  Obs.observe_span (histo_of (Protocol.op_name req)) @@ fun () ->
  let resp = dispatch t req in
  if String.length resp >= 3 && String.sub resp 0 3 = "err" then
    Obs.incr c_errors;
  resp

let handle t payload =
  match Protocol.decode_request payload with
  | Error m ->
      Obs.incr c_requests;
      Obs.incr c_errors;
      Obs.observe_span (histo_of "invalid") (fun () -> err m)
  | Ok req -> observe t req
