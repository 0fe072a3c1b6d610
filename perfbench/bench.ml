(* One workload of the qpwm benchmark, in one process.

     bench.exe --workload owner-fo|owner-index|serve-mixed --seed N
               --seconds S [--trace 0|1] [--small] [--corrupt-oracle]
               [--out-dir DIR]

   The seed makes the inputs: the program only ever sees the generated
   Textio text, XML text and request frames.  After set-up (repeated,
   the median reported) and one untimed warm-up pass, passes of the
   workload's script run until [--seconds] have been measured.  Every
   output is checked by an oracle; a wrong output is a failed operation.

   With [--trace 0] nothing is recorded inside the timed passes and the
   end-to-end metrics are printed.  With [--trace 1] traced and untraced
   passes alternate: the traced ones record spans around every layer
   call (see span.ml) and read the library's Obs counters, and the
   per-layer metrics are printed.

   Lines starting with "#" are the human-readable report; the last line
   is one JSON object: correct, attempted, failed, metrics, info, det. *)

open Qpwm

(* -- command line ------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref false
let small = ref false
let corrupt = ref false
let out_dir = ref "."

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME owner-fo | owner-index | serve-mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Int (fun i -> trace := i <> 0), "0|1 per-layer run");
      ("--small", Arg.Set small, " reduced input sizes (self-test)");
      ("--corrupt-oracle", Arg.Set corrupt,
       " expect a wrong message from the first detect of each pass");
      ("--out-dir", Arg.Set_string out_dir, "DIR where spans and stores go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S [--trace 0|1]"

let say fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

(* -- outcome accounting ------------------------------------------------ *)

let timing = ref false (* inside a timed pass or its checks *)
let attempted = ref 0
let failed = ref 0
let unexpected = ref 0

(* [known] marks the one failure the benchmark expects today: a restart
   loses the detection base (the store keeps only published weights).
   It is counted in [failed] like any other; [correct] tolerates it. *)
let expect ?(known = false) what ok =
  if !timing && not ok then begin
    incr failed;
    if not known then incr unexpected;
    if !failed <= 5 then say "FAILED: %s" what
  end

(* -- samples ----------------------------------------------------------- *)

let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 32

let sample name v =
  match Hashtbl.find_opt samples name with
  | Some l -> l := v :: !l
  | None -> Hashtbl.replace samples name (ref [ v ])

let values name =
  match Hashtbl.find_opt samples name with Some l -> List.rev !l | None -> []

let quantile q = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      (* nearest rank *)
      a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* An operation: one call into a layer.  Counted as attempted inside
   timed passes, and recorded as a span when tracing. *)
let op name f =
  if !timing then incr attempted;
  Span.record name f

(* Two clocks.  Wall time is what a user waits for.  CPU time, summed
   over every domain of the process, is the work done: time that other
   tenants of a shared host steal from the process inflates wall time but
   not CPU time. *)
let wall = Unix.gettimeofday
let cpu = Sys.time

(* The calibration loop: fixed, allocation-free work (an in-place sort,
   a pointer chase through a random cycle, hash-table updates) that
   touches no library code and no GC.  Timed between passes, it tracks
   how fast the host runs right now; the gated costs are CPU times
   divided by its CPU time, so a host that slows down under sustained
   load (shared cores, turbo budget) moves them far less than seconds. *)
let cal_n = 1 lsl 16
let cal_template = Array.init cal_n (fun i -> i * 7919 mod 65_521)
let cal_sorted = Array.make cal_n 0

let cal_next =
  let p = Array.init cal_n Fun.id in
  Prng.shuffle (Prng.create 17) p;
  let next = Array.make cal_n 0 in
  Array.iteri (fun i x -> next.(x) <- p.((i + 1) mod cal_n)) p;
  next

let cal_table = Hashtbl.create 8192
let () = for i = 0 to 4095 do Hashtbl.replace cal_table i i done

let calibration () =
  let acc = ref 0 in
  for _ = 1 to 4 do
    Array.blit cal_template 0 cal_sorted 0 cal_n;
    Array.sort compare cal_sorted;
    let x = ref 0 in
    for _ = 1 to 300_000 do x := cal_next.(!x) done;
    for i = 0 to cal_n - 1 do Hashtbl.replace cal_table (i land 4095) i done;
    acc := !acc + !x + cal_sorted.(0)
  done;
  !acc

(* A step the end-to-end metrics report, sampled in timed passes only:
   CPU seconds under [name], wall seconds under [name ^ ".wall"].  With
   [times], the step runs that many times, each one a sample. *)
let step ?(times = 1) name f =
  let once () =
    let w0 = wall () and c0 = cpu () in
    let r = f () in
    if !timing then begin
      sample name (cpu () -. c0);
      sample (name ^ ".wall") (wall () -. w0)
    end;
    r
  in
  for _ = 2 to times do ignore (once ()) done;
  once ()

let ok_or_fail what = function Ok v -> v | Error m -> failwith (what ^ ": " ^ m)

let message tag n =
  let g = Prng.create ((!seed * 7919) + tag) in
  Bitvec.of_bools (Array.init n (fun _ -> Prng.bool g))

(* The oracle's expectation, or a deliberately wrong one. *)
let expected msg =
  if !corrupt && Bitvec.length msg > 0 then begin
    let m = Bitvec.copy msg in
    Bitvec.set m 0 (not (Bitvec.get m 0));
    m
  end
  else msg

(* The family-wise error level of every trace.  Tracing accuses an
   innocent with probability up to alpha by design; at 0.01 one seed in a
   hundred would fail the "exactly the planted recipient" oracle (seed 501
   of owner-index accuses r8388 at p = 3.9e-7, 92 of 128 bits).  The
   planted copy scores p = 2^-128, so it is accused at any level used
   here. *)
let trace_alpha = 1e-6

let bits_text v =
  String.init (Bitvec.length v) (fun i -> if Bitvec.get v i then '1' else '0')

let identity_query = Parser.query_of_string ~params:[ "u" ] ~results:[ "v" ] "u = v"

let identity_qs n =
  Query_system.of_custom
    ~params:(List.init n Tuple.singleton)
    ~result_set:(fun p -> Tuple.Set.singleton p)
    ~weight_arity:1

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec go () =
      match input_line ic with
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
      | _ -> go ()
    in
    go ()
  with _ -> nan

(* Deterministic facts of the run, compared across same-seed runs by
   the self-test. *)
let det : (string * Json.t) list ref = ref []
let set_det k v = det := (k, v) :: List.remove_assoc k !det

(* Per-layer facts reported by the workloads themselves (not spans). *)
let facts : (string * float) list ref = ref []
let fact k v = facts := (k, v) :: List.remove_assoc k !facts

(* -- workload: owner-fo ------------------------------------------------- *)

(* The data owner through the paper's generic evaluators: the travel
   database marked on Route(u,v) via the FO query system (Theorem 3),
   and a bibliography marked through the tree-automaton scheme
   (Theorem 5).  Every pass starts from the text and builds every cache
   cold. *)
let owner_fo () =
  let travels, transports, articles =
    if !small then (60, 200, 40) else (200, 800, 60)
  in
  let rel_text =
    Textio.to_string
      (Random_struct.travel (Prng.create !seed) ~travels ~transports)
  in
  let xml_text =
    Xml.to_string
      (Utree.to_xml (Biblio_xml.generate (Prng.create (!seed + 1)) ~articles ()))
  in
  let q = Random_struct.travel_query in
  let options = { Local_scheme.default_options with seed = !seed } in
  let setup () =
    ignore (op "textio.parse" (fun () -> Textio.of_string rel_text));
    ignore (op "xml.parse" (fun () -> Utree.of_xml (Xml.parse xml_text)))
  in
  let pass () =
    (* relational leg *)
    let ws = op "textio.parse" (fun () -> Textio.of_string rel_text) in
    let g = ws.Weighted.graph in
    let scheme =
      step "prepare" @@ fun () ->
      let qs =
        op "qs.eval" (fun () ->
            let qs = Query_system.of_relational g q in
            Query_system.precompute qs;
            qs)
      in
      let gf = op "gaifman.build" (fun () -> Gaifman.of_structure g) in
      let rho = Locality.best_rank q.Query.phi in
      let ix =
        op "nbh.index" (fun () ->
            Neighborhood.index g ~rho (Query_system.params qs))
      in
      op "pairing.assemble" (fun () ->
          ok_or_fail "prepare" (Local_scheme.prepare ~options ~qs ~gf ~ix ws q))
    in
    let rep = Local_scheme.report scheme in
    let cap = Local_scheme.capacity scheme in
    let msg = message 1 cap in
    let marked =
      op "scheme.mark" (fun () -> Local_scheme.mark scheme msg ws.Weighted.weights)
    in
    let text =
      op "textio.print" (fun () ->
          Textio.to_string { ws with Weighted.weights = marked })
    in
    let suspect = op "textio.parse" (fun () -> Textio.of_string text) in
    let got =
      step ~times:20 "detect" (fun () ->
          op "scheme.detect" (fun () ->
              Local_scheme.detect_weights scheme ~original:ws.Weighted.weights
                ~suspect:suspect.Weighted.weights ~length:cap))
    in
    (* XML leg *)
    let doc = op "xml.parse" (fun () -> Utree.of_xml (Xml.parse xml_text)) in
    let xs =
      step "xml_prepare" (fun () ->
          op "trees.prepare" (fun () ->
              ok_or_fail "prepare_xml" (Pipeline.prepare_xml doc Biblio_xml.pattern)))
    in
    let xcap = Tree_scheme.capacity xs.Pipeline.scheme in
    let xmsg = message 2 xcap in
    let mdoc = op "trees.mark" (fun () -> Pipeline.mark_xml xs ~message:xmsg doc) in
    let mtext = op "xml.print" (fun () -> Xml.to_string (Utree.to_xml mdoc)) in
    let sdoc = op "xml.parse" (fun () -> Utree.of_xml (Xml.parse mtext)) in
    let xgot =
      op "trees.detect" (fun () ->
          Pipeline.detect_xml xs ~original:doc ~suspect:sdoc ~length:xcap)
    in
    set_det "ntp" (Json.Int rep.Local_scheme.ntp);
    set_det "capacity" (Json.Int cap);
    set_det "xml_capacity" (Json.Int xcap);
    fact "nbh.ntp" (float_of_int rep.Local_scheme.ntp);
    fact "pairing.selected_frac"
      (float_of_int rep.Local_scheme.pairs_selected
      /. float_of_int (max 1 rep.Local_scheme.pairs_available));
    (* oracles, outside the timed body *)
    fun () ->
      expect "owner-fo: relational detect returns the message"
        (Bitvec.equal (expected msg) got);
      expect "owner-fo: realized distortion <= ceil(1/eps)"
        (Distortion.global
           (Local_scheme.query_system scheme)
           ws.Weighted.weights marked
        <= rep.Local_scheme.budget);
      expect "owner-fo: XML detect returns the message" (Bitvec.equal xmsg xgot);
      expect "owner-fo: XML distortion <= the certified bound"
        (Distortion.global
           (Tree_scheme.query_system xs.Pipeline.scheme)
           (Utree.weights doc) (Utree.weights mdoc)
        <= (Tree_scheme.report xs.Pipeline.scheme).Tree_scheme.certified_distortion)
  in
  (setup, ignore, pass)

(* -- workload: owner-index ---------------------------------------------- *)

(* A random bounded-degree graph under the identity query (Remark 1's
   O(1) evaluator): neighborhood typing and pairing dominate prepare;
   then a structural edit script through the incremental update, and
   fingerprinted copies with one planted leak traced back. *)
let owner_index () =
  let n, copies, candidates =
    if !small then (2_000, 10, 1_000) else (10_000, 30, 10_000)
  in
  let text =
    Textio.to_string
      (Random_struct.graph (Prng.create !seed) ~n ~max_degree:3 ~edges:(3 * n / 2))
  in
  let ws = ref (Textio.of_string text) in
  let setup () = ws := op "textio.parse" (fun () -> Textio.of_string text) in
  let q = identity_query in
  let options =
    { Local_scheme.default_options with seed = !seed; rho = Some 2; epsilon = 1.0 }
  in
  let g0 = Prng.create (!seed + 3) in
  let leak = Prng.int g0 (candidates - copies) in
  let rid i = "r" ^ string_of_int i in
  let candidate_ids = List.init candidates rid in
  let master = 0xF1D0 + !seed in
  (* a few edge deletions: both directions of the first edge at each of
     four seeded vertices *)
  let edits =
    let gf = Gaifman.of_structure (!ws).Weighted.graph in
    let rec pick acc k =
      if k = 0 then acc
      else
        let v = Prng.int g0 n in
        match Gaifman.neighbors gf v with
        | u :: _ when not (List.mem (min u v, max u v) acc) ->
            pick ((min u v, max u v) :: acc) (k - 1)
        | _ -> pick acc k
    in
    List.concat_map
      (fun (a, b) ->
        [ Structure.Delete_tuple ("E", [| a; b |]);
          Structure.Delete_tuple ("E", [| b; a |]) ])
      (pick [] 4)
  in
  let pass () =
    let ws = !ws in
    let g = ws.Weighted.graph and w = ws.Weighted.weights in
    let scheme, gf =
      step "prepare" @@ fun () ->
      let qs = op "qs.eval" (fun () -> identity_qs (Structure.size g)) in
      let gf = op "gaifman.build" (fun () -> Gaifman.of_structure g) in
      let ix =
        op "nbh.index" (fun () -> Neighborhood.index g ~rho:2 (Query_system.params qs))
      in
      ( op "pairing.assemble" (fun () ->
            ok_or_fail "prepare" (Local_scheme.prepare ~options ~qs ~gf ~ix ws q)),
        gf )
    in
    let rep = Local_scheme.report scheme in
    let cap = Local_scheme.capacity scheme in
    let msg = message 1 cap in
    let marked = op "scheme.mark" (fun () -> Local_scheme.mark scheme msg w) in
    let got =
      step ~times:10 "detect" (fun () ->
          op "scheme.detect" (fun () ->
              Local_scheme.detect_weights scheme ~original:w ~suspect:marked
                ~length:cap))
    in
    let ws', scheme' =
      step "update" (fun () ->
          op "scheme.update" (fun () ->
              let g', dirty = Structure.apply_edits g edits in
              let ws' = { ws with Weighted.graph = g' } in
              ( ws',
                ok_or_fail "update"
                  (Local_scheme.update ~old_gf:gf scheme ~old:ws ws' q ~dirty) )))
    in
    let fpc, planted, digests =
      step "copies" (fun () ->
          op "fp.copies" (fun () ->
              let fpc = ok_or_fail "fingerprint" (Fingerprint.of_local ~master scheme) in
              let planted = Fingerprint.mark_for fpc (rid leak) w in
              let digests =
                Fingerprint.digest planted
                :: List.init (copies - 1) (fun i ->
                       Fingerprint.digest
                         (Fingerprint.mark_for fpc (rid (leak + 1 + i)) w))
              in
              (fpc, planted, digests)))
    in
    let report =
      step "trace" (fun () ->
          op "fp.trace" (fun () ->
              Fingerprint.trace ~alpha:trace_alpha fpc ~original:w ~suspect:planted
                candidate_ids))
    in
    set_det "ntp" (Json.Int rep.Local_scheme.ntp);
    set_det "capacity" (Json.Int cap);
    set_det "fp_length" (Json.Int (Fingerprint.length fpc));
    fact "nbh.ntp" (float_of_int rep.Local_scheme.ntp);
    fact "pairing.selected_frac"
      (float_of_int rep.Local_scheme.pairs_selected
      /. float_of_int (max 1 rep.Local_scheme.pairs_available));
    fact "fp.copies" (float_of_int copies);
    fact "fp.candidates" (float_of_int candidates);
    fun () ->
      expect "owner-index: detect returns the message" (Bitvec.equal (expected msg) got);
      (* the updated scheme still carries a message end to end *)
      let cap' = Local_scheme.capacity scheme' in
      let msg' = message 3 cap' in
      let w' = ws'.Weighted.weights in
      expect "owner-index: detect after update returns the message"
        (cap' > 0
        && Bitvec.equal msg'
             (Local_scheme.detect_weights scheme' ~original:w'
                ~suspect:(Local_scheme.mark scheme' msg' w') ~length:cap'));
      expect "owner-index: copies are distinct, the planted one verifies"
        (List.length (List.sort_uniq compare digests) = copies
        && Fingerprint.verify fpc (rid leak) ~original:w ~suspect:planted);
      expect
        (Printf.sprintf "owner-index: trace accuses exactly %s, not [%s]" (rid leak)
           (String.concat "," report.Fingerprint.accused))
        (report.Fingerprint.accused = [ rid leak ])
  in
  (setup, ignore, pass)

(* -- workload: serve-mixed ---------------------------------------------- *)

type action =
  | Detect_big
  | Batch_detect
  | Info_big
  | Fingerprint_fp
  | Trace_fp
  | Audit_vault
  | Mark_big
  | Setw_big
  | Setw_vault
  | Update_live
  | Repair_vault
  | Restart_archive  (** snapshot -> load -> prepare -> detect *)

(* One round of the mix: 100 frames, 56 reads and 44 writes. *)
let round_counts =
  [
    (Detect_big, "detect", 24); (Batch_detect, "batch", 6); (Info_big, "info", 7);
    (Fingerprint_fp, "fingerprint", 6); (Trace_fp, "trace", 4);
    (Audit_vault, "audit", 6); (Mark_big, "mark", 14); (Setw_big, "setw_big", 8);
    (Setw_vault, "setw_vault", 5); (Update_live, "update", 4);
    (Repair_vault, "repair", 4); (Restart_archive, "restart", 3);
  ]

let serve_mixed () =
  let big_n, fp_n, small_n, fp_copies, trace_candidates =
    if !small then (4_000, 2_000, 400, 8, 200) else (20_000, 2_000, 2_000, 8, 1_000)
  in
  let big_seed = !seed * 4 + 1 and fp_seed = !seed * 4 + 2 in
  let prep_seed = 25 + !seed and master = 0xF1D0 + !seed in
  let g0 = Prng.create (!seed + 5) in
  let leak = "r" ^ string_of_int (Prng.int g0 trace_candidates) in
  let archive_msg = bits_text (message 4 16) in
  (* the client's own copy of the fp dataset, to plant a leaked copy and
     to know every fingerprint digest in advance *)
  let fp_body, planted =
    let ws = Random_struct.regular_rings (Prng.create fp_seed) ~n:fp_n in
    let options =
      { Local_scheme.default_options with seed = prep_seed; rho = Some 1; epsilon = 1.0 }
    in
    let scheme =
      ok_or_fail "client prepare"
        (Local_scheme.prepare ~options ~qs:(identity_qs fp_n) ws identity_query)
    in
    let fpc = ok_or_fail "client fingerprint" (Fingerprint.of_local ~master scheme) in
    let w = ws.Weighted.weights in
    let digests =
      List.init fp_copies (fun i ->
          let rid = "c" ^ string_of_int i in
          Printf.sprintf "%s %x" rid (Fingerprint.digest (Fingerprint.mark_for fpc rid w)))
    in
    let planted =
      Textio.to_string { ws with Weighted.weights = Fingerprint.mark_for fpc leak w }
    in
    (String.concat "\n" digests, planted)
  in
  let store_root = Filename.concat !out_dir (Printf.sprintf "store-%d" (Unix.getpid ())) in
  let nstores = ref 0 in
  let fresh_dir () =
    incr nstores;
    let d = Printf.sprintf "%s-%d" store_root !nstores in
    Unix.mkdir d 0o755;
    d
  in
  let handle eng label req =
    let payload = Serve_protocol.encode_request req in
    let w0 = wall () and c0 = cpu () in
    let resp = op label (fun () -> Serve_engine.handle eng payload) in
    let dt = wall () -. w0 and dc = cpu () -. c0 in
    (Serve_protocol.decode_response resp, dt, dc)
  in
  let prepare id ~shard =
    Serve_protocol.Prepare
      { id; seed = prep_seed; rho = Some 1; epsilon = 1.0; shard;
        qspec = Serve_protocol.Identity }
  in
  let big_msg0 = bits_text (message 5 64) in
  let setup_engine () =
    let eng = Serve_engine.create ~dir:(fresh_dir ()) () in
    let must req =
      let label = "serve.setup." ^ Serve_protocol.op_name req in
      match handle eng label req with
      | Ok ({ Serve_protocol.status = `Ok _; _ } as r), dt, _ -> (r, dt)
      | Ok { Serve_protocol.status = `Err m; _ }, _, _ | Error m, _, _ ->
          failwith ("serve set-up: " ^ Serve_protocol.op_name req ^ ": " ^ m)
    in
    ignore (must (Serve_protocol.Gen { id = "big"; n = big_n; seed = big_seed }));
    let pb, prep_s = must (prepare "big" ~shard:true) in
    sample "setup.prepare_big" prep_s;
    let field k = Option.value ~default:"0" (Serve_protocol.field pb k) in
    set_det "ntp" (Json.Int (int_of_string (field "ntp")));
    set_det "capacity" (Json.Int (int_of_string (field "capacity")));
    fact "nbh.ntp" (float_of_string (field "ntp"));
    fact "pairing.selected_frac"
      (float_of_string (field "capacity")
      /. Float.max 1. (float_of_string (field "pairs_available")));
    ignore (must (Serve_protocol.Mark ("big", big_msg0)));
    ignore (must (Serve_protocol.Gen { id = "fp"; n = fp_n; seed = fp_seed }));
    ignore (must (prepare "fp" ~shard:false));
    List.iteri
      (fun i (id, m) ->
        ignore (must (Serve_protocol.Gen { id; n = small_n; seed = big_seed + 10 + i }));
        ignore (must (prepare id ~shard:(id = "live")));
        ignore (must (Serve_protocol.Mark (id, m))))
      [ ("live", "1010"); ("vault", "1100"); ("archive", archive_msg) ];
    ignore
      (must
         (Serve_protocol.Protect
            { id = "vault"; key = 0x5EC2E7; redundancy = 2; group_size = 4 }));
    eng
  in
  let engine = ref None in
  let setup () = engine := Some (setup_engine ()) in
  let discard () = engine := None in
  (* the round: a seeded shuffle of the fixed counts *)
  let round =
    let a =
      Array.of_list
        (List.concat_map (fun (act, _, k) -> List.init k (fun _ -> act)) round_counts)
    in
    Prng.shuffle (Prng.create (!seed + 7)) a;
    a
  in
  set_det "round_frames"
    (Json.Int
       (Array.fold_left
          (fun acc a -> acc + if a = Restart_archive then 4 else 1)
          0 round));
  set_det "round_mix"
    (Json.Obj (List.map (fun (_, label, k) -> (label, Json.Int k)) round_counts));
  (* client state the oracles need *)
  let gr = Prng.create (!seed + 11) in
  let big_msg = ref big_msg0 and big_clean = ref true in
  let shard = ref false and edge_present = ref false in
  let corrupt_next = ref false in
  let pass () =
    let eng = Option.get !engine in
    let frame ?known ~what req check =
      let read =
        match req with
        | Serve_protocol.Batch subs ->
            List.for_all
              (fun s ->
                match Serve_protocol.decode_request s with
                | Ok r -> Serve_protocol.is_read r
                | Error _ -> false)
              subs
        | r -> Serve_protocol.is_read r
      in
      let opname = Serve_protocol.op_name req in
      let resp, dt, dc = handle eng ("serve." ^ opname) req in
      if !timing then
        sample (if read then "lat.read" else "lat.write") dt;
      let ok =
        match resp with
        | Ok ({ Serve_protocol.status = `Ok _; _ } as r) -> check r
        | Ok { Serve_protocol.status = `Err _; _ } | Error _ -> false
      in
      expect ?known what ok;
      (dt, dc)
    in
    let field r k = Serve_protocol.field r k in
    (* the message of the last mark, unless a setw came after it *)
    let detect_check r =
      (not !big_clean)
      ||
      let want =
        if !corrupt_next then begin
          corrupt_next := false;
          String.mapi (fun i c -> if i > 0 then c else if c = '1' then '0' else '1') !big_msg
        end
        else !big_msg
      in
      field r "message" = Some want && field r "marked" = Some "1"
    in
    let detect_req () =
      shard := not !shard;
      Serve_protocol.Detect { id = "big"; length = 64; shard = !shard }
    in
    corrupt_next := !corrupt;
    Array.iter
      (function
        | Detect_big ->
            let dt, dc =
              frame ~what:"serve: detect after mark returns the message"
                (detect_req ()) detect_check
            in
            if !timing then begin
              sample "detect" dc;
              sample "detect.wall" dt
            end
        | Batch_detect ->
            let subs = List.init 16 (fun _ -> Serve_protocol.encode_request (detect_req ())) in
            ignore
              (frame ~what:"serve: batched detects return the message"
                 (Serve_protocol.Batch subs) (fun r ->
                   let rec go pos acc =
                     match Frame.decode (Option.value ~default:"" r.Serve_protocol.body) ~pos with
                     | Ok (Some (p, next)) -> go next (p :: acc)
                     | _ -> List.rev acc
                   in
                   let resps = go 0 [] in
                   List.length resps = 16
                   && List.for_all
                        (fun p ->
                          match Serve_protocol.decode_response p with
                          | Ok ({ Serve_protocol.status = `Ok _; _ } as r) -> detect_check r
                          | _ -> false)
                        resps))
        | Info_big ->
            ignore
              (frame ~what:"serve: info" (Serve_protocol.Info "big") (fun r ->
                   field r "prepared" = Some "1"))
        | Fingerprint_fp ->
            ignore
              (frame ~what:"serve: fingerprint digests"
                 (Serve_protocol.Fingerprint
                    { id = "fp"; master; length = None; times = None; prefix = "c";
                      count = fp_copies })
                 (fun r -> r.Serve_protocol.body = Some fp_body))
        | Trace_fp ->
            ignore
              (frame ~what:"serve: trace accuses exactly the planted recipient"
                 (Serve_protocol.Trace
                    { id = "fp"; master; length = None; times = None; prefix = "r";
                      count = trace_candidates; alpha = trace_alpha; suspect = Some planted })
                 (fun r -> field r "accused" = Some leak && field r "naccused" = Some "1"))
        | Audit_vault ->
            ignore
              (frame ~what:"serve: audit" (Serve_protocol.Audit "vault") (fun r ->
                   field r "groups" <> Some "0"))
        | Mark_big ->
            let m = String.init 64 (fun _ -> if Prng.bool gr then '1' else '0') in
            ignore
              (frame ~what:"serve: mark" (Serve_protocol.Mark ("big", m)) (fun _ -> true));
            big_msg := m;
            big_clean := true
        | Setw_big ->
            ignore
              (frame ~what:"serve: setw"
                 (Serve_protocol.Setw
                    { id = "big"; value = 100 + Prng.int gr 900; elt = [ Prng.int gr big_n ] })
                 (fun _ -> true));
            big_clean := false
        | Setw_vault ->
            ignore
              (frame ~what:"serve: setw"
                 (Serve_protocol.Setw
                    { id = "vault"; value = 100 + Prng.int gr 900;
                      elt = [ Prng.int gr small_n ] })
                 (fun _ -> true))
        | Update_live ->
            (* toggle one extra edge between two rings *)
            let a = 0 and b = small_n - 1 in
            let verb = if !edge_present then "delete" else "insert" in
            edge_present := not !edge_present;
            ignore
              (frame ~what:"serve: update"
                 (Serve_protocol.Update
                    ( "live",
                      Printf.sprintf "%s E %d %d\n%s E %d %d\n" verb a b verb b a ))
                 (fun r -> field r "dirty" <> None))
        | Repair_vault ->
            ignore
              (frame ~what:"serve: repair" (Serve_protocol.Repair "vault") (fun _ -> true))
        | Restart_archive ->
            ignore
              (frame ~what:"serve: snapshot" (Serve_protocol.Snapshot ("archive", None))
                 (fun _ -> true));
            ignore
              (frame ~what:"serve: load" (Serve_protocol.Load ("archive", None))
                 (fun _ -> true));
            let dt, dc =
              frame ~what:"serve: prepare" (prepare "archive" ~shard:false) (fun r ->
                  field r "capacity" <> Some "0")
            in
            if !timing then begin
              sample "prepare" dc;
              sample "prepare.wall" dt
            end;
            ignore
              (frame ~known:true
                 ~what:"serve: detect after a restart returns the message (known defect)"
                 (Serve_protocol.Detect { id = "archive"; length = 16; shard = false })
                 (fun r ->
                   field r "message" = Some archive_msg && field r "marked" = Some "1")))
      round;
    fun () -> ()
  in
  let cleanup () =
    for i = 1 to !nstores do
      let d = Printf.sprintf "%s-%d" store_root i in
      if Sys.file_exists d then begin
        Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
        Sys.rmdir d
      end
    done
  in
  at_exit cleanup;
  (setup, discard, pass)

(* -- the run ------------------------------------------------------------ *)

let setup_repeats () = if !workload = "serve-mixed" then 3 else 15

(* Obs counters of the traced passes, summed. *)
let obs_counts : (string, float) Hashtbl.t = Hashtbl.create 32

let add_obs (s : Obs.snapshot) =
  let add k v =
    Hashtbl.replace obs_counts k (v +. Option.value ~default:0. (Hashtbl.find_opt obs_counts k))
  in
  List.iter (fun (k, v) -> add k (float_of_int v)) s.Obs.counters;
  List.iter (fun (k, (t : Obs.timer_total)) -> add k t.Obs.seconds) s.Obs.timers

let obs k = Option.value ~default:0. (Hashtbl.find_opt obs_counts k)

let () =
  (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let setup, discard, pass =
    match !workload with
    | "owner-fo" -> owner_fo ()
    | "owner-index" -> owner_index ()
    | "serve-mixed" -> serve_mixed ()
    | w ->
        prerr_endline ("bench: unknown workload " ^ w);
        exit 2
  in
  Obs.set_enabled false;
  Obs.reset ();
  Span.set_enabled !trace;
  (* set-up, several times; the last one's state is kept.  Each set-up
     and each pass starts from a compacted heap, so the GC work inside
     them does not depend on what ran before, and no set-up shares the
     heap with the previous one's state. *)
  for _ = 1 to setup_repeats () do
    discard ();
    Gc.full_major ();
    let w0 = wall () and c0 = cpu () in
    Span.record "bench.setup" setup;
    sample "setup" (cpu () -. c0);
    sample "setup.wall" (wall () -. w0)
  done;
  (* untimed warm-up: spawns the pool and fills lazy state *)
  Span.set_enabled false;
  (pass ()) ();
  let traced_walls = ref [] and plain_walls = ref [] in
  let iso_first = ref None in
  let t_start = wall () in
  let npass = ref 0 in
  (* enough passes for a median; on serve-mixed, enough rounds for
     >= 1000 latency samples in each of the read and write classes *)
  let min_passes = if !workload = "serve-mixed" then 24 else 6 in
  while
    (wall () -. t_start < !seconds || !npass < min_passes)
    && wall () -. t_start < 3. *. Float.max 1. !seconds
  do
    incr npass;
    let traced = !trace && !npass mod 2 = 1 in
    Span.set_enabled traced;
    if traced then begin
      Obs.reset ();
      Obs.set_enabled true
    end;
    Gc.full_major ();
    (let c0 = cpu () in
     ignore (Sys.opaque_identity (calibration ()));
     sample "calibration" (cpu () -. c0));
    timing := true;
    let w0 = wall () and c0 = cpu () in
    let checks = Span.with_rid !npass (fun () -> Span.record "bench.pass" pass) in
    let dt = wall () -. w0 and dc = cpu () -. c0 in
    if traced then begin
      Obs.set_enabled false;
      let s = Obs.snapshot () in
      add_obs s;
      if !iso_first = None then
        iso_first :=
          Some (Option.value ~default:0 (List.assoc_opt "nbh.iso_checks" s.Obs.counters));
      traced_walls := dt :: !traced_walls
    end
    else plain_walls := dt :: !plain_walls;
    Span.set_enabled false;
    sample "pass" dc;
    sample "pass.wall" dt;
    checks ();
    timing := false
  done;
  let npass_all = !npass in
  let ntraced = List.length !traced_walls in
  Option.iter (fun v -> set_det "nbh.iso_checks_first_pass" (Json.Int v)) !iso_first;
  let num x = Json.Float x in
  (* a median with its sample count and quartiles *)
  let med unit l = (unit, median l, List.length l, l) in
  let metric unit v n = (unit, v, n, []) in
  let lat name = values ("lat." ^ name) in
  (* end-to-end, gated: the names BENCHMARK.json lists, on every
     workload.  A cost is a median CPU time in units of the median
     calibration loop of the run. *)
  let cal = median (values "calibration") in
  let cost name = metric "ref" (median (values name) /. cal) (List.length (values name)) in
  let e2e =
    [
      ("setup_s", med "s" (values "setup"));
      ("pass_cost", cost "pass");
      ("prepare_cost", cost "prepare");
      ("detect_cost", cost "detect");
      ("peak_rss_mb", metric "MB" (peak_rss_mb ()) 1);
    ]
  in
  (* reported only: CPU and wall-clock seconds, and the figures only one
     workload has *)
  let ms l = List.map (fun x -> x *. 1000.) l in
  let extra =
    [
      ("calibration_s", med "s" (values "calibration"));
      ("pass_cpu_s", med "s" (values "pass"));
      ("prepare_cpu_s", med "s" (values "prepare"));
      ("detect_cpu_s", med "s" (values "detect"));
      ("setup_wall_s", med "s" (values "setup.wall"));
      ("pass_s", med "s" (values "pass.wall"));
      ("prepare_s", med "s" (values "prepare.wall"));
      ("detect_s", med "s" (values "detect.wall"));
    ]
    @
    match !workload with
    | "owner-fo" ->
        [ ("xml_prepare_s", med "s" (values "xml_prepare.wall")) ]
    | "owner-index" ->
        let c = List.assoc_opt "fp.copies" !facts |> Option.value ~default:1. in
        [
          ("update_s", med "s" (values "update.wall"));
          ("copies_per_s", metric "1/s" (c /. median (values "copies.wall"))
             (List.length (values "copies.wall")));
          ("trace_s", med "s" (values "trace.wall"));
        ]
    | _ ->
        let frames = List.length (lat "read") + List.length (lat "write") in
        let timed = List.fold_left ( +. ) 0. (values "pass.wall") in
        [
          ("throughput_rps", metric "1/s" (float_of_int frames /. timed) frames);
          ("read_p50_ms", metric "ms" (quantile 0.5 (ms (lat "read"))) (List.length (lat "read")));
          ("read_p99_ms", metric "ms" (quantile 0.99 (ms (lat "read"))) (List.length (lat "read")));
          ("write_p50_ms", metric "ms" (quantile 0.5 (ms (lat "write"))) (List.length (lat "write")));
          ("write_p99_ms", metric "ms" (quantile 0.99 (ms (lat "write"))) (List.length (lat "write")));
        ]
  in
  let fail_frac = float_of_int !failed /. float_of_int (max 1 !attempted) in
  (* per-layer, from the traced passes *)
  let spans = Span.all () in
  let in_passes = List.filter (fun (s : Span.t) -> s.Span.rid > 0) spans in
  let selfs = Span.self_times in_passes in
  let self_sum name =
    List.fold_left
      (fun acc ((s : Span.t), st) -> if s.Span.name = name then acc +. st else acc)
      0. selfs
  in
  let per_pass v = if ntraced = 0 then 0. else v /. float_of_int ntraced in
  let durs name =
    List.filter_map
      (fun (s : Span.t) -> if s.Span.name = name then Some (Span.duration s) else None)
      in_passes
  in
  let frac a b = if b <= 0. then 0. else a /. b in
  let pass_total = List.fold_left ( +. ) 0. (durs "bench.pass") in
  let fact_or k = Option.value ~default:0. (List.assoc_opt k !facts) in
  let layer_time =
    List.map
      (fun n -> (n ^ "_s", per_pass (self_sum n)))
      [
        "textio.parse"; "textio.print"; "xml.parse"; "xml.print"; "gaifman.build";
        "nbh.index"; "qs.eval"; "pairing.assemble"; "scheme.mark"; "scheme.detect";
        "scheme.update"; "trees.prepare"; "trees.mark"; "trees.detect"; "fp.trace";
      ]
  in
  let serve_ops =
    [ "detect"; "batch"; "info"; "fingerprint"; "trace"; "audit"; "mark"; "setw";
      "update"; "repair"; "snapshot"; "load"; "prepare" ]
  in
  let serve_layer =
    List.concat_map
      (fun o ->
        let d = ms (durs ("serve." ^ o)) in
        let q p = if d = [] then 0. else quantile p d in
        [
          ("serve." ^ o ^ ".p50_ms", q 0.5);
          ("serve." ^ o ^ ".p99_ms", q 0.99);
          ("serve." ^ o ^ ".count", float_of_int (List.length d));
        ])
      serve_ops
  in
  let copies_s = self_sum "fp.copies" and trace_s = self_sum "fp.trace" in
  let ncopies = fact_or "fp.copies" *. float_of_int ntraced in
  let per_layer =
    layer_time
    @ [
        ("fp.copy_ms", if ncopies = 0. then 0. else copies_s *. 1000. /. ncopies);
        ("fp.candidates_per_s",
         frac (fact_or "fp.candidates" *. float_of_int ntraced) trace_s);
        ("qs.evals", per_pass (obs "qs.misses"));
        ("nbh.iso_checks", per_pass (obs "nbh.iso_checks"));
        ("nbh.iso_avoided_frac",
         frac (obs "nbh.iso_avoided") (obs "nbh.iso_avoided" +. obs "nbh.iso_checks"));
        ("nbh.sphere_cache_hit_frac",
         frac (obs "nbh.sphere_cache_hits") (obs "nbh.sphere_cache_hits" +. obs "nbh.spheres"));
        ("nbh.ntp", fact_or "nbh.ntp");
        ("nbh.reindex_affected", per_pass (obs "nbh.reindex.affected_tuples"));
        ("nbh.reindex_fallbacks", per_pass (obs "nbh.reindex.threshold_fallbacks"));
        ("pairing.selected_frac", fact_or "pairing.selected_frac");
        ("serve.setup.prepare_s", if !workload = "serve-mixed" then median (values "setup.prepare_big") else 0.);
      ]
    @ serve_layer
    @ [
        ("par.domains", float_of_int (Par.pool_size ()));
        ("par.tasks", per_pass (obs "pool.tasks_enqueued"));
        ("par.tasks_helped_frac", frac (obs "pool.tasks_helped") (obs "pool.tasks_enqueued"));
        ("par.batch_wait_s", per_pass (obs "pool.batch_wait"));
        ("unattributed_frac", frac (self_sum "bench.pass") pass_total);
        ("trace_overhead_frac",
         if !plain_walls = [] || !traced_walls = [] then 0.
         else median !traced_walls /. median !plain_walls -. 1.);
      ]
  in
  let unit_of k =
    let ends suf = String.ends_with ~suffix:suf k in
    if ends "_per_s" then "1/s"
    else if ends "_ms" then "ms"
    else if ends "_s" then "s"
    else if ends "_frac" then "fraction"
    else "count"
  in
  (* report *)
  say "workload %s seed %d: %d passes (%d traced), %d ops, %d failed" !workload !seed
    npass_all ntraced !attempted !failed;
  if not !trace then begin
    List.iter
      (fun (k, (u, v, n, l)) ->
        if l = [] then say "metric %-16s %14.6f %-5s n=%d" k v u n
        else
          say "metric %-16s %14.6f %-5s n=%d q1=%.6f q3=%.6f" k v u n
            (quantile 0.25 l) (quantile 0.75 l))
      (e2e @ extra);
    say "metric %-16s %14.6f %-5s n=%d" "fail_frac" fail_frac "fraction" !attempted
  end
  else begin
    List.iter (fun (k, v) -> say "layer %-28s %14.6f %s" k v (unit_of k)) per_layer;
    (* self time per layer, per traced pass, and its share of pass wall *)
    let by_layer = Hashtbl.create 16 in
    List.iter
      (fun ((s : Span.t), st) ->
        let l = Span.layer s.Span.name in
        Hashtbl.replace by_layer l
          (st +. Option.value ~default:0. (Hashtbl.find_opt by_layer l)))
      selfs;
    List.iter
      (fun (l, st) ->
        say "self %-8s %12.6f s/pass %6.2f%%" l (per_pass st) (100. *. frac st pass_total))
      (List.sort compare (Hashtbl.fold (fun l st acc -> (l, st) :: acc) by_layer []));
    let path =
      Filename.concat !out_dir (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed)
    in
    Span.write_jsonl path;
    say "spans written to %s" path
  end;
  let metrics =
    if !trace then
      List.map
        (fun (k, v) ->
          (k, Json.Obj [ ("value", num v); ("unit", Json.String (unit_of k)); ("n", Json.Int ntraced) ]))
        per_layer
    else
      List.map
        (fun (k, (u, v, n, _)) ->
          (k, Json.Obj [ ("value", num v); ("unit", Json.String u); ("n", Json.Int n) ]))
        (e2e @ extra @ [ ("fail_frac", metric "fraction" fail_frac !attempted) ])
  in
  print_endline
    (Json.to_string ~pretty:false
       (Json.Obj
          [
            ("correct", Json.Bool (!unexpected = 0));
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics", Json.Obj metrics);
            ( "info",
              Json.Obj
                [
                  ("workload", Json.String !workload);
                  ("seed", Json.Int !seed);
                  ("passes", Json.Int npass_all);
                  ("traced_passes", Json.Int ntraced);
                  ("jobs", Json.Int (Par.jobs ()));
                  ("pool_size", Json.Int (Par.pool_size ()));
                  ("ocaml", Json.String Sys.ocaml_version);
                ] );
            ("det", Json.Obj (List.rev !det));
          ]))
