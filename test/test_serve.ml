(* The serving layer (lib/serve): protocol round-trips, scheduler
   determinism across job counts, and the two sharding identities
   (sharded index = unsharded index, sharded detect = unsharded
   detect). *)

open Wm_watermark

module Serve = Wm_serve
module Protocol = Serve.Protocol
module Engine = Serve.Engine
module Shard = Serve.Shard
module Store = Serve.Store

let check = Alcotest.check
let bool = Alcotest.bool
let string = Alcotest.string
let int = Alcotest.int
let _ = (bool, string, int)

let rings n seed =
  Wm_workload.Random_struct.regular_rings (Prng.create seed) ~n

(* --- protocol -------------------------------------------------------- *)

let sample_requests =
  [
    Protocol.Ping;
    Protocol.Stats;
    Protocol.Shutdown;
    Protocol.Info "d1";
    Protocol.Put ("d1", "schema E/2\nsize 3\n");
    Protocol.Gen { id = "g"; n = 30; seed = 7 };
    Protocol.Load ("d1", None);
    Protocol.Load ("d1", Some "/tmp/x.qpwm");
    Protocol.Snapshot ("d1", Some "/tmp/y.qpwm");
    Protocol.Prepare
      {
        id = "d1";
        seed = 5;
        rho = Some 2;
        epsilon = 0.5;
        shard = true;
        qspec = Protocol.Identity;
      };
    Protocol.Prepare
      {
        id = "d1";
        seed = 5;
        rho = None;
        epsilon = 1.0;
        shard = false;
        qspec =
          Protocol.Fo
            {
              params = [ "u" ];
              results = [ "v" ];
              formula = "exists w. E(u,w) & E(w,v)";
            };
      };
    Protocol.Mark ("d1", "10110");
    Protocol.Detect { id = "d1"; length = 5; shard = true };
    Protocol.Setw { id = "d1"; value = 42; elt = [ 3 ] };
    Protocol.Update ("d1", "insert E 0 1\ninsert E 1 0\n");
    Protocol.Protect { id = "d1"; key = 7; redundancy = 2; group_size = 4 };
    Protocol.Audit "d1";
    Protocol.Repair "d1";
    Protocol.Fingerprint
      { id = "d1"; master = 99; length = Some 16; times = None; prefix = "r";
        count = 4 };
    Protocol.Trace
      { id = "d1"; master = 99; length = None; times = Some 3; prefix = "u";
        count = 10; alpha = 0.05; suspect = Some "schema E/2\nsize 3\n" };
    Protocol.Trace
      { id = "d1"; master = 1; length = None; times = None; prefix = "r";
        count = 2; alpha = 0.01; suspect = None };
    Protocol.Batch [ "ping"; "info d1" ];
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match Protocol.decode_request (Protocol.encode_request req) with
      | Error m -> Alcotest.failf "%s: %s" (Protocol.op_name req) m
      | Ok req' ->
          check bool
            (Printf.sprintf "%s round-trips" (Protocol.op_name req))
            true (req = req'))
    sample_requests

let test_request_malformed () =
  List.iter
    (fun payload ->
      match Protocol.decode_request payload with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed request %S" payload)
    [
      "";
      "frobnicate";
      "info";
      "info two ids";
      "info bad/id";
      "info .dotfirst";
      "gen d rings -5 1";
      "gen d trees 10 1";
      "prepare d x - 1.0 1 @identity";
      "prepare d 1 - 1.0 2 @identity";
      "prepare d 1 - 1.0 1 @fo u v";
      "mark d 10a1";
      "mark d";
      "detect d 0 1";
      "detect d 5 yes";
      "setw d 5";
      "protect d 1 0 4";
      "fingerprint d 1 - - r 0";
      "fingerprint d x - - r 4";
      "trace d 1 - - r 5 1.5";
      "trace d 1 - - r 0 0.01";
      "batch 2\nping";
      (* header/body count mismatch *)
    ]

let test_response_roundtrip () =
  let payload =
    Protocol.ok_payload "detect"
      [ ("message", "101"); ("confidence", "1.000000") ]
      ~body:"line1\nline2"
  in
  (match Protocol.decode_response payload with
  | Error m -> Alcotest.fail m
  | Ok r ->
      check bool "ok status" true (r.Protocol.status = `Ok "detect");
      check string "field" "101"
        (Option.get (Protocol.field r "message"));
      check string "body" "line1\nline2" (Option.get r.Protocol.body));
  let nasty = "no such dataset \"x\u{0001}\n%\"" in
  match Protocol.decode_response (Protocol.err_payload nasty) with
  | Error m -> Alcotest.fail m
  | Ok r ->
      check bool "err round-trips control bytes" true
        (r.Protocol.status = `Err nasty)

(* --- engine basics --------------------------------------------------- *)

let send engine req =
  match
    Protocol.decode_response
      (Engine.handle engine (Protocol.encode_request req))
  with
  | Ok r -> r
  | Error m -> Alcotest.failf "undecodable response: %s" m

let send_ok engine req =
  let r = send engine req in
  (match r.Protocol.status with
  | `Ok _ -> ()
  | `Err m -> Alcotest.failf "%s failed: %s" (Protocol.op_name req) m);
  r

let fget r k =
  match Protocol.field r k with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s" k

let setup_engine ~n ~seed () =
  let engine = Engine.create () in
  let _ = send_ok engine (Protocol.Gen { id = "d"; n; seed }) in
  let _ =
    send_ok engine
      (Protocol.Prepare
         {
           id = "d";
           seed = 11;
           rho = Some 1;
           epsilon = 1.0;
           shard = false;
           qspec = Protocol.Identity;
         })
  in
  engine

let test_mark_detect_cycle () =
  let engine = setup_engine ~n:120 ~seed:4 () in
  let _ = send_ok engine (Protocol.Mark ("d", "110100101")) in
  let r =
    send_ok engine (Protocol.Detect { id = "d"; length = 9; shard = false })
  in
  check string "decoded message" "110100101" (fget r "message");
  check string "all strong" "9" (fget r "strong");
  check string "marked verdict" "1" (fget r "marked");
  (* errors come back as err frames, not exceptions *)
  let r = send engine (Protocol.Detect { id = "nope"; length = 1; shard = false }) in
  check bool "unknown dataset is err" true
    (match r.Protocol.status with `Err _ -> true | `Ok _ -> false);
  let r = send engine (Protocol.Mark ("d", String.make 10_000 '1')) in
  check bool "overlong message is err" true
    (match r.Protocol.status with `Err _ -> true | `Ok _ -> false)

let test_setw_propagates_mark () =
  (* Theorem 7: a weights-only update of the original propagates to the
     published copy without disturbing the embedded bits. *)
  let engine = setup_engine ~n:90 ~seed:9 () in
  let _ = send_ok engine (Protocol.Mark ("d", "1011")) in
  let before =
    send_ok engine (Protocol.Detect { id = "d"; length = 4; shard = false })
  in
  let r = send_ok engine (Protocol.Setw { id = "d"; value = 500; elt = [ 2 ] }) in
  let published = int_of_string (fget r "published") in
  check bool "published keeps the mark delta" true
    (abs (published - 500) <= 1);
  let after =
    send_ok engine (Protocol.Detect { id = "d"; length = 4; shard = false })
  in
  check string "message survives setw" (fget before "message")
    (fget after "message");
  check string "still all strong" (fget before "strong") (fget after "strong")

let test_update_reprepares () =
  let engine = setup_engine ~n:60 ~seed:2 () in
  let _ = send_ok engine (Protocol.Mark ("d", "11")) in
  (* connect the first and last element: changes neighborhood types near
     the new edge, so the incremental re-preparation must run; the
     response says whether Theorem 8 lets the mark survive *)
  let r =
    send_ok engine (Protocol.Update ("d", "insert E 0 59\ninsert E 59 0\n"))
  in
  check string "size unchanged" "60" (fget r "size");
  check bool "dirty set reported" true (int_of_string (fget r "dirty") > 0);
  let tp = fget r "type_preserving" in
  check bool "decision is a flag" true (tp = "0" || tp = "1");
  (* the dataset is still serviceable after the update *)
  let r = send_ok engine (Protocol.Detect { id = "d"; length = 1; shard = false }) in
  check bool "detect still answers" true (String.length (fget r "message") = 1)

(* Fingerprint generation fans onto the pool; responses must be
   byte-identical at every job count, and tracing a planted copy through
   the endpoint must accuse exactly the planted recipient. *)
let test_fingerprint_trace_endpoints () =
  let e1 = setup_engine ~n:300 ~seed:6 () in
  let e2 = setup_engine ~n:300 ~seed:6 () in
  let raw j e req =
    Jobs.with_jobs j @@ fun () -> Engine.handle e (Protocol.encode_request req)
  in
  let fpreq =
    Protocol.Fingerprint
      { id = "d"; master = 7; length = Some 64; times = None; prefix = "r";
        count = 20 }
  in
  check string "fingerprint bytes identical across job counts"
    (raw 1 e1 fpreq) (raw 2 e2 fpreq);
  let r = send_ok e1 fpreq in
  check string "count" "20" (fget r "count");
  check int "one digest line per copy" 20
    (List.length (String.split_on_char '\n' (Option.get r.Protocol.body)));
  (* rebuild the engine's scheme locally (same options, same identity
     query system) to plant a copy for r5 *)
  let ws = rings 300 6 in
  let qs =
    Query_system.of_custom
      ~params:(List.init (Structure.size ws.Weighted.graph) Tuple.singleton)
      ~result_set:(fun p -> Tuple.Set.singleton p)
      ~weight_arity:1
  in
  let q = Parser.query_of_string ~params:[ "u" ] ~results:[ "v" ] "u = v" in
  let options =
    { Local_scheme.default_options with seed = 11; rho = Some 1; epsilon = 1.0 }
  in
  let scheme =
    match Local_scheme.prepare ~options ~qs ws q with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let fp =
    match Fingerprint.of_local ~length:64 ~master:7 scheme with
    | Ok f -> f
    | Error m -> Alcotest.fail m
  in
  let planted =
    Textio.to_string
      { ws with
        Weighted.weights = Fingerprint.mark_for fp "r5" ws.Weighted.weights }
  in
  let treq suspect =
    Protocol.Trace
      { id = "d"; master = 7; length = Some 64; times = None; prefix = "r";
        count = 20; alpha = 0.01; suspect }
  in
  let r = send_ok e1 (treq (Some planted)) in
  check string "accused the planted recipient" "r5" (fget r "accused");
  check string "trace bytes identical across job counts"
    (raw 1 e1 (treq (Some planted)))
    (raw 2 e2 (treq (Some planted)));
  let r = send_ok e1 (treq None) in
  check string "clean current copy accuses nobody" "" (fget r "accused")

let test_snapshot_load_roundtrip () =
  let dir = Filename.temp_file "qpwm_store" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let engine = Engine.create ~dir () in
  let _ = send_ok engine (Protocol.Gen { id = "d"; n = 40; seed = 8 }) in
  let _ = send_ok engine (Protocol.Snapshot ("d", None)) in
  let engine2 = Engine.create ~dir () in
  let r = send_ok engine2 (Protocol.Load ("d", None)) in
  check string "size survives the round-trip" "40" (fget r "size");
  let info = send_ok engine2 (Protocol.Info "d") in
  check string "components survive" (fget (send_ok engine (Protocol.Info "d")) "components")
    (fget info "components")

(* --- scheduler determinism ------------------------------------------- *)

(* A deterministic mixed schedule (reads, writers, batches) must produce
   byte-identical response lists whatever the engine's job count.  The
   stats endpoint is excluded (its body is a live measurement table). *)
let schedule g n =
  let req i =
    match Prng.int g 8 with
    | 0 -> Protocol.Ping
    | 1 -> Protocol.Info "d"
    | 2 -> Protocol.Detect { id = "d"; length = 1 + Prng.int g 8; shard = Prng.bool g }
    | 3 ->
        Protocol.Mark
          ("d", String.init (1 + Prng.int g 8) (fun _ -> if Prng.bool g then '1' else '0'))
    | 4 -> Protocol.Setw { id = "d"; value = Prng.int g 1000; elt = [ Prng.int g 100 ] }
    | 5 ->
        Protocol.Batch
          (List.init
             (1 + Prng.int g 6)
             (fun _ ->
               Protocol.encode_request
                 (Protocol.Detect
                    { id = "d"; length = 1 + Prng.int g 8; shard = Prng.bool g })))
    | 6 -> Protocol.Info (if i mod 2 = 0 then "d" else "missing")
    | _ -> Protocol.Detect { id = "missing"; length = 1; shard = false }
  in
  List.init n req

let responses jobs reqs =
  Jobs.with_jobs jobs @@ fun () ->
  let engine = setup_engine ~n:100 ~seed:13 () in
  List.map (fun r -> Engine.handle engine (Protocol.encode_request r)) reqs

let test_schedule_deterministic () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:20 ~name:"jobs=1 vs jobs=2 schedules"
       QCheck.(pair small_nat (int_bound 25))
       (fun (seed, n) ->
         let reqs = schedule (Prng.create (0xD0 + seed)) n in
         responses 1 reqs = responses 2 reqs))

(* --- sharding identities --------------------------------------------- *)

let test_shard_index_equals_unsharded () =
  List.iter
    (fun (n, seed) ->
      let ws = rings n seed in
      let g = ws.Weighted.graph in
      let gf = Gaifman.of_structure g in
      let plan = Shard.plan gf in
      let params = List.init n Tuple.singleton in
      let reference =
        Jobs.with_jobs 1 @@ fun () -> Neighborhood.index g ~rho:1 params
      in
      match
        Jobs.with_jobs 2 @@ fun () -> Shard.index g gf plan ~rho:1 params
      with
      | Error m -> Alcotest.fail m
      | Ok ix ->
          check bool "type maps equal" true
            (Tuple.Map.equal ( = ) reference.Neighborhood.types
               ix.Neighborhood.types);
          check bool "representatives equal" true
            (reference.Neighborhood.representatives
            = ix.Neighborhood.representatives);
          check int "rho" reference.Neighborhood.rho ix.Neighborhood.rho;
          check int "arity" reference.Neighborhood.arity ix.Neighborhood.arity)
    [ (30, 1); (97, 2); (256, 3) ]

let test_shard_index_rejects_wide_params () =
  let ws = rings 30 5 in
  let g = ws.Weighted.graph in
  let gf = Gaifman.of_structure g in
  match Shard.index g gf (Shard.plan gf) ~rho:1 [ Tuple.pair 0 1 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arity-2 parameters must not shard"

let verdicts_equal (a : Detector.verdict) (b : Detector.verdict) =
  Bitvec.equal a.Detector.decoded b.Detector.decoded
  && Bitvec.equal a.Detector.erasure b.Detector.erasure
  && a.Detector.strong = b.Detector.strong
  && a.Detector.weak = b.Detector.weak
  && a.Detector.silent = b.Detector.silent
  && a.Detector.erased = b.Detector.erased
  && a.Detector.confidence = b.Detector.confidence

let test_shard_detect_equals_unsharded () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:30 ~name:"sharded read_weights"
       QCheck.(pair small_nat small_nat)
       (fun (seed, noise) ->
         let n = 80 + (7 * (seed mod 13)) in
         let ws = rings n (seed + 1) in
         let gf = Gaifman.of_structure ws.Weighted.graph in
         let scheme =
           let options =
             { Local_scheme.default_options with rho = Some 1; seed = 3 }
           in
           match
             Local_scheme.prepare ~options ws
               (Parser.query_of_string ~params:[ "u" ] ~results:[ "v" ]
                  "u = v")
           with
           | Ok s -> s
           | Error m -> QCheck.Test.fail_reportf "prepare: %s" m
         in
         let capacity = Local_scheme.capacity scheme in
         let length = 1 + (seed mod capacity) in
         let g = Prng.create (0xAB + seed) in
         let message = Codec.random g length in
         let marked =
           Local_scheme.mark scheme message ws.Weighted.weights
         in
         (* damage a few weights so the carrier classes differ *)
         let suspect =
           List.fold_left
             (fun w _ ->
               Weighted.set_elt w (Prng.int g n) (100 + Prng.int g 900))
             marked
             (List.init (noise mod 8) Fun.id)
         in
         let pairs = Local_scheme.pairs scheme in
         let original = ws.Weighted.weights in
         let reference =
           Jobs.with_jobs 1 @@ fun () ->
           Detector.read_weights pairs ~original ~suspect ~length
         in
         let sharded =
           Jobs.with_jobs 2 @@ fun () ->
           Shard.read_weights (Shard.plan gf) pairs ~original ~suspect
             ~length
         in
         verdicts_equal reference sharded))

let test_engine_sharded_prepare_matches () =
  (* through the full protocol: preparing with shard=1 must report the
     same scheme and decode the same bits as shard=0 *)
  let run shard =
    let engine = Engine.create () in
    let _ = send_ok engine (Protocol.Gen { id = "d"; n = 150; seed = 21 }) in
    let p =
      send_ok engine
        (Protocol.Prepare
           {
             id = "d";
             seed = 11;
             rho = Some 1;
             epsilon = 1.0;
             shard;
             qspec = Protocol.Identity;
           })
    in
    let _ = send_ok engine (Protocol.Mark ("d", "100111010")) in
    let d =
      send_ok engine (Protocol.Detect { id = "d"; length = 9; shard })
    in
    (fget p "capacity", fget p "ntp", fget p "pairs_available", d.Protocol.fields)
  in
  let c0, t0, a0, d0 = run false and c1, t1, a1, d1 = run true in
  check string "capacity" c0 c1;
  check string "ntp" t0 t1;
  check string "pairs_available" a0 a1;
  check bool "detect fields identical" true (d0 = d1)

(* A query over a relation the dataset lacks is an err response, and the
   engine keeps serving. *)
let test_prepare_unknown_relation () =
  let engine = Engine.create () in
  let _ = send_ok engine (Protocol.Gen { id = "d"; n = 40; seed = 3 }) in
  let r =
    send engine
      (Protocol.Prepare
         {
           id = "d";
           seed = 11;
           rho = Some 1;
           epsilon = 1.0;
           shard = false;
           qspec = Protocol.Fo { params = [ "u" ]; results = [ "v" ]; formula = "Nope(u,v)" };
         })
  in
  (match r.Protocol.status with
  | `Err m ->
      check bool "names the relation" true
        (String.starts_with ~prefix:"fo query: unknown relation Nope/2" m)
  | `Ok _ -> Alcotest.fail "prepare over an unknown relation succeeded");
  let _ = send_ok engine Protocol.Ping in
  ()

(* A negative rho decodes (the protocol checks no sign) but the scheme's
   prepare rejects it: an err response, and the engine keeps serving. *)
let test_prepare_negative_rho () =
  let engine = Engine.create () in
  let _ = send_ok engine (Protocol.Gen { id = "d"; n = 40; seed = 3 }) in
  List.iter
    (fun shard ->
      let r =
        send engine
          (Protocol.Prepare
             {
               id = "d";
               seed = 11;
               rho = Some (-1);
               epsilon = 1.0;
               shard;
               qspec = Protocol.Identity;
             })
      in
      check bool
        (Printf.sprintf "shard %b: rho -1 is err" shard)
        true
        (r.Protocol.status = `Err "rho must be nonnegative");
      let _ = send_ok engine Protocol.Ping in
      ())
    [ false; true ]

let suite =
  [
    ("protocol request round-trip", `Quick, test_request_roundtrip);
    ("protocol malformed requests", `Quick, test_request_malformed);
    ("protocol response round-trip", `Quick, test_response_roundtrip);
    ("mark/detect cycle", `Quick, test_mark_detect_cycle);
    ("setw propagates the mark (Thm 7)", `Quick, test_setw_propagates_mark);
    ("structural update re-prepares", `Quick, test_update_reprepares);
    ("fingerprint/trace endpoints", `Quick, test_fingerprint_trace_endpoints);
    ("snapshot/load round-trip", `Quick, test_snapshot_load_roundtrip);
    ("schedule deterministic across jobs", `Quick, test_schedule_deterministic);
    ("sharded index = unsharded", `Quick, test_shard_index_equals_unsharded);
    ("sharded index rejects wide params", `Quick, test_shard_index_rejects_wide_params);
    ("sharded detect = unsharded (qcheck)", `Quick, test_shard_detect_equals_unsharded);
    ("engine sharded prepare matches", `Quick, test_engine_sharded_prepare_matches);
    ("prepare over an unknown relation is err", `Quick, test_prepare_unknown_relation);
    ("prepare with a negative rho is err", `Quick, test_prepare_negative_rho);
  ]
