(* Tests for Wm_watermark.Fingerprint: key derivation, per-recipient
   marking, collusion attacks, traitor tracing with multiple-testing
   correction, and the PRNG stream discipline of coalition cells. *)

open Wm_watermark
open Wm_workload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let raises f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* An identity-query scheme over a ring workload: constant-time result
   sets give enough capacity for production-sized codewords in a test. *)
let identity_qs n =
  Query_system.of_custom
    ~params:(List.init n Tuple.singleton)
    ~result_set:(fun p -> Tuple.Set.singleton p)
    ~weight_arity:1

let identity_query =
  lazy (Parser.query_of_string ~params:[ "u" ] ~results:[ "v" ] "u = v")

let context ?length ?times ?(master = 0xBEEF) ?(seed = 11) ~n () =
  let ws = Random_struct.regular_rings (Prng.create seed) ~n in
  let qs = identity_qs (Structure.size ws.Weighted.graph) in
  match Local_scheme.prepare ~qs ws (Lazy.force identity_query) with
  | Error e -> Alcotest.fail ("prepare: " ^ e)
  | Ok scheme -> (
      match Fingerprint.of_local ?length ?times ~master scheme with
      | Error e -> Alcotest.fail ("fingerprint: " ^ e)
      | Ok t -> (t, ws))

(* --- geometry and key derivation ------------------------------------- *)

let test_geometry_defaults () =
  let t, _ = context ~n:400 () in
  check bool "length <= 128" true (Fingerprint.length t <= 128);
  check int "times odd" 1 (Fingerprint.times t mod 2);
  check bool "fits" true
    (Fingerprint.times t * Fingerprint.length t >= Fingerprint.length t)

let test_geometry_rejects_oversize () =
  let ws = Random_struct.regular_rings (Prng.create 1) ~n:40 in
  let qs = identity_qs (Structure.size ws.Weighted.graph) in
  match Local_scheme.prepare ~qs ws (Lazy.force identity_query) with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      (match Fingerprint.of_local ~length:100_000 ~master:1 scheme with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "oversize codeword accepted");
      (match Fingerprint.of_local ~length:4 ~times:2 ~master:1 scheme with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)

let test_recipient_key_master_dependent () =
  check bool "distinct recipients, distinct keys" true
    (Fingerprint.recipient_key ~master:7 "alice"
    <> Fingerprint.recipient_key ~master:7 "bob");
  check bool "distinct masters, distinct keys" true
    (Fingerprint.recipient_key ~master:7 "alice"
    <> Fingerprint.recipient_key ~master:8 "alice");
  check bool "deterministic" true
    (Fingerprint.recipient_key ~master:7 "alice"
    = Fingerprint.recipient_key ~master:7 "alice");
  check bool "non-negative" true (Fingerprint.recipient_key ~master:7 "x" >= 0)

let prop_distinct_recipients_distinct_marks =
  QCheck.Test.make ~count:50 ~name:"distinct recipients get distinct marks"
    QCheck.(pair small_printable_string small_printable_string)
    (fun (r1, r2) ->
      QCheck.assume (r1 <> r2);
      let t, ws = context ~n:120 () in
      let m1 = Fingerprint.mark_for t r1 ws.Weighted.weights in
      let m2 = Fingerprint.mark_for t r2 ws.Weighted.weights in
      (not (Bitvec.equal (Fingerprint.codeword t r1) (Fingerprint.codeword t r2)))
      && Fingerprint.digest m1 <> Fingerprint.digest m2)

(* --- verify ---------------------------------------------------------- *)

let test_verify_right_and_wrong_key () =
  let t, ws = context ~n:200 () in
  let w = ws.Weighted.weights in
  let marked = Fingerprint.mark_for t "alice" w in
  check bool "right recipient verifies" true
    (Fingerprint.verify t "alice" ~original:w ~suspect:marked);
  check bool "wrong recipient fails" false
    (Fingerprint.verify t "bob" ~original:w ~suspect:marked);
  check bool "unmarked copy fails" false
    (Fingerprint.verify t "alice" ~original:w ~suspect:w)

let prop_wrong_key_fails =
  QCheck.Test.make ~count:40 ~name:"verify under the wrong key fails"
    QCheck.(pair small_printable_string small_printable_string)
    (fun (r1, r2) ->
      QCheck.assume (r1 <> r2);
      let t, ws = context ~n:120 () in
      let w = ws.Weighted.weights in
      let marked = Fingerprint.mark_for t r1 w in
      Fingerprint.verify t r1 ~original:w ~suspect:marked
      && not (Fingerprint.verify t r2 ~original:w ~suspect:marked))

(* --- tracing --------------------------------------------------------- *)

let thousand_rids = List.init 1000 (fun i -> "r" ^ string_of_int i)

(* Coalition of 3 out of 10^3 recipients, majority-vote collusion plus
   independent per-copy laundering noise: tracing must accuse exactly the
   coalition, nobody else. *)
let test_trace_coalition_of_thousand () =
  (* 256-bit codewords: at length 128 a coalition member's per-bit
     agreement of ~3/4 sits too close to the Šidák threshold over 10^3
     candidates; doubling the codeword pushes the miss probability below
     1e-4 so the fixed seed has real margin. *)
  let t, ws = context ~n:900 ~length:256 () in
  let w = ws.Weighted.weights in
  let coalition = [ "r17"; "r421"; "r900" ] in
  let cell_seed = 42 in
  let copies =
    Array.of_list
      (List.mapi
         (fun ci rid ->
           Adversary.apply
             (Adversary.copy_prng ~cell_seed ~copy:ci)
             (Adversary.Uniform_noise { amplitude = 1 })
             ~active:(List.init 900 Tuple.singleton)
             (Fingerprint.mark_for t rid w))
         coalition)
  in
  let colluded =
    Adversary.apply_collusion (Prng.create cell_seed)
      Adversary.Coalition_majority
      ~active:(List.init 900 Tuple.singleton)
      copies
  in
  let rep = Fingerprint.trace t ~original:w ~suspect:colluded thousand_rids in
  check (Alcotest.list Alcotest.string) "accused exactly the coalition"
    coalition rep.Fingerprint.accused;
  check bool "threshold corrected below alpha" true
    (rep.Fingerprint.threshold < rep.Fingerprint.alpha)

let test_trace_single_leaker () =
  let t, ws = context ~n:400 () in
  let w = ws.Weighted.weights in
  let marked = Fingerprint.mark_for t "r421" w in
  let rep = Fingerprint.trace t ~original:w ~suspect:marked thousand_rids in
  check (Alcotest.list Alcotest.string) "single leaker accused" [ "r421" ]
    rep.Fingerprint.accused;
  check int "all bits decided" (Fingerprint.length t) rep.Fingerprint.decided

let test_trace_clean_copy_accuses_nobody () =
  let t, ws = context ~n:400 () in
  let w = ws.Weighted.weights in
  let rep = Fingerprint.trace t ~original:w ~suspect:w thousand_rids in
  check (Alcotest.list Alcotest.string) "no accusations" []
    rep.Fingerprint.accused;
  check int "nothing decided" 0 rep.Fingerprint.decided

let test_trace_empty_candidates_rejected () =
  let t, ws = context ~n:120 () in
  let w = ws.Weighted.weights in
  check bool "empty candidate list" true
    (raises (fun () -> Fingerprint.trace t ~original:w ~suspect:w []))

(* --- determinism across job counts ----------------------------------- *)

let test_trace_jobs_invariant () =
  let t, ws = context ~n:400 () in
  let w = ws.Weighted.weights in
  let copies =
    Array.of_list
      (List.map (fun rid -> Fingerprint.mark_for t rid w) [ "r3"; "r7" ])
  in
  let colluded =
    Adversary.apply_collusion (Prng.create 5) Adversary.Coalition_mix
      ~active:(List.init 400 Tuple.singleton)
      copies
  in
  let rep jobs =
    Jobs.with_jobs jobs @@ fun () ->
    Fingerprint.trace t ~original:w ~suspect:colluded thousand_rids
  in
  check bool "jobs 1 = jobs 2" true (rep 1 = rep 2);
  check bool "jobs 1 = jobs 4" true (rep 1 = rep 4)

let test_grid_jobs_invariant () =
  let t, ws = context ~n:200 () in
  let w = ws.Weighted.weights in
  let grid jobs =
    Jobs.with_jobs jobs @@ fun () ->
    Fingerprint.run_grid ~recipients:[ 60 ] ~coalitions:[ 1; 2 ]
      ~attacks:[ Adversary.Coalition_majority; Adversary.Coalition_mix ]
      t w
  in
  let g1 = grid 1 and g2 = grid 2 in
  check bool "grid jobs 1 = jobs 2" true (g1 = g2);
  check int "rows" 4 (List.length g1.Fingerprint.rows)

let test_grid_no_collusion_row_clean () =
  let t, ws = context ~n:900 ~length:256 () in
  let w = ws.Weighted.weights in
  let g =
    Fingerprint.run_grid ~recipients:[ 200 ] ~coalitions:[ 1; 3 ]
      ~attacks:[ Adversary.Coalition_majority ] t w
  in
  List.iter
    (fun (o : Fingerprint.outcome) ->
      check int ("no false accusations k=" ^ string_of_int o.Fingerprint.coalition)
        0 o.Fingerprint.false_accusations;
      check bool "traced" true o.Fingerprint.traced)
    g.Fingerprint.rows

(* --- coalition PRNG stream discipline -------------------------------- *)

(* Distinct copies of one cell must be perturbed on distinct, independent
   streams: a shared stream correlates the copies' noise, which cancels
   in weight differences and understates the attack. *)
let test_copy_prng_streams_independent () =
  let draws ~cell_seed ~copy =
    let g = Adversary.copy_prng ~cell_seed ~copy in
    List.init 8 (fun _ -> Prng.int g 1000)
  in
  check bool "same (seed, copy) replays" true
    (draws ~cell_seed:9 ~copy:0 = draws ~cell_seed:9 ~copy:0);
  check bool "copy 0 <> copy 1" true
    (draws ~cell_seed:9 ~copy:0 <> draws ~cell_seed:9 ~copy:1);
  check bool "copy 1 <> copy 2" true
    (draws ~cell_seed:9 ~copy:1 <> draws ~cell_seed:9 ~copy:2);
  check bool "cells differ" true
    (draws ~cell_seed:9 ~copy:0 <> draws ~cell_seed:10 ~copy:0);
  check bool "negative copy rejected" true
    (raises (fun () -> Adversary.copy_prng ~cell_seed:9 ~copy:(-1)))

(* Draw-order regression: Coalition_mix consumes exactly one draw per
   active tuple and nothing else, so the combined copy is a pure function
   of (seed, active order) and stays stable as the module evolves. *)
let test_collusion_draw_order_pinned () =
  let actives = List.init 6 Tuple.singleton in
  let w0 = Weighted.create 1 in
  let copies =
    Array.init 2 (fun c ->
        List.fold_left
          (fun w t -> Weighted.set w t ((10 * (c + 1)) + Tuple.max_elt t))
          w0 actives)
  in
  let mixed =
    Adversary.apply_collusion (Prng.create 77) Adversary.Coalition_mix
      ~active:actives copies
  in
  (* the donor sequence is exactly the first 6 draws of Prng.create 77 *)
  let g = Prng.create 77 in
  List.iteri
    (fun i t ->
      let donor = Prng.int g 2 in
      check int
        ("mix donor for tuple " ^ string_of_int i)
        ((10 * (donor + 1)) + i)
        (Weighted.get mixed t))
    actives;
  (* interleave: shuffle of k elements then one offset draw, then zero
     draws per tuple — each copy donates an exactly balanced share *)
  let inter =
    Adversary.apply_collusion (Prng.create 77) Adversary.Coalition_interleave
      ~active:actives copies
  in
  let donated =
    List.map (fun t -> Weighted.get inter t / 10) actives
  in
  check int "interleave balanced: copy 1 donates half" 3
    (List.length (List.filter (( = ) 1) donated));
  check int "interleave balanced: copy 2 donates half" 3
    (List.length (List.filter (( = ) 2) donated));
  check bool "interleave deterministic" true
    (inter
    = Adversary.apply_collusion (Prng.create 77)
        Adversary.Coalition_interleave ~active:actives copies);
  (* majority draws nothing: k = 1 coalition is the copy itself *)
  check bool "majority of one is identity" true
    (Adversary.apply_collusion (Prng.create 1) Adversary.Coalition_majority
       ~active:actives [| copies.(0) |]
    = copies.(0));
  check bool "empty coalition rejected" true
    (raises (fun () ->
         Adversary.apply_collusion (Prng.create 1)
           Adversary.Coalition_majority ~active:actives [||]))

(* --- corrected thresholds and tie-explicit decoding ------------------ *)

let test_corrections () =
  check bool "bonferroni divides" true
    (Detector.bonferroni ~alpha:0.05 ~tests:10 = 0.005);
  check bool "sidak less conservative" true
    (Detector.sidak ~alpha:0.05 ~tests:10 > Detector.bonferroni ~alpha:0.05 ~tests:10);
  check bool "equal at one test" true
    (abs_float (Detector.sidak ~alpha:0.05 ~tests:1 -. 0.05) < 1e-12);
  check bool "alpha 0 rejected" true
    (raises (fun () -> Detector.sidak ~alpha:0. ~tests:3));
  check bool "tests 0 rejected" true
    (raises (fun () -> Detector.bonferroni ~alpha:0.05 ~tests:0))

let test_majority_decode_opt_ties () =
  (* times 2, bits [1 0; 0 0]: bit 0 splits 1-1 (a tie the biased
     decoder would silently call 0), bit 1 is a clean 0 *)
  let v = Codec.of_bool_list [ true; false; false; false ] in
  (match Codec.majority_decode_opt ~times:2 v with
  | [| None; Some false |] -> ()
  | _ -> Alcotest.fail "tie not surfaced");
  (* interleaved layout: bit i's votes sit at positions t*l + i *)
  let v3 = Codec.of_bool_list [ true; true; false; true; false; false ] in
  (match Codec.majority_decode_opt ~times:3 v3 with
  | [| Some false; Some true |] -> ()
  | _ -> Alcotest.fail "odd majority wrong");
  check bool "bad times rejected" true
    (raises (fun () -> Codec.majority_decode_opt ~times:0 v));
  check bool "length mismatch rejected" true
    (raises (fun () ->
         Codec.majority_decode_opt ~times:3 (Codec.of_bool_list [ true; false ])))

let suite =
  [
    ("geometry defaults", `Quick, test_geometry_defaults);
    ("geometry rejects oversize", `Quick, test_geometry_rejects_oversize);
    ("recipient keys", `Quick, test_recipient_key_master_dependent);
    QCheck_alcotest.to_alcotest prop_distinct_recipients_distinct_marks;
    ("verify right and wrong key", `Quick, test_verify_right_and_wrong_key);
    QCheck_alcotest.to_alcotest prop_wrong_key_fails;
    ("trace coalition of 3 in 1000", `Slow, test_trace_coalition_of_thousand);
    ("trace single leaker", `Slow, test_trace_single_leaker);
    ("trace clean copy", `Slow, test_trace_clean_copy_accuses_nobody);
    ("trace empty candidates", `Quick, test_trace_empty_candidates_rejected);
    ("trace jobs invariant", `Slow, test_trace_jobs_invariant);
    ("grid jobs invariant", `Slow, test_grid_jobs_invariant);
    ("grid no-collusion rows clean", `Slow, test_grid_no_collusion_row_clean);
    ("copy prng streams", `Quick, test_copy_prng_streams_independent);
    ("collusion draw order pinned", `Quick, test_collusion_draw_order_pinned);
    ("corrected thresholds", `Quick, test_corrections);
    ("majority decode ties", `Quick, test_majority_decode_opt_ties);
  ]
