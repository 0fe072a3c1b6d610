(* End-to-end tests of the wmark binary, driven through the shell.  The
   binary sits in the same _build tree as this test; skip gracefully when
   it is missing (e.g. partial builds). *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let _ = (int, bool)

let wmark_path =
  List.find_opt Sys.file_exists
    [ "../bin/wmark.exe"; "_build/default/bin/wmark.exe"; "bin/wmark.exe" ]

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("qpwm_cli_" ^ name)

let run_cli args =
  match wmark_path with
  | None -> None
  | Some bin ->
      let cmd =
        Printf.sprintf "%s %s > %s 2>&1" (Filename.quote bin) args
          (Filename.quote (tmp "out"))
      in
      let code = Sys.command cmd in
      let ic = open_in (tmp "out") in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some (code, text)

let skip_or f =
  match wmark_path with
  | None -> () (* binary not built in this configuration *)
  | Some _ -> f ()

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_cli_relational_cycle () =
  skip_or @@ fun () ->
  let db = tmp "db.txt" and marked = tmp "marked.txt" in
  (match run_cli (Printf.sprintf "gen-travel --travels 25 --transports 60 --seed 5 -o %s" db) with
  | Some (0, _) -> ()
  | Some (c, out) -> Alcotest.fail (Printf.sprintf "gen-travel exit %d: %s" c out)
  | None -> ());
  (match run_cli (Printf.sprintf "mark %s -q \"Route(u,v)\" -m 9 --bits 4 -o %s" db marked) with
  | Some (0, _) -> ()
  | Some (c, out) -> Alcotest.fail (Printf.sprintf "mark exit %d: %s" c out)
  | None -> ());
  match run_cli (Printf.sprintf "detect %s %s -q \"Route(u,v)\" --bits 4" db marked) with
  | Some (0, out) -> check bool "decoded 9" true (contains out "decoded: 9")
  | Some (c, out) -> Alcotest.fail (Printf.sprintf "detect exit %d: %s" c out)
  | None -> ()

let test_cli_info_and_vc () =
  skip_or @@ fun () ->
  let db = tmp "db2.txt" in
  ignore (run_cli (Printf.sprintf "gen-travel --travels 12 --transports 10 --seed 6 -o %s" db));
  (match run_cli (Printf.sprintf "info %s -q \"Route(u,v)\"" db) with
  | Some (0, out) -> check bool "has capacity line" true (contains out "capacity")
  | Some (c, out) -> Alcotest.fail (Printf.sprintf "info exit %d: %s" c out)
  | None -> ());
  match run_cli (Printf.sprintf "vc %s -q \"Route(u,v)\"" db) with
  | Some (0, out) -> check bool "has VC line" true (contains out "VC dimension")
  | Some (c, out) -> Alcotest.fail (Printf.sprintf "vc exit %d: %s" c out)
  | None -> ()

let test_cli_xml_cycle () =
  skip_or @@ fun () ->
  let doc = tmp "school.xml" and marked = tmp "schoolm.xml" in
  ignore (run_cli (Printf.sprintf "gen-school --students 60 --seed 7 -o %s" doc));
  (match
     run_cli
       (Printf.sprintf
          "xml-mark %s -p 'school/student[firstname=$a]/exam' -m 3 --bits 2 -o %s"
          doc marked)
   with
  | Some (0, _) -> ()
  | Some (c, out) -> Alcotest.fail (Printf.sprintf "xml-mark exit %d: %s" c out)
  | None -> ());
  match
    run_cli
      (Printf.sprintf
         "xml-detect %s %s -p 'school/student[firstname=$a]/exam' --bits 2" doc
         marked)
  with
  | Some (0, out) -> check bool "decoded 3" true (contains out "decoded: 3")
  | Some (c, out) -> Alcotest.fail (Printf.sprintf "xml-detect exit %d: %s" c out)
  | None -> ()

let test_cli_bad_input () =
  skip_or @@ fun () ->
  let bogus = tmp "bogus.txt" in
  let oc = open_out bogus in
  output_string oc "not a structure\n";
  close_out oc;
  match run_cli (Printf.sprintf "info %s -q \"Route(u,v)\"" bogus) with
  | Some (code, out) ->
      check bool "nonzero exit" true (code <> 0);
      check bool "diagnostic" true (contains out "wmark:")
  | None -> ()

let test_cli_jobs_zero () =
  skip_or @@ fun () ->
  let db = tmp "db3.txt" in
  ignore (run_cli (Printf.sprintf "gen-travel --travels 12 --transports 10 --seed 6 -o %s" db));
  match run_cli (Printf.sprintf "info %s -q \"Route(u,v)\" --jobs 0" db) with
  | Some (code, out) ->
      check bool "nonzero exit" true (code <> 0);
      check bool "names the bad value" true (contains out "--jobs 0")
  | None -> ()

let test_cli_update () =
  skip_or @@ fun () ->
  let db = tmp "db4.txt" and script = tmp "edits.txt" and out_db = tmp "db4e.txt" in
  ignore (run_cli (Printf.sprintf "gen-travel --travels 20 --transports 50 --seed 5 -o %s" db));
  let oc = open_out script in
  output_string oc "# grow the instance a little\ninsert Route 3 4\nadd fresh\n";
  close_out oc;
  (match
     run_cli
       (Printf.sprintf "update %s --edits %s -q \"Route(u,v)\" -o %s" db script
          out_db)
   with
  | Some (0, out) ->
      check bool "reports a decision" true (contains out "decision");
      check bool "wrote the edited copy" true (Sys.file_exists out_db)
  | Some (c, out) -> Alcotest.fail (Printf.sprintf "update exit %d: %s" c out)
  | None -> ());
  (* a malformed script is a diagnostic, not a crash *)
  let oc = open_out script in
  output_string oc "frobnicate 1 2\n";
  close_out oc;
  match run_cli (Printf.sprintf "update %s --edits %s -q \"Route(u,v)\"" db script) with
  | Some (code, out) ->
      check bool "nonzero exit" true (code <> 0);
      check bool "diagnostic" true (contains out "wmark:")
  | None -> ()

let test_cli_unknown_relation () =
  skip_or @@ fun () ->
  let db = tmp "db5.txt" in
  ignore (run_cli (Printf.sprintf "gen-travel --travels 12 --transports 10 --seed 6 -o %s" db));
  match run_cli (Printf.sprintf "info %s -q \"Nope(u,v)\"" db) with
  | Some (code, out) ->
      check int "exit 1" 1 code;
      check Alcotest.string "names the relation and the schema's arities"
        "wmark: query: unknown relation Nope/2; the schema has Route/2, Timetable/4\n"
        out
  | None -> ()

(* A negative locality rank is the scheme's error, not a silent
   one-type scheme. *)
let test_cli_negative_rho () =
  skip_or @@ fun () ->
  let db = tmp "db6.txt" in
  ignore (run_cli (Printf.sprintf "gen-travel --travels 12 --transports 10 --seed 6 -o %s" db));
  match run_cli (Printf.sprintf "info %s -q \"Route(u,v)\" --rho=-1" db) with
  | Some (code, out) ->
      check int "exit 1" 1 code;
      check Alcotest.string "diagnostic"
        "wmark: prepare: rho must be nonnegative\n" out
  | None -> ()

(* --bits must be positive: a usage error, never an assertion failure
   deeper in the library (or, at 0, an empty decoded message). *)
let test_cli_nonpositive_bits () =
  skip_or @@ fun () ->
  let db = tmp "db7.txt" in
  ignore (run_cli (Printf.sprintf "gen-travel --travels 12 --transports 10 --seed 6 -o %s" db));
  List.iter
    (fun bits ->
      match
        run_cli
          (Printf.sprintf "detect %s %s -q \"Route(u,v)\" --bits=%d" db db bits)
      with
      | Some (code, out) ->
          check bool (Printf.sprintf "--bits=%d: nonzero exit" bits) true (code <> 0);
          check bool
            (Printf.sprintf "--bits=%d: no assertion failure" bits)
            false
            (contains out "Assertion failed");
          check bool
            (Printf.sprintf "--bits=%d: names the option" bits)
            true (contains out "--bits")
      | None -> ())
    [ -3; 0 ]

(* --block below 2 is a usage error on both XML commands: no silent
   clamp, and xml-mark writes no output file. *)
let test_cli_block_below_two () =
  skip_or @@ fun () ->
  let doc = tmp "school8.xml" and marked = tmp "school8m.xml" in
  ignore (run_cli (Printf.sprintf "gen-school --students 60 --seed 7 -o %s" doc));
  let pattern = "-p 'school/student[firstname=$a]/exam'" in
  List.iter
    (fun block ->
      if Sys.file_exists marked then Sys.remove marked;
      (match
         run_cli
           (Printf.sprintf "xml-mark %s %s -m 1 --bits 1 --block=%d -o %s" doc
              pattern block marked)
       with
      | Some (code, out) ->
          check bool (Printf.sprintf "xml-mark --block=%d: nonzero exit" block)
            true (code <> 0);
          check bool
            (Printf.sprintf "xml-mark --block=%d: names the option" block)
            true (contains out "--block");
          check bool
            (Printf.sprintf "xml-mark --block=%d: no output file" block)
            false (Sys.file_exists marked)
      | None -> ());
      match
        run_cli
          (Printf.sprintf "xml-detect %s %s %s --bits 1 --block=%d" doc doc
             pattern block)
      with
      | Some (code, out) ->
          check bool (Printf.sprintf "xml-detect --block=%d: nonzero exit" block)
            true (code <> 0);
          check bool
            (Printf.sprintf "xml-detect --block=%d: no decoded line" block)
            false (contains out "decoded")
      | None -> ())
    [ 0; -4 ]

let suite =
  [
    ("cli relational cycle", `Slow, test_cli_relational_cycle);
    ("cli info and vc", `Slow, test_cli_info_and_vc);
    ("cli xml cycle", `Slow, test_cli_xml_cycle);
    ("cli rejects bad input", `Slow, test_cli_bad_input);
    ("cli rejects --jobs 0", `Slow, test_cli_jobs_zero);
    ("cli update subcommand", `Slow, test_cli_update);
    ("cli rejects an unknown relation", `Slow, test_cli_unknown_relation);
    ("cli rejects a negative rho", `Slow, test_cli_negative_rho);
    ("cli rejects --bits <= 0", `Slow, test_cli_nonpositive_bits);
    ("cli rejects --block < 2", `Slow, test_cli_block_below_two);
  ]
