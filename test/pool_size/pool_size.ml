(* Run with WMARK_JOBS=2 in a fresh process (see dune): the first
   parallel call sizes the pool to the job count — the calling domain
   plus one worker — and no larger. *)

module Pool = Wm_par.Pool

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let () =
  if Pool.jobs () <> 2 then fail "jobs () = %d, expected 2" (Pool.jobs ());
  if Pool.pool_size () <> 1 then fail "pool spawned before any parallel call";
  let a = Array.init 100 Fun.id in
  if Pool.parallel_map succ a <> Array.map succ a then
    fail "parallel_map differs from Array.map";
  if Pool.pool_size () <> 2 then
    fail "pool_size () = %d after the first parallel call, expected 2"
      (Pool.pool_size ());
  print_endline "pool sized to WMARK_JOBS=2"
