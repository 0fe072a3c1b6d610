(* [with_jobs j f] runs [f] under the process-wide job count [j] and
   restores the environment/hardware default afterwards, even if [f]
   raises: the tests' way to sweep the pool's job count. *)
let with_jobs j f =
  Wm_par.Pool.set_jobs (Some j);
  Fun.protect ~finally:(fun () -> Wm_par.Pool.set_jobs None) f
