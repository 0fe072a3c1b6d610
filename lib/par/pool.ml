(* A domain pool behind deterministic combinators.

   Determinism is structural, not scheduled: every combinator writes each
   output slot exactly where the sequential loop would, and any
   cross-slot combination happens sequentially in index order after the
   parallel phase.  The job count therefore only decides how the index
   range is chunked over domains, never what is computed. *)

(* Observability (DESIGN.md 5.8): how much work the pool moved, how much
   of it the callers stole back while waiting, and how long batch owners
   sat in Condition.wait.  All no-ops unless Wm_obs.Obs is enabled. *)
module Obs = Wm_obs.Obs

let c_tasks_enqueued = Obs.counter "pool.tasks_enqueued"
let c_tasks_helped = Obs.counter "pool.tasks_helped"
let c_batches = Obs.counter "pool.batches"
let c_domains_spawned = Obs.counter "pool.domains_spawned"
let t_batch_wait = Obs.timer "pool.batch_wait"

(* ------------------------------------------------------------------ *)
(* Job-count resolution: set_jobs > WMARK_JOBS > hw. *)

let override : int option Atomic.t = Atomic.make None

(* Parsed once at module initialization (single-threaded), so a mis-set
   CI environment gets exactly one warning instead of silence — or one
   warning per [jobs ()] call. *)
let env_jobs =
  match Sys.getenv_opt "WMARK_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> Some j
      | _ ->
          Printf.eprintf
            "wmark: ignoring WMARK_JOBS=%s (not a positive integer), using \
             the hardware default of %d\n\
             %!"
            (Filename.quote s)
            (Domain.recommended_domain_count ());
          None)

let default_jobs () =
  match env_jobs with
  | Some j -> j
  | None -> Domain.recommended_domain_count ()

let set_jobs = function
  | None -> Atomic.set override None
  | Some j -> Atomic.set override (Some (max 1 j))

let jobs () =
  match Atomic.get override with Some j -> j | None -> default_jobs ()

(* ------------------------------------------------------------------ *)
(* The pool: worker domains blocked on one shared queue, plus the calling
   domain.  It holds [jobs ()] runners, spawned at the first parallel
   call and grown when a later [set_jobs] asks for more. *)

type task = unit -> unit

type pool = {
  m : Mutex.t;
  nonempty : Condition.t;
  queue : task Queue.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  mutable runners : int;  (* worker domains + the calling domain *)
}

let rec worker_loop p =
  Mutex.lock p.m;
  while Queue.is_empty p.queue && not p.stop do
    Condition.wait p.nonempty p.m
  done;
  if Queue.is_empty p.queue then Mutex.unlock p.m (* stop, queue drained *)
  else begin
    let t = Queue.pop p.queue in
    Mutex.unlock p.m;
    t ();
    worker_loop p
  end

let try_pop p =
  Mutex.lock p.m;
  let r = if Queue.is_empty p.queue then None else Some (Queue.pop p.queue) in
  Mutex.unlock p.m;
  r

let shutdown p =
  Mutex.lock p.m;
  p.stop <- true;
  Condition.broadcast p.nonempty;
  Mutex.unlock p.m;
  List.iter Domain.join p.domains;
  p.domains <- []

(* The one pool.  It starts with the calling domain as its only runner;
   [grow] spawns the worker domains. *)
let pool =
  {
    m = Mutex.create ();
    nonempty = Condition.create ();
    queue = Queue.create ();
    stop = false;
    domains = [];
    runners = 1;
  }

let () = at_exit (fun () -> shutdown pool)
let spawn_mutex = Mutex.create ()

(* [grow want] spawns the missing worker domains (under [spawn_mutex])
   so the pool has at least [want] runners.  The pool never shrinks —
   fewer jobs just chunk the index range over fewer tasks. *)
let grow want =
  Mutex.lock spawn_mutex;
  if want > pool.runners then begin
    pool.domains <-
      List.init (want - pool.runners) (fun _ ->
          Domain.spawn (fun () -> worker_loop pool))
      @ pool.domains;
    Obs.add c_domains_spawned (want - pool.runners);
    pool.runners <- want
  end;
  Mutex.unlock spawn_mutex

let pool_size () = pool.runners

(* ------------------------------------------------------------------ *)
(* Batches: enqueue wrapped tasks, help while waiting, re-raise the
   first failure once everything has drained.  Tasks swallow their own
   exceptions into the batch record, so a raising task can never take a
   worker down or leave the queue wedged. *)

(* Set while the current domain runs a pool task, on a worker or on a
   helping caller; a combinator that sees it runs inline.  A task is
   never entered with the flag already set: a combinator inside a task
   runs inline and so never reaches [run_tasks] to help. *)
let in_task = Domain.DLS.new_key (fun () -> false)

type batch = {
  bm : Mutex.t;
  bdone : Condition.t;
  mutable remaining : int;
  mutable first_exn : (exn * Printexc.raw_backtrace) option;
}

let run_tasks p (tasks : task array) =
  let b =
    {
      bm = Mutex.create ();
      bdone = Condition.create ();
      remaining = Array.length tasks;
      first_exn = None;
    }
  in
  let wrap t () =
    Domain.DLS.set in_task true;
    let failure =
      try
        t ();
        None
      with e -> Some (e, Printexc.get_raw_backtrace ())
    in
    Domain.DLS.set in_task false;
    Mutex.lock b.bm;
    (match (failure, b.first_exn) with
    | Some f, None -> b.first_exn <- Some f
    | _ -> ());
    b.remaining <- b.remaining - 1;
    if b.remaining = 0 then Condition.broadcast b.bdone;
    Mutex.unlock b.bm
  in
  Mutex.lock p.m;
  Array.iter (fun t -> Queue.push (wrap t) p.queue) tasks;
  Condition.broadcast p.nonempty;
  Mutex.unlock p.m;
  Obs.incr c_batches;
  Obs.add c_tasks_enqueued (Array.length tasks);
  (* Help: the caller is a runner too.  It may execute tasks of other
     in-flight batches (nested sections); wrapped tasks never raise, so
     helping is exception-free. *)
  let rec help () =
    match try_pop p with
    | Some t ->
        Obs.incr c_tasks_helped;
        t ();
        help ()
    | None -> ()
  in
  help ();
  Obs.time t_batch_wait (fun () ->
      Mutex.lock b.bm;
      while b.remaining > 0 do
        Condition.wait b.bdone b.bm
      done;
      Mutex.unlock b.bm);
  match b.first_exn with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* [run_indices j body n]: body i for every i in [0, n), chunked over
   [j] runners.  Chunks are contiguous index ranges, so each slot is
   written exactly once, by exactly one task. *)
let run_indices j body n =
  grow j;
  let nchunks = min n (j * 8) in
  let tasks =
    Array.init nchunks (fun c ->
        let lo = c * n / nchunks and hi = ((c + 1) * n / nchunks) - 1 in
        fun () ->
          for i = lo to hi do
            body i
          done)
  in
  run_tasks pool tasks

(* ------------------------------------------------------------------ *)
(* Combinators *)

let parallel_mapi f a =
  let n = Array.length a and j = jobs () in
  (* one job, nothing to split, or already inside a pool task: the plain
     sequential loop *)
  if j <= 1 || n <= 1 || Domain.DLS.get in_task then Array.mapi f a
  else begin
    let out = Array.make n None in
    run_indices j (fun i -> out.(i) <- Some (f i a.(i))) n;
    Array.map (function Some v -> v | None -> assert false) out
  end

let parallel_map f a = parallel_mapi (fun _ x -> f x) a

let map_list f l = Array.to_list (parallel_map f (Array.of_list l))
