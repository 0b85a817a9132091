(* A fixed-size domain pool for the embarrassingly-parallel evaluation loops
   (corner sweeps, annealing multi-starts, GA populations, frequency sweeps).

   Workers are spawned once, on first demand, and reused for every
   subsequent parallel call; an [at_exit] hook joins them so the process
   always terminates cleanly.  Results are written into an index-addressed
   array and reduced in index order, so a parallel run is bit-identical to
   the sequential one whenever the per-item function is pure — the
   guarantee the optimizer loops rely on.  A call made from inside a worker
   runs sequentially (no nested fan-out, hence no pool deadlock). *)

let hard_cap = 64

(* precedence: set_default_jobs > MIXSYN_JOBS > recommended_domain_count *)
let override = Atomic.make 0

let clamp_jobs n = max 1 (min hard_cap n)

(* the one validation point for every way a job count enters the system:
   the --jobs flag, the MIXSYN_JOBS variable, and programmatic overrides
   all funnel through here, so zero/negative counts are rejected with the
   same message everywhere instead of silently clamping to 1 *)
let validate_jobs n =
  if n < 1 then
    Error (Printf.sprintf "job count must be at least 1 (got %d)" n)
  else Ok (min hard_cap n)

let jobs_of_string s =
  match int_of_string_opt (String.trim s) with
  | None -> Error (Printf.sprintf "invalid job count %S (expected a positive integer)" s)
  | Some n -> validate_jobs n

let set_default_jobs n =
  match validate_jobs n with
  | Ok n -> Atomic.set override n
  | Error msg -> invalid_arg ("Pool.set_default_jobs: " ^ msg)

let env_jobs () =
  match Sys.getenv_opt "MIXSYN_JOBS" with
  | None -> None
  | Some s -> (match jobs_of_string s with Ok n -> Some n | Error _ -> None)

let default_jobs () =
  let o = Atomic.get override in
  if o > 0 then o
  else
    match env_jobs () with
    | Some n -> n
    | None -> clamp_jobs (Domain.recommended_domain_count ())

(* ---- core awareness --------------------------------------------------- *)

(* Running more domains than the machine has cores is never free: the
   extra domains time-share a core, every minor collection still stops all
   of them, and the measured "speedup" goes below 1.  [available_cores]
   is what the scheduler believes the hardware offers; the helper budget
   of every parallel call is capped at [cores - 1] so a --jobs value above
   the core count degrades to core-count-wide execution instead of
   oversubscribing.  Results are unchanged either way (determinism
   contract); only where the work runs moves.

   MIXSYN_POOL_CORES overrides the detected count (tests, containers with
   misreported topology); MIXSYN_POOL_OVERSUBSCRIBE=1 removes the cap
   entirely for A/B measurements.  Both are read per call so tests can
   toggle them with [Unix.putenv]. *)

let available_cores () =
  match Option.bind (Sys.getenv_opt "MIXSYN_POOL_CORES") int_of_string_opt with
  | Some c when c >= 1 -> min c hard_cap
  | Some _ | None -> clamp_jobs (Domain.recommended_domain_count ())

let oversubscribe () =
  match Sys.getenv_opt "MIXSYN_POOL_OVERSUBSCRIBE" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

(* helper tasks (beyond the calling domain) a parallel call over [n] items
   may queue: never more than jobs - 1, never more than there are items to
   share, and never more than spare physical cores unless oversubscription
   was explicitly requested *)
let helper_budget ~jobs ~n =
  let spare = if oversubscribe () then jobs - 1 else min (jobs - 1) (available_cores () - 1) in
  max 0 (min spare (n - 1))

(* ---- GC awareness ----------------------------------------------------- *)

(* In OCaml 5 a minor collection stops *every* domain, so an allocating
   hot loop on one worker stalls the whole pool.  Workers therefore get a
   generous minor heap on spawn (fewer, larger stop-the-world pauses), and
   every parallel call surfaces the collection counts it caused through
   Telemetry, so allocation regressions show up in bench trajectories. *)

let min_worker_minor_heap = 1 lsl 16 (* 64k words, the stdlib floor *)
let default_worker_minor_heap = 1 lsl 22 (* 4M words *)

let worker_minor_heap =
  let init =
    match Option.bind (Sys.getenv_opt "MIXSYN_MINOR_HEAP") int_of_string_opt with
    | Some w when w >= min_worker_minor_heap -> w
    | Some _ | None -> default_worker_minor_heap
  in
  Atomic.make init

let set_worker_minor_heap_words w =
  if w < min_worker_minor_heap then
    invalid_arg
      (Printf.sprintf "Pool.set_worker_minor_heap_words: %d below %d words" w
         min_worker_minor_heap);
  Atomic.set worker_minor_heap w

let worker_minor_heap_words () = Atomic.get worker_minor_heap

(* ---- granularity awareness -------------------------------------------- *)

(* A parallel call over 6 ms of total work loses more to fan-out (queue
   wakeups, cache misses, the stop-the-world exposure of extra running
   domains) than it gains.  A [grain] remembers, per call site, roughly
   how long one item takes; once known, calls whose estimated total work
   is below [min_work_s] run sequentially.  Results are unaffected either
   way — the pool's determinism contract makes sequential and parallel
   execution bit-identical — so the estimate only steers scheduling. *)

(* Beyond the static min-work threshold, a grain also learns whether
   parallel execution actually paid at its call site: it keeps the
   per-item *wall* time of the last sequential and the last parallel run,
   and once both are known and parallel measured no faster, later calls
   run sequentially.  Every [reprobe_period]-th such fallback runs
   parallel anyway to refresh the measurement, so a site that became
   profitable (bigger inputs, idle cores) recovers instead of being stuck
   sequential forever. *)

type grain = {
  g_name : string;
  g_min_work_s : float;
  mutable g_est_item_s : float; (* work seconds per item; negative = unknown *)
  mutable g_seq_item_s : float; (* wall per item, last sequential run *)
  mutable g_par_item_s : float; (* wall per item, last parallel run *)
  mutable g_par_losses : int;   (* efficiency fallbacks since last re-probe *)
}

let reprobe_period = 32

let default_min_work_s =
  match Option.bind (Sys.getenv_opt "MIXSYN_POOL_MIN_WORK_US") float_of_string_opt with
  | Some us when us >= 0.0 && Float.is_finite us -> us *. 1e-6
  | Some _ | None -> 1.0e-3

let grain ?min_work_s name =
  let m =
    match min_work_s with
    | None -> default_min_work_s
    | Some s when s >= 0.0 && Float.is_finite s -> s
    | Some s -> invalid_arg (Printf.sprintf "Pool.grain: bad min_work_s %g" s)
  in
  { g_name = name; g_min_work_s = m; g_est_item_s = -1.0;
    g_seq_item_s = -1.0; g_par_item_s = -1.0; g_par_losses = 0 }

let grain_estimate g = if g.g_est_item_s < 0.0 then None else Some g.g_est_item_s

(* decide (with telemetry) whether a parallel-eligible call should run
   sequentially anyway; [min_work_s = 0.0] opts out of both fallbacks *)
let grain_prefers_sequential g n =
  if g.g_min_work_s <= 0.0 then false
  else if g.g_est_item_s >= 0.0
          && g.g_est_item_s *. float_of_int n < g.g_min_work_s then begin
    (* known-small call site: fan-out overhead would dominate *)
    Telemetry.count "pool.grain_fallbacks";
    true
  end
  else if g.g_seq_item_s >= 0.0 && g.g_par_item_s >= 0.0
          && g.g_par_item_s >= g.g_seq_item_s *. 0.98 then begin
    (* measured: parallel was no faster here (single-core host, memory-
       bound loop, ...).  Run sequentially, but re-probe periodically. *)
    g.g_par_losses <- g.g_par_losses + 1;
    if g.g_par_losses mod reprobe_period = 0 then false
    else begin
      Telemetry.count "pool.grain_inefficient";
      true
    end
  end
  else false

let note_sequential g ~n wall =
  let per = wall /. float_of_int n in
  g.g_est_item_s <- per;
  g.g_seq_item_s <- per

(* ---- the worker pool ------------------------------------------------- *)

let lock = Mutex.create ()
let work_available = Condition.create ()
let queue : (unit -> unit) Queue.t = Queue.create ()
let workers : unit Domain.t list ref = ref []
let worker_total = ref 0
let stopping = ref false

(* true inside a pool worker; parallel calls made there run sequentially *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* stable per-domain slot for utilization accounting: the calling domain
   is slot 0, workers take 1.. in spawn order.  Counter names are
   pre-rendered so the hot path does no formatting. *)
let pool_slot : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let slot_busy_names =
  Array.init hard_cap (fun i -> Printf.sprintf "pool.domain.%d.busy_us" i)

let note_busy t0 =
  let us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  Telemetry.add slot_busy_names.(Domain.DLS.get pool_slot land (hard_cap - 1)) us

let rec worker_loop () =
  Mutex.lock lock;
  while Queue.is_empty queue && not !stopping do
    Condition.wait work_available lock
  done;
  match Queue.take_opt queue with
  | None ->
    (* stopping with an empty queue *)
    Mutex.unlock lock
  | Some task ->
    Mutex.unlock lock;
    (* tasks trap their own exceptions; a raise here would kill the worker *)
    (try task () with _ -> ());
    worker_loop ()

let ensure_workers wanted =
  Mutex.lock lock;
  if not !stopping then
    while !worker_total < wanted && !worker_total < hard_cap - 1 do
      incr worker_total;
      let slot = !worker_total in
      workers :=
        Domain.spawn (fun () ->
            Domain.DLS.set in_worker true;
            Domain.DLS.set pool_slot slot;
            (* size the worker's minor heap before it runs any task *)
            Gc.set
              { (Gc.get ()) with Gc.minor_heap_size = Atomic.get worker_minor_heap };
            worker_loop ())
        :: !workers
    done;
  Mutex.unlock lock

let worker_count () =
  Mutex.lock lock;
  let n = !worker_total in
  Mutex.unlock lock;
  n

let shutdown () =
  Mutex.lock lock;
  stopping := true;
  Condition.broadcast work_available;
  let ws = !workers in
  workers := [];
  worker_total := 0;
  Mutex.unlock lock;
  List.iter Domain.join ws;
  Mutex.lock lock;
  stopping := false;
  Mutex.unlock lock

let () = at_exit shutdown

(* ---- chunked parallel execution -------------------------------------- *)

exception Chunk_failed of int * exn * Printexc.raw_backtrace

(* run [f i a.(i)] for every i in [0, n) across [jobs] participants (the
   caller plus helper tasks on the pool) and return the results in index
   order.  On failure, the exception of the smallest failing index is
   re-raised in the caller — deterministic no matter how chunks were
   interleaved.

   [chunk] is the work-stealing granularity: participants claim [chunk]
   consecutive indices at a time, so it decides what the unit of work is —
   a frequency *band* rather than a point, a whole anneal chain rather
   than a move.  The default splits the range into ~4 chunks per job,
   which amortizes the claim (one atomic per chunk) while still letting a
   fast participant steal from a slow one's share.

   Each participant materializes a claimed chunk as one ordinary array
   ([Array.init] gives float results an unboxed flat array) and publishes
   [(start, piece)] under a mutex; the caller assembles the final array
   from the pieces.  That's O(chunks) transient allocation instead of the
   one ['b option] box per item the previous implementation paid — the
   per-item hot path allocates nothing in the pool itself. *)
let run_chunks ~helpers ?chunk f (a : 'a array) : 'b array =
  let n = Array.length a in
  let next = Atomic.make 0 in
  let chunk =
    match chunk with
    | None -> max 1 (n / ((helpers + 1) * 4))
    | Some c -> c
  in
  let failure = ref None in
  let failure_lock = Mutex.create () in
  let record i exn bt =
    Mutex.lock failure_lock;
    (match !failure with
     | Some (j, _, _) when j <= i -> ()
     | Some _ | None -> failure := Some (i, exn, bt));
    Mutex.unlock failure_lock
  in
  let failed () =
    Mutex.lock failure_lock;
    let f = !failure <> None in
    Mutex.unlock failure_lock;
    f
  in
  let pieces : (int * 'b array) list ref = ref [] in
  let pieces_lock = Mutex.create () in
  let work () =
    let continue = ref true in
    while !continue do
      let start = Atomic.fetch_and_add next chunk in
      if start >= n || failed () then continue := false
      else begin
        let stop = min n (start + chunk) in
        match
          Array.init (stop - start) (fun k ->
              let i = start + k in
              try f i a.(i)
              with exn -> raise (Chunk_failed (i, exn, Printexc.get_raw_backtrace ())))
        with
        | piece ->
          Mutex.lock pieces_lock;
          pieces := (start, piece) :: !pieces;
          Mutex.unlock pieces_lock
        | exception Chunk_failed (i, exn, bt) -> record i exn bt
      end
    done
  in
  ensure_workers helpers;
  let helpers_done = Atomic.make 0 in
  let done_lock = Mutex.create () in
  let done_cond = Condition.create () in
  let helper () =
    let t0 = Unix.gettimeofday () in
    work ();
    note_busy t0;
    Mutex.lock done_lock;
    Atomic.incr helpers_done;
    Condition.broadcast done_cond;
    Mutex.unlock done_lock
  in
  Mutex.lock lock;
  for _ = 1 to helpers do
    Queue.push helper queue
  done;
  Condition.broadcast work_available;
  Mutex.unlock lock;
  let t0 = Unix.gettimeofday () in
  work ();
  note_busy t0;
  Mutex.lock done_lock;
  while Atomic.get helpers_done < helpers do
    Condition.wait done_cond done_lock
  done;
  Mutex.unlock done_lock;
  match !failure with
  | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None ->
    (* n >= 1 and no failure, so at least one non-empty piece exists *)
    let witness = (snd (List.hd !pieces)).(0) in
    let results = Array.make n witness in
    List.iter
      (fun (start, piece) -> Array.blit piece 0 results start (Array.length piece))
      !pieces;
    results

let effective_jobs jobs n =
  if Domain.DLS.get in_worker then 1
  else
    let j = match jobs with Some j -> clamp_jobs j | None -> default_jobs () in
    min j (max 1 n)

(* run [f] with this domain marked as a pool participant, so every parallel
   call inside degrades to sequential.  The batch layer wraps each job in
   this: batch-level fan-out keeps the pool, and the flows inside stop
   queueing nested helpers behind long-running sibling jobs. *)
let sequential_scope f =
  let prev = Domain.DLS.get in_worker in
  Domain.DLS.set in_worker true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_worker prev) f

(* book-keeping shared by every parallel run: GC impact through Telemetry,
   and the grain's work / parallel-wall estimates.  Total work is
   approximated as wall * participants (the domains that actually ran, not
   the requested job count), so the min-work test stays honest when the
   core cap shrank the fan-out. *)
let note_parallel_run (g : grain option) ~participants ~n ~t0 ~st0 =
  let st1 = Gc.quick_stat () in
  Telemetry.count "pool.parallel_runs";
  Telemetry.add "pool.minor_collections"
    (st1.Gc.minor_collections - st0.Gc.minor_collections);
  Telemetry.add "pool.major_collections"
    (st1.Gc.major_collections - st0.Gc.major_collections);
  match g with
  | Some g ->
    let wall = Unix.gettimeofday () -. t0 in
    let fn = float_of_int n in
    g.g_est_item_s <- wall *. float_of_int participants /. fn;
    g.g_par_item_s <- wall /. fn
  | None -> ()

let parallel_mapi ?jobs ?chunk ?grain:(g : grain option) f a =
  let n = Array.length a in
  let jobs = effective_jobs jobs n in
  (* validate even on the sequential paths so a bad chunk fails everywhere *)
  (match chunk with
   | Some c when c < 1 -> invalid_arg (Printf.sprintf "Pool: chunk %d not positive" c)
   | Some _ | None -> ());
  if n = 0 then [||]
  else begin
    let parallel_wanted = jobs > 1 && not (Domain.DLS.get in_worker) in
    let run_sequential =
      (not parallel_wanted)
      || (match g with Some g -> grain_prefers_sequential g n | None -> false)
    in
    if run_sequential then begin
      match g with
      | None -> Array.mapi f a
      | Some g ->
        let t0 = Unix.gettimeofday () in
        let r = Array.mapi f a in
        note_sequential g ~n (Unix.gettimeofday () -. t0);
        r
    end
    else begin
      let helpers = helper_budget ~jobs ~n in
      let t0 = Unix.gettimeofday () in
      let st0 = Gc.quick_stat () in
      let r = run_chunks ~helpers ?chunk f a in
      note_parallel_run g ~participants:(helpers + 1) ~n ~t0 ~st0;
      r
    end
  end

(* ---- band-chunked execution ------------------------------------------- *)

(* [parallel_banded n f] evaluates [f start len] over contiguous bands
   covering [0, n) and concatenates the per-band result arrays in index
   order.  The point of the shape: [f] can set up one workspace (a
   factored-matrix scratch, a reusable solution vector) per *band* and
   amortize it over every index inside, where a per-item map would pay
   the setup per point.  The sequential fallback is the best case — a
   single band [f 0 n] with one workspace for the whole range. *)
let parallel_banded ?jobs ?chunk ?grain:(g : grain option) n (f : int -> int -> 'b array) :
  'b array =
  if n < 0 then invalid_arg "Pool.parallel_banded: negative length";
  (match chunk with
   | Some c when c < 1 -> invalid_arg (Printf.sprintf "Pool: chunk %d not positive" c)
   | Some _ | None -> ());
  let jobs = effective_jobs jobs n in
  if n = 0 then [||]
  else begin
    let checked start len piece =
      if Array.length piece <> len then
        invalid_arg
          (Printf.sprintf "Pool.parallel_banded: band (%d, %d) returned %d results"
             start len (Array.length piece));
      piece
    in
    let parallel_wanted = jobs > 1 && not (Domain.DLS.get in_worker) in
    let run_sequential =
      (not parallel_wanted)
      || (match g with Some g -> grain_prefers_sequential g n | None -> false)
    in
    if run_sequential then begin
      let t0 = Unix.gettimeofday () in
      let r = checked 0 n (f 0 n) in
      (match g with
       | Some g -> note_sequential g ~n (Unix.gettimeofday () -. t0)
       | None -> ());
      r
    end
    else begin
      let band =
        match chunk with
        | Some c -> c
        | None ->
          (match g with
           | Some g when g.g_est_item_s > 0.0 ->
             (* enough points that a band is worth its workspace setup,
                but never so many that a participant gets less than one *)
             let target = Float.max g.g_min_work_s 2.5e-4 in
             let by_work = int_of_float (Float.ceil (target /. g.g_est_item_s)) in
             max 1 (min by_work (max 1 ((n + jobs - 1) / jobs)))
           | Some _ | None -> max 1 (n / (jobs * 4)))
      in
      let nbands = (n + band - 1) / band in
      let starts = Array.init nbands (fun b -> b * band) in
      let helpers = helper_budget ~jobs ~n:nbands in
      let t0 = Unix.gettimeofday () in
      let st0 = Gc.quick_stat () in
      let pieces =
        run_chunks ~helpers ~chunk:1
          (fun _ start -> checked start (min band (n - start)) (f start (min band (n - start))))
          starts
      in
      note_parallel_run g ~participants:(helpers + 1) ~n ~t0 ~st0;
      let out = Array.make n pieces.(0).(0) in
      Array.iteri
        (fun b piece -> Array.blit piece 0 out (b * band) (Array.length piece))
        pieces;
      out
    end
  end

let parallel_map ?jobs ?chunk ?grain f a =
  parallel_mapi ?jobs ?chunk ?grain (fun _ x -> f x) a

let parallel_init ?jobs ?chunk ?grain n f =
  if n < 0 then invalid_arg "Pool.parallel_init";
  parallel_map ?jobs ?chunk ?grain f (Array.init n Fun.id)

let parallel_map_list ?jobs ?chunk ?grain f l =
  Array.to_list (parallel_map ?jobs ?chunk ?grain f (Array.of_list l))

let parallel_reduce ?jobs ?chunk ?grain ~map ~combine ~init a =
  Array.fold_left combine init (parallel_map ?jobs ?chunk ?grain map a)
