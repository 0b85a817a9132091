(* A fixed-size domain pool for the embarrassingly-parallel evaluation loops
   (corner sweeps, GA populations, frequency sweeps, batch jobs).

   Workers are spawned once, on first demand, and reused for every
   subsequent parallel call; an [at_exit] hook joins them so the process
   always terminates cleanly.  Results are written into an index-addressed
   array and reduced in index order, so a parallel run is bit-identical to
   the sequential one whenever the per-item function is pure — the
   guarantee the optimizer loops rely on.  A call made from inside a worker
   runs sequentially (no nested fan-out, hence no pool deadlock).

   Every scheduling decision is a function of the call's inputs and the
   job count alone: maps claim one item at a time, sweeps cut fixed-size
   bands, and nothing reads the clock. *)

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

(* Running more domains than the machine has cores is never free: the
   extra domains time-share a core, every minor collection still stops all
   of them, and the measured "speedup" goes below 1.  A --jobs value above
   the core count therefore runs core-count-wide.  Results are unchanged
   either way (determinism contract); only where the work runs moves. *)
let available_cores () = clamp_jobs (Domain.recommended_domain_count ())

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
            worker_loop ())
        :: !workers
    done;
  Mutex.unlock lock

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

(* ---- parallel execution ----------------------------------------------- *)

(* run [f] with this domain marked as a pool participant, so every parallel
   call inside degrades to sequential.  The batch layer wraps each job in
   this: batch-level fan-out keeps the pool, and the flows inside stop
   queueing nested helpers behind long-running sibling jobs. *)
let sequential_scope f =
  let prev = Domain.DLS.get in_worker in
  Domain.DLS.set in_worker true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_worker prev) f

(* run [f i a.(i)] for every i in [0, n) on [jobs] participants (the
   caller plus [jobs - 1] pool tasks) and return the results in index
   order, reporting the run and its GC impact through Telemetry.
   Participants claim one index per atomic fetch, so a fast participant
   keeps taking work until the range drains however unequal the items
   are.  A participant checks for a recorded failure only before it
   claims: every claimed index runs, and since claims ascend, each index
   below a recorded failure has run too — so the exception re-raised in
   the caller is the one of the smallest failing index, however the
   claims interleaved.

   Results are published as (index, value) pairs and assembled on the
   caller into an ordinary array ([Array.make] with a float witness gives
   float results a flat array). *)
let run_parallel ~jobs f (a : 'a array) : 'b array =
  let n = Array.length a in
  let helpers = jobs - 1 in
  let st0 = Gc.quick_stat () in
  let next = Atomic.make 0 in
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
  let done_items : (int * 'b) list ref = ref [] in
  let items_lock = Mutex.create () in
  let work () =
    let continue = ref true in
    while !continue && not (failed ()) do
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then continue := false
      else
        match f i a.(i) with
        | v ->
          Mutex.lock items_lock;
          done_items := (i, v) :: !done_items;
          Mutex.unlock items_lock
        | exception exn -> record i exn (Printexc.get_raw_backtrace ())
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
  (* the caller is a participant too: a parallel call made by one of its
     items runs inline, as on a worker, instead of queueing helpers behind
     the workers' current items and then waiting for them *)
  sequential_scope work;
  note_busy t0;
  Mutex.lock done_lock;
  while Atomic.get helpers_done < helpers do
    Condition.wait done_cond done_lock
  done;
  Mutex.unlock done_lock;
  let st1 = Gc.quick_stat () in
  Telemetry.count "pool.parallel_runs";
  Telemetry.add "pool.minor_collections"
    (st1.Gc.minor_collections - st0.Gc.minor_collections);
  Telemetry.add "pool.major_collections"
    (st1.Gc.major_collections - st0.Gc.major_collections);
  match !failure with
  | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None ->
    (* n >= 1 and no failure, so every index has a result *)
    let results = Array.make n (snd (List.hd !done_items)) in
    List.iter (fun (i, v) -> results.(i) <- v) !done_items;
    results

let effective_jobs jobs n =
  if Domain.DLS.get in_worker then 1
  else
    let j = match jobs with Some j -> clamp_jobs j | None -> default_jobs () in
    min (min j (available_cores ())) (max 1 n)

let parallel_map ?jobs f a =
  let jobs = effective_jobs jobs (Array.length a) in
  if jobs = 1 then Array.map f a else run_parallel ~jobs (fun _ x -> f x) a

let parallel_init ?jobs n f =
  if n < 0 then invalid_arg "Pool.parallel_init";
  parallel_map ?jobs f (Array.init n Fun.id)

(* ---- band-chunked execution ------------------------------------------- *)

(* [parallel_banded n f] evaluates [f start len] over contiguous bands
   covering [0, n) and concatenates the per-band result arrays in index
   order.  The point of the shape: [f] can set up one workspace (a
   factored-matrix scratch, a reusable solution vector) per *band* and
   amortize it over every index inside, where a per-item map would pay
   the setup per point.

   The bands are cut from [n] alone: [n / min_band] bands of equal size
   (to within one point), so each holds [min_band] to [2 * min_band - 1]
   points.  A sweep shorter than two bands is too short to pay for the
   fan-out and runs as the single band [f 0 n] on the calling domain;
   when other domains were available, that counts as
   [pool.grain_fallbacks].  With 32, the Table 1 detector's 49-point noise
   sweeps run inline while the flow's 77-point AC sweeps fan out. *)
let min_band = 32

let parallel_banded ?jobs n (f : int -> int -> 'b array) : 'b array =
  if n < 0 then invalid_arg "Pool.parallel_banded: negative length";
  let checked start len =
    let piece = f start len in
    if Array.length piece <> len then
      invalid_arg
        (Printf.sprintf "Pool.parallel_banded: band (%d, %d) returned %d results"
           start len (Array.length piece));
    piece
  in
  let jobs = effective_jobs jobs n in
  let nbands = n / min_band in
  if n = 0 then [||]
  else if jobs = 1 || nbands < 2 then begin
    if jobs > 1 then Telemetry.count "pool.grain_fallbacks";
    checked 0 n
  end
  else begin
    let start b = b * n / nbands in
    let pieces =
      run_parallel ~jobs:(min jobs nbands)
        (fun b () -> checked (start b) (start (b + 1) - start b))
        (Array.make nbands ())
    in
    let out = Array.make n pieces.(0).(0) in
    Array.iteri (fun b piece -> Array.blit piece 0 out (start b) (Array.length piece)) pieces;
    out
  end
