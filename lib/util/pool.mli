(** A reusable fixed-size domain pool for parallel candidate evaluation.

    Workers are spawned once (lazily, on first parallel call) and reused by
    every subsequent call; an [at_exit] hook joins them on process exit.
    Results are collected by index and reduced in index order, so for a pure
    per-item function the outcome is bit-identical whatever the job count —
    the determinism contract the corner/anneal/GA/sweep loops depend on.

    Calls made from inside a pool worker run sequentially, so nested
    parallelism degrades gracefully instead of deadlocking the pool. *)

val default_jobs : unit -> int
(** Job count used when [?jobs] is omitted.  Precedence:
    {!set_default_jobs} override, then the [MIXSYN_JOBS] environment
    variable, then [Domain.recommended_domain_count ()].  Always in
    [\[1, 64\]]; malformed [MIXSYN_JOBS] values are ignored. *)

val set_default_jobs : int -> unit
(** Process-wide override of {!default_jobs} (the [--jobs] flag).  Values
    above the pool cap (64) clamp to it.
    @raise Invalid_argument for counts below 1 — callers wanting a clean
    error instead should go through {!validate_jobs}. *)

val validate_jobs : int -> (int, string) result
(** The single validation point for job counts, whatever their origin
    ([--jobs], [MIXSYN_JOBS], API): [Error] with a clear message below 1,
    otherwise [Ok] clamped to the pool cap. *)

val jobs_of_string : string -> (int, string) result
(** {!validate_jobs} after integer parsing — the converter the CLI and the
    environment-variable path share. *)

val available_cores : unit -> int
(** Physical parallelism the scheduler believes the machine offers:
    [MIXSYN_POOL_CORES] when set (tests, containers with misreported
    topology), else [Domain.recommended_domain_count ()], clamped to the
    pool cap.  Every parallel call's helper budget is capped at
    [available_cores () - 1] — a [--jobs] value above the core count runs
    core-count-wide instead of oversubscribing (results unchanged; only
    placement moves).  Set [MIXSYN_POOL_OVERSUBSCRIBE=1] to remove the cap
    for A/B measurements.  Both variables are re-read on each call. *)

type grain
(** A per-call-site granularity memo: remembers roughly how long one item
    of that call site takes, so the pool can run provably-small calls
    sequentially instead of paying fan-out overhead for microseconds of
    work.  Results are unaffected — sequential and parallel execution are
    bit-identical by the determinism contract — only scheduling changes. *)

val grain : ?min_work_s:float -> string -> grain
(** [grain name] makes a fresh (typically module-level) grain.  A parallel
    call carrying it falls back to sequential execution once the estimated
    total work [items * est_item_seconds] is below [min_work_s] (default
    1 ms, overridable process-wide with [MIXSYN_POOL_MIN_WORK_US] in
    microseconds; [~min_work_s:0.0] disables every fallback).  The
    estimate is learned from the wall clock of each run, so the first call
    at a site always uses the requested job count.

    A grain also watches whether parallelism actually paid: it keeps the
    per-item wall time of the last sequential and last parallel run, and
    once both are known and parallel measured no faster (single-core host,
    memory-bound loop), later calls run sequentially too — re-probing in
    parallel every 32nd such call so a site that became profitable
    recovers.  Fallbacks surface as [pool.grain_fallbacks] (min-work) and
    [pool.grain_inefficient] (measured-no-gain) telemetry counters.
    @raise Invalid_argument for negative or non-finite [min_work_s]. *)

val grain_estimate : grain -> float option
(** Current learned seconds-per-item of work, or [None] before the first
    run. *)

val parallel_map :
  ?jobs:int -> ?chunk:int -> ?grain:grain -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map ~jobs f a] is [Array.map f a] evaluated by up to [jobs]
    domains (the caller participates; [jobs - 1] pool workers help).
    [jobs] defaults to {!default_jobs}; [jobs = 1] runs inline with no
    domain machinery.  If any application raises, the exception of the
    {e smallest} failing index is re-raised in the caller (deterministic
    under any scheduling) once all workers have drained.

    [chunk] sets the work-stealing granularity: participants claim [chunk]
    consecutive indices per atomic fetch, making a contiguous {e band} the
    unit of work.  Defaults to [n / (jobs * 4)] (at least 1) — roughly
    four bands per participant.  Pass [~chunk:1] when items are few and
    expensive (anneal chains, batch jobs) and load balance matters more
    than claim overhead.  Results and exceptions are independent of
    [chunk], which only shifts where the work executes.

    [grain] opts the call site into the auto-sequential fallback for
    known-small workloads (see {!grain}).

    The pool itself allocates O(chunks), not O(items): claimed chunks are
    materialized as plain arrays (flat for float results) and blitted into
    the final array, and each parallel run reports its GC impact through
    [Telemetry] ([pool.parallel_runs], [pool.minor_collections],
    [pool.major_collections], [pool.grain_fallbacks]).
    @raise Invalid_argument when [chunk < 1]. *)

val parallel_mapi :
  ?jobs:int -> ?chunk:int -> ?grain:grain -> (int -> 'a -> 'b) -> 'a array -> 'b array

val parallel_map_list :
  ?jobs:int -> ?chunk:int -> ?grain:grain -> ('a -> 'b) -> 'a list -> 'b list

val parallel_init : ?jobs:int -> ?chunk:int -> ?grain:grain -> int -> (int -> 'a) -> 'a array
(** [parallel_init n f] is [Array.init n f] in parallel.
    @raise Invalid_argument when [n < 0]. *)

val parallel_reduce :
  ?jobs:int -> ?chunk:int -> ?grain:grain ->
  map:('a -> 'b) -> combine:('c -> 'b -> 'c) -> init:'c ->
  'a array -> 'c
(** Map in parallel, then fold [combine] over the mapped values in index
    order on the calling domain — deterministic even for non-commutative
    [combine]. *)

val parallel_banded :
  ?jobs:int -> ?chunk:int -> ?grain:grain -> int -> (int -> int -> 'b array) -> 'b array
(** [parallel_banded n f] evaluates [f start len] over contiguous bands
    covering [0, n)] and concatenates the per-band arrays in index order
    ([f] must return exactly [len] results for indices
    [start .. start + len - 1]).  Use it when per-index work shares an
    expensive setup — an AC sweep factoring into one complex workspace,
    a noise sweep reusing one solution vector — so the setup is paid once
    per {e band} instead of once per point.  The sequential fallback is a
    single band [f 0 n]: one workspace for the whole range.

    [chunk] fixes the band size; by default it is auto-sized from the
    grain's learned seconds-per-item so a band carries roughly
    [min_work_s] of work (bands are the unit of stealing, claimed one at
    a time).  Results are independent of the band size whenever [f] is
    pure per index; exception propagation is deterministic at band
    granularity (the smallest failing {e band}'s exception wins).
    @raise Invalid_argument when [n < 0], [chunk < 1], or [f] returns an
    array of the wrong length. *)

val set_worker_minor_heap_words : int -> unit
(** Minor-heap size (in words) applied to each worker domain when it is
    spawned — OCaml 5 minor collections stop every domain, so workers
    running allocating loops get a large nursery (default 4M words,
    overridable with [MIXSYN_MINOR_HEAP]) to make stop-the-world pauses
    rare.  Affects workers spawned after the call; {!shutdown} first to
    resize an already-running pool.
    @raise Invalid_argument below the 64k-word runtime floor. *)

val worker_minor_heap_words : unit -> int
(** The minor-heap size the next spawned worker will use. *)

val effective_jobs : int option -> int -> int
(** [effective_jobs jobs n] — the job count a parallel call over [n] items
    would use: [jobs] (or {!default_jobs} when [None]) clamped to the pool
    cap and to [n], and 1 inside a pool worker or a {!sequential_scope},
    where every parallel call runs sequentially. *)

val sequential_scope : (unit -> 'a) -> 'a
(** Run [f] with this domain treated as a pool worker: every parallel call
    made inside runs sequentially (exception-safe, restores the previous
    state).  Used by batch-style callers that own the pool at a coarser
    granularity than the loops inside [f]. *)

val worker_count : unit -> int
(** Live worker domains (for tests and benchmarks). *)

val shutdown : unit -> unit
(** Join all workers.  Idempotent; the pool respawns on the next parallel
    call.  Registered with [at_exit], so explicit calls are only needed in
    tests. *)
