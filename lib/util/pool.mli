(** A reusable fixed-size domain pool for parallel candidate evaluation.

    Workers are spawned once (lazily, on first parallel call) and reused by
    every subsequent call; an [at_exit] hook joins them on process exit.
    Results are collected by index and reduced in index order, so for a pure
    per-item function the outcome is bit-identical whatever the job count —
    the determinism contract the corner/GA/sweep/batch loops depend on.

    The job count is the pool's one setting.  Everything else is a fixed
    rule applied to the call's inputs: maps claim one item at a time, band
    sweeps cut bands of at least 32 points, and no call runs on more
    domains than {!available_cores}.  No scheduling decision reads the
    clock.

    Calls made from inside a pool worker, or from an item the calling
    domain runs during a parallel call, run sequentially, so nested
    parallelism degrades gracefully instead of deadlocking the pool or
    waiting on busy workers. *)

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
(** [Domain.recommended_domain_count ()], clamped to the pool cap.  A job
    count above it runs core-count-wide instead of oversubscribing
    (results unchanged; only placement moves), see {!effective_jobs}. *)

val effective_jobs : int option -> int -> int
(** [effective_jobs jobs n] — the number of domains a parallel call over
    [n] items runs on: [jobs] (or {!default_jobs} when [None]) clamped to
    the pool cap, to {!available_cores} and to [n]; and 1 inside a pool
    worker or a {!sequential_scope}, where every parallel call runs
    sequentially.  A call uses [effective_jobs - 1] pool workers besides
    the calling domain. *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map ~jobs f a] is [Array.map f a] evaluated by
    [effective_jobs jobs (Array.length a)] domains (the caller participates;
    the rest are pool workers).  [jobs] defaults to {!default_jobs}; one
    domain runs inline with no domain machinery.  Each participant claims
    one item per atomic fetch, so unequal items (batch jobs, GA fitness
    calls) keep every domain busy until the array drains.  If any
    application raises, the exception of the {e smallest} failing index is
    re-raised in the caller (deterministic under any scheduling) once all
    workers have drained.

    Each parallel run reports itself and its GC impact through [Telemetry]
    ([pool.parallel_runs], [pool.minor_collections],
    [pool.major_collections]). *)

val parallel_init : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [parallel_init n f] is [Array.init n f] in parallel.
    @raise Invalid_argument when [n < 0]. *)

val parallel_banded : ?jobs:int -> int -> (int -> int -> 'b array) -> 'b array
(** [parallel_banded n f] evaluates [f start len] over contiguous bands
    covering [0, n)] and concatenates the per-band arrays in index order
    ([f] must return exactly [len] results for indices
    [start .. start + len - 1]).  Use it when per-index work shares an
    expensive setup — an AC sweep factoring into one complex workspace,
    a noise sweep reusing one solution vector — so the setup is paid once
    per {e band} instead of once per point.

    The bands depend on [n] alone: [n / 32] bands of equal size to within
    one point (32 to 63 points each), each claimed as one unit of work.  A
    sweep shorter than two bands ([n < 64]) runs as the single band
    [f 0 n] on the calling domain; when more than one domain was
    available, that counts as [pool.grain_fallbacks].  Results are
    independent of the banding whenever [f] is pure per index; exception
    propagation is deterministic at band granularity (the smallest failing
    {e band}'s exception wins).
    @raise Invalid_argument when [n < 0] or [f] returns an array of the
    wrong length. *)

val sequential_scope : (unit -> 'a) -> 'a
(** Run [f] with this domain treated as a pool worker: every parallel call
    made inside runs sequentially (exception-safe, restores the previous
    state).  Used by batch-style callers that own the pool at a coarser
    granularity than the loops inside [f]. *)

val shutdown : unit -> unit
(** Join all workers.  Idempotent; the pool respawns on the next parallel
    call.  Registered with [at_exit], so explicit calls are only needed in
    tests. *)
