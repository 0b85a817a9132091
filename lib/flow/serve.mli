(** The persistent synthesis service: an HTTP front end over {!Batch.Engine}.

    [msyn serve] promotes the batch layer to a long-running daemon: one
    warm process — domain pool spawned, sizing stage cache populated —
    answering synthesis requests over a dependency-free HTTP/1.1 JSON
    protocol ({!Mixsyn_util.Http}).  Jobs are submitted one at a time in
    the manifest's per-line JSON format through {!Batch.Engine.submit},
    the same admission {!Batch.run} uses: prefilter, bounded queue,
    journal index in {e submission order}.  [config.workers] domains,
    spawned once per session, run {!Batch.Engine.work}.  This module adds
    routing, per-client rate limits and the [429]/[503] answers.

    That shared engine is the service's contract: the journal a serve
    session writes is byte-identical to the journal [msyn batch] writes
    for the same jobs in the same order (absent explicit cancellations,
    which only the service can produce).  A killed or drained server
    therefore resumes like a batch does — reopen the journal, cut the torn
    trailing line, treat recorded jobs as already done — and a client that
    resubmits after a crash gets instant answers for everything that had
    been journalled.

    {2 Protocol}

    All bodies are canonical {!Mixsyn_util.Json}.
    - [POST /jobs] — submit one job (manifest line format).  [202] with
      the job's state on admission; [200] when the id is already known
      (idempotent resubmission); [400] malformed body; [429] queue full or
      rate-limited (with [Retry-After]); [503] draining.
    - [GET /jobs] — every known job id and state, in submission order.
    - [GET /jobs/]{e id} — one job's state ([404] unknown).
    - [GET /jobs/]{e id}[/result] — the finished job's journal record,
      exactly the bytes of its journal line ([409] while queued/running).
    - [POST /jobs/]{e id}[/cancel] — cancel: a queued job is journalled
      [Cancelled] without executing; a running job's {!Mixsyn_util.Cancel}
      token is cancelled and the job records [Cancelled] at its next guard
      point ([409] when already finished).
    - [POST /drain] — graceful shutdown: stop admitting, finish every
      queued and running job, flush the journal, exit.  [SIGTERM] and
      [SIGINT] trigger the same drain from the CLI.
    - [GET /healthz] — liveness; [GET /metrics] — queue depth, job and
      rejection counts, stage-cache hit rate, this session's busy seconds
      per worker ({!Batch.Engine.stats}, one entry per worker) and the
      full {!Mixsyn_util.Telemetry} rollup. *)

type config = {
  host : string;             (** bind address; default ["127.0.0.1"] *)
  port : int;                (** [0] binds an ephemeral port *)
  journal : string;          (** journal-as-checkpoint path *)
  workers : int;             (** worker domains, spawned once per session *)
  queue_capacity : int;      (** queued-job bound; past it submits get 429 *)
  rate_limit : float;        (** submissions/s/client token rate; 0 = off *)
  rate_burst : float;        (** token-bucket capacity *)
  timeout_s : float option;  (** default per-job timeout (job field wins) *)
  retries : int;             (** per-job retry budget, as [msyn batch] *)
  prefilter : bool;          (** static infeasibility screen on admission *)
  request_timeout_s : float; (** per-request read/handle deadline *)
}

val default_config : journal:string -> config
(** Loopback host, ephemeral port, {!Mixsyn_util.Pool.default_jobs}
    workers, queue capacity 64, rate limiting off (burst 8 when enabled),
    no timeout, no retries, prefilter on, 10 s request deadline. *)

type handle
(** A running server, handed to [on_ready] once the socket is bound. *)

val port : handle -> int
(** The port actually bound — the ephemeral port when [config.port = 0]. *)

val drain : handle -> unit
(** Request graceful drain.  Async-signal-safe (a single atomic store):
    this is exactly what the CLI's [SIGTERM]/[SIGINT] handlers call. *)

val draining : handle -> bool

(** Counters for the whole session, returned when {!run} drains. *)
type stats = {
  requests : int;            (** HTTP requests served *)
  accepted : int;            (** jobs admitted (incl. prefiltered) *)
  resumed : int;             (** records adopted from the journal prefix *)
  finished : int;            (** records journalled this session *)
  cancelled : int;           (** of which cancelled *)
  rejected_queue_full : int;
  rejected_rate_limited : int;
  rejected_draining : int;
}

val run :
  ?executor:(Batch.job -> seed:int -> Mixsyn_util.Json.t) ->
  ?on_ready:(handle -> unit) ->
  config ->
  stats
(** Bind, serve until drained, return the session's counters.  Blocks the
    calling domain (the CLI calls it last; tests run it in a spawned
    domain and use [on_ready] to learn the port).  [executor] defaults to
    {!Batch.flow_executor}[ ~stage_cache:true] — the same default as
    {!Batch.run}, which the byte-identity contract depends on.

    @raise Unix.Unix_error when the socket cannot be bound. *)
