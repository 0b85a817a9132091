(* The synthesis service: an HTTP/1.1 front end over the batch job engine.

   Concurrency model, chosen for auditability over raw connection count:
   - one accept loop (the calling domain) multiplexing with [Unix.select]
     at a 0.1 s tick so it notices the drain flag promptly;
   - one lightweight thread per accepted connection, which only parses
     requests and calls into the engine — it never executes synthesis
     work, so a slow client cannot stall a job;
   - [config.workers] domains, spawned once per session, each running the
     engine's work loop exactly like a batch worker.

   The job lifecycle — table, submission-order journal indices, prefilter,
   bounded queue, cancellation, per-worker busy time — is
   [Batch.Engine], the same engine [Batch.run] drains a manifest through,
   which is what makes a serve journal byte-identical to the equivalent
   batch journal.  This module adds routing, per-client rate limits and
   the 429/503 answers. *)

module Json = Mixsyn_util.Json
module Http = Mixsyn_util.Http
module Cancel = Mixsyn_util.Cancel
module Telemetry = Mixsyn_util.Telemetry
module Engine = Batch.Engine

type config = {
  host : string;
  port : int;
  journal : string;
  workers : int;
  queue_capacity : int;
  rate_limit : float;
  rate_burst : float;
  timeout_s : float option;
  retries : int;
  prefilter : bool;
  request_timeout_s : float;
}

let default_config ~journal =
  { host = "127.0.0.1";
    port = 0;
    journal;
    workers = Mixsyn_util.Pool.default_jobs ();
    queue_capacity = 64;
    rate_limit = 0.0;
    rate_burst = 8.0;
    timeout_s = None;
    retries = 0;
    prefilter = true;
    request_timeout_s = 10.0 }

type bucket = { mutable tokens : float; mutable last : float }

type handle = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  drain_flag : bool Atomic.t;
  engine : Engine.t;
  lock : Mutex.t;  (* guards [buckets] *)
  buckets : (string, bucket) Hashtbl.t;
  requests : int Atomic.t;
  rej_queue_full : int Atomic.t;
  rej_rate_limited : int Atomic.t;
  rej_draining : int Atomic.t;
}

type stats = {
  requests : int;
  accepted : int;
  resumed : int;
  finished : int;
  cancelled : int;
  rejected_queue_full : int;
  rejected_rate_limited : int;
  rejected_draining : int;
}

let port h = h.bound_port
let drain h = Atomic.set h.drain_flag true
let draining h = Atomic.get h.drain_flag

(* ---- views ------------------------------------------------------------- *)

let state_name = function
  | Engine.Queued -> "queued"
  | Engine.Running -> "running"
  | Engine.Done r ->
    (match r.Batch.status with
     | Batch.Completed _ -> "completed"
     | Batch.Failed _ -> "failed"
     | Batch.Timed_out -> "timed_out"
     | Batch.Infeasible _ -> "infeasible"
     | Batch.Cancelled -> "cancelled")

let view id name = Json.Obj [ ("id", Json.Str id); ("state", Json.Str name) ]

let answer ?(headers = []) status json = (status, headers, Json.to_string json)

let err msg = Json.Obj [ ("error", Json.Str msg) ]

let error_answer ?headers status fmt =
  Printf.ksprintf (fun msg -> answer ?headers status (err msg)) fmt

(* ---- admission --------------------------------------------------------- *)

(* token bucket per client: [Some seconds] to wait, or [None] to admit *)
let rate_limited h client =
  if h.cfg.rate_limit <= 0.0 then None
  else
    Mutex.protect h.lock @@ fun () ->
    let now = Unix.gettimeofday () in
    let b =
      match Hashtbl.find_opt h.buckets client with
      | Some b -> b
      | None ->
        let b = { tokens = h.cfg.rate_burst; last = now } in
        Hashtbl.replace h.buckets client b;
        b
    in
    b.tokens <- Float.min h.cfg.rate_burst (b.tokens +. ((now -. b.last) *. h.cfg.rate_limit));
    b.last <- now;
    if b.tokens >= 1.0 then begin
      b.tokens <- b.tokens -. 1.0;
      None
    end
    else Some (max 1 (int_of_float (Float.ceil ((1.0 -. b.tokens) /. h.cfg.rate_limit))))

let reject_draining h =
  Atomic.incr h.rej_draining;
  Telemetry.count "serve.rejected.draining";
  error_answer 503 "draining: not admitting new jobs"

(* a known id answers 200 before any limit applies: resubmission after a
   crash is idempotent and free *)
let submit h client body =
  if Atomic.get h.drain_flag then reject_draining h
  else
    match Result.bind (Json.parse body) Batch.job_of_json with
    | Error msg -> answer 400 (err msg)
    | Ok job ->
      let id = job.Batch.job_id in
      (match Engine.find h.engine id with
       | Some state -> answer 200 (view id (state_name state))
       | None ->
         (match rate_limited h client with
          | Some retry_after ->
            Atomic.incr h.rej_rate_limited;
            Telemetry.count "serve.rejected.rate_limited";
            error_answer ~headers:[ ("Retry-After", string_of_int retry_after) ] 429
              "rate limit exceeded"
          | None ->
            (match Engine.submit h.engine job with
             | Engine.Admitted state ->
               Telemetry.count "serve.accepted";
               answer 202 (view id (state_name state))
             | Engine.Known state -> answer 200 (view id (state_name state))
             | Engine.Full ->
               Atomic.incr h.rej_queue_full;
               Telemetry.count "serve.rejected.queue_full";
               error_answer ~headers:[ ("Retry-After", "1") ] 429 "work queue full"
             | Engine.Closed -> reject_draining h)))

let cancel_job h id =
  match Engine.cancel h.engine id with
  | None -> error_answer 404 "unknown job %S" id
  | Some (Engine.Done _) -> error_answer 409 "job %S already finished" id
  | Some Engine.Queued -> answer 200 (view id "cancelled")
  | Some Engine.Running -> answer 202 (view id "cancelling")

(* ---- read-side routes -------------------------------------------------- *)

let job_list h =
  let jobs = (Engine.stats h.engine).Engine.jobs in
  answer 200
    (Json.Obj [ ("jobs", Json.Arr (List.map (fun (id, st) -> view id (state_name st)) jobs)) ])

let job_status h id =
  match Engine.find h.engine id with
  | None -> error_answer 404 "unknown job %S" id
  | Some state -> answer 200 (view id (state_name state))

let job_result h id =
  match Engine.find h.engine id with
  | None -> error_answer 404 "unknown job %S" id
  (* exactly the journal line's bytes: the render is the same canonical
     [record_to_json] the writer used *)
  | Some (Engine.Done r) -> answer 200 (Batch.record_to_json r)
  | Some state -> error_answer 409 "job %S is %s" id (state_name state)

let healthz h =
  answer 200
    (Json.Obj [ ("status", Json.Str "ok"); ("draining", Json.Bool (Atomic.get h.drain_flag)) ])

let metrics h =
  let s = Engine.stats h.engine in
  let names = List.map (fun (_, st) -> state_name st) s.Engine.jobs in
  let num n = Json.Num (float_of_int n) in
  let by_state =
    List.map
      (fun k -> (k, num (List.length (List.filter (String.equal k) names))))
      (List.sort_uniq compare names)
  in
  let hits, misses = Flow.stage_cache_stats () in
  let hit_rate =
    if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)
  in
  (* this session's engine only: one entry per worker, idle ones at 0 *)
  let worker_busy =
    List.init h.cfg.workers (fun i ->
        ( string_of_int i,
          Json.Num (Option.value (List.assoc_opt i s.Engine.busy_s) ~default:0.0) ))
  in
  answer 200
    (Json.Obj
       [ ( "queue",
           Json.Obj
             [ ("depth", num s.Engine.queued);
               ("capacity", num h.cfg.queue_capacity);
               ("running", num s.Engine.running) ] );
         ( "jobs",
           Json.Obj
             (("accepted", num s.Engine.accepted)
              :: ("resumed", num s.Engine.resumed)
              :: ("finished", num s.Engine.finished)
              :: by_state) );
         ( "rejected",
           Json.Obj
             [ ("queue_full", num (Atomic.get h.rej_queue_full));
               ("rate_limited", num (Atomic.get h.rej_rate_limited));
               ("draining", num (Atomic.get h.rej_draining)) ] );
         ( "stage_cache",
           Json.Obj
             [ ("hits", num hits); ("misses", num misses); ("hit_rate", Json.Num hit_rate) ] );
         ("worker_busy_s", Json.Obj worker_busy);
         ("requests", num (Atomic.get h.requests));
         ("draining", Json.Bool (Atomic.get h.drain_flag));
         ("telemetry", Telemetry.to_json_value ()) ])

(* ---- routing ----------------------------------------------------------- *)

let segments path =
  List.filter (fun s -> s <> "") (String.split_on_char '/' path)

let route h client (req : Http.request) =
  match (req.Http.meth, segments req.Http.path) with
  | "GET", [ "healthz" ] -> healthz h
  | "GET", [ "metrics" ] -> metrics h
  | "POST", [ "jobs" ] -> submit h client req.Http.body
  | "GET", [ "jobs" ] -> job_list h
  | "GET", [ "jobs"; id ] -> job_status h id
  | "GET", [ "jobs"; id; "result" ] -> job_result h id
  | "POST", [ "jobs"; id; "cancel" ] -> cancel_job h id
  | "POST", [ "drain" ] ->
    drain h;
    answer 202 (Json.Obj [ ("draining", Json.Bool true) ])
  | _, ([ "healthz" ] | [ "metrics" ] | [ "jobs" ] | [ "drain" ] | [ "jobs"; _ ]
       | [ "jobs"; _; ("result" | "cancel") ]) ->
    error_answer 405 "method %s not allowed here" req.Http.meth
  | _ -> error_answer 404 "unknown route %s" req.Http.path

(* ---- connection handling ----------------------------------------------- *)

let client_of fd =
  match Unix.getpeername fd with
  | Unix.ADDR_INET (addr, _) -> Unix.string_of_inet_addr addr
  | Unix.ADDR_UNIX _ -> "local"
  | exception Unix.Unix_error _ -> "unknown"

let handle_conn h fd =
  let client = client_of fd in
  let c = Http.conn fd in
  let rec loop () =
    match Http.next_request ~timeout_s:h.cfg.request_timeout_s c with
    | Ok req ->
      Atomic.incr h.requests;
      Telemetry.count "serve.requests";
      (* per-request deadline: route handlers run under an ambient Cancel
         token so anything guarded inside them respects the same budget as
         the socket read *)
      let token = Cancel.create ~timeout_s:h.cfg.request_timeout_s () in
      let status, headers, body =
        match Cancel.with_token token (fun () -> route h client req) with
        | v -> v
        | exception Cancel.Cancelled -> (408, [], Json.to_string (err "request deadline"))
        | exception exn -> (500, [], Json.to_string (err (Printexc.to_string exn)))
      in
      let close =
        match Http.header req "connection" with
        | Some v -> String.lowercase_ascii (String.trim v) = "close"
        | None -> false
      in
      Http.respond ~headers ~close fd ~status ~body;
      if not close then loop ()
    | Error Http.Closed | Error Http.Torn ->
      (* peer gone — between requests is normal, mid-request is its loss *)
      ()
    | Error Http.Timeout ->
      Http.respond fd ~status:408 ~body:(Json.to_string (err "request read timeout"))
    | Error (Http.Too_big msg) ->
      Http.respond fd ~status:413 ~body:(Json.to_string (err msg))
    | Error (Http.Bad msg) ->
      (* framing is unknown after a malformed request: answer and close *)
      Http.respond fd ~status:400 ~body:(Json.to_string (err msg))
  in
  (try loop () with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- the accept loop --------------------------------------------------- *)

(* once draining, close admission (which wakes idle work loops so they can
   return) and stop when every admitted job has been journalled *)
let rec accept_loop h =
  let finished =
    Atomic.get h.drain_flag
    &&
    (Engine.close h.engine;
     Engine.drained h.engine)
  in
  if not finished then begin
    (match Unix.select [ h.listen_fd ] [] [] 0.1 with
     | [], _, _ -> ()
     | _ :: _, _, _ ->
       (match Unix.accept h.listen_fd with
        | fd, _ -> ignore (Thread.create (handle_conn h) fd)
        | exception
            Unix.Unix_error
              ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _) ->
          ())
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    accept_loop h
  end

let run ?executor ?on_ready cfg =
  if cfg.workers < 1 then
    invalid_arg (Printf.sprintf "Serve.run: workers %d < 1" cfg.workers);
  if cfg.queue_capacity < 1 then
    invalid_arg (Printf.sprintf "Serve.run: queue capacity %d < 1" cfg.queue_capacity);
  (* a peer closing mid-write must surface as EPIPE, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let executor =
    match executor with Some e -> e | None -> Batch.flow_executor ~stage_cache:true
  in
  (* adopt the journal's valid prefix: those jobs are already done, and a
     resubmission of the same id answers instantly from the record *)
  let _, engine =
    Engine.create ~journal:cfg.journal ~executor ~timeout_s:cfg.timeout_s
      ~retries:cfg.retries ~prefilter:cfg.prefilter ~capacity:cfg.queue_capacity
  in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     Unix.listen listen_fd 64
   with
  | () -> ()
  | exception exn ->
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    Engine.close_journal engine;
    raise exn);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let h =
    { cfg;
      listen_fd;
      bound_port;
      drain_flag = Atomic.make false;
      engine;
      lock = Mutex.create ();
      buckets = Hashtbl.create 16;
      requests = Atomic.make 0;
      rej_queue_full = Atomic.make 0;
      rej_rate_limited = Atomic.make 0;
      rej_draining = Atomic.make 0 }
  in
  let workers = Array.init cfg.workers (fun i -> Domain.spawn (fun () -> Engine.work engine i)) in
  Option.iter (fun f -> f h) on_ready;
  accept_loop h;
  Array.iter Domain.join workers;
  Engine.close_journal engine;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  let s = Engine.stats engine in
  { requests = Atomic.get h.requests;
    accepted = s.Engine.accepted;
    resumed = s.Engine.resumed;
    finished = s.Engine.finished;
    cancelled = s.Engine.cancelled;
    rejected_queue_full = Atomic.get h.rej_queue_full;
    rejected_rate_limited = Atomic.get h.rej_rate_limited;
    rejected_draining = Atomic.get h.rej_draining }
