(* Batch synthesis tests: manifest parsing, the failure taxonomy (raise /
   timeout / retry), and the checkpoint journal's determinism contract —
   byte-identical output at any job count, after interruption, and after
   resuming from a torn trailing line. *)

module Batch = Mixsyn_flow.Batch
module Json = Mixsyn_util.Json
module Cancel = Mixsyn_util.Cancel
module Spec = Mixsyn_synth.Spec

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let temp_journal () =
  let path = Filename.temp_file "msyn_test_batch" ".journal" in
  Sys.remove path;
  path

(* a deterministic stand-in executor: no flow, just a value derived from
   the job and seed, so journal bytes depend on nothing else *)
let cheap_executor (job : Batch.job) ~seed =
  Json.Obj
    [ ("echo", Json.Str job.Batch.job_id);
      ("value", Json.Num (float_of_int (seed * 2) +. 0.5)) ]

let manifest_exn text =
  match Batch.manifest_of_string text with
  | Ok jobs -> jobs
  | Error msg -> Alcotest.failf "manifest rejected: %s" msg

let simple_manifest n =
  manifest_exn
    (String.concat "\n"
       (List.init n (fun i -> Printf.sprintf "{\"id\": \"j%02d\", \"seed\": %d}" i (i + 1))))

(* --- manifest parsing --------------------------------------------------- *)

let test_manifest_parse () =
  let jobs =
    manifest_exn
      {|# a comment line
{"id": "a", "seed": 7, "specs": [{"name": "gain_db", "at_least": 60.0}, {"name": "offset_v", "at_most": 1e-3, "weight": 2.0}, {"name": "ugf_hz", "between": [1e6, 1e8]}], "objectives": [{"maximize": "gain_db"}], "context": {"cl": 5e-12}, "topology": "miller-ota", "max_redesigns": 1, "timeout_s": 9.5}

{"id": "b"}
|}
  in
  match jobs with
  | [ a; b ] ->
    Alcotest.(check string) "id" "a" a.Batch.job_id;
    Alcotest.(check int) "seed" 7 a.Batch.seed;
    Alcotest.(check int) "specs" 3 (List.length a.Batch.specs);
    (match a.Batch.specs with
     | [ s1; s2; s3 ] ->
       (match s1.Spec.bound with
        | Spec.At_least v -> Alcotest.(check (float 0.0)) "at_least" 60.0 v
        | _ -> Alcotest.fail "s1 bound");
       (match s2.Spec.bound with
        | Spec.At_most v -> Alcotest.(check (float 0.0)) "at_most" 1e-3 v
        | _ -> Alcotest.fail "s2 bound");
       Alcotest.(check (float 0.0)) "weight" 2.0 s2.Spec.weight;
       (match s3.Spec.bound with
        | Spec.Between (lo, hi) ->
          Alcotest.(check (float 0.0)) "lo" 1e6 lo;
          Alcotest.(check (float 0.0)) "hi" 1e8 hi
        | _ -> Alcotest.fail "s3 bound")
     | _ -> Alcotest.fail "spec shapes");
    Alcotest.(check (option string)) "topology" (Some "miller-ota") a.Batch.topology;
    Alcotest.(check (option int)) "max_redesigns" (Some 1) a.Batch.max_redesigns;
    (match a.Batch.timeout_s with
     | Some t -> Alcotest.(check (float 0.0)) "timeout_s" 9.5 t
     | None -> Alcotest.fail "timeout_s missing");
    Alcotest.(check (list (pair string (float 0.0)))) "context" [ ("cl", 5e-12) ]
      a.Batch.context;
    (* defaults on the minimal job *)
    Alcotest.(check string) "default id" "b" b.Batch.job_id;
    Alcotest.(check int) "default seed" 13 b.Batch.seed;
    Alcotest.(check int) "default objectives" 1 (List.length b.Batch.objectives);
    Alcotest.(check bool) "no fault" true (b.Batch.fault = None)
  | l -> Alcotest.failf "expected 2 jobs, got %d" (List.length l)

let test_manifest_rejects () =
  let reject ?needle text =
    match Batch.manifest_of_string text with
    | Ok _ -> Alcotest.failf "manifest accepted: %s" text
    | Error msg ->
      (match needle with
       | None -> ()
       | Some n ->
         let nl = String.length n and ml = String.length msg in
         let rec scan i = i + nl <= ml && (String.sub msg i nl = n || scan (i + 1)) in
         if not (scan 0) then Alcotest.failf "error %S lacks %S" msg n)
  in
  reject ~needle:"duplicate" "{\"id\": \"x\"}\n{\"id\": \"x\"}";
  reject ~needle:"no jobs" "# only a comment\n";
  reject ~needle:"line 2" "{\"id\": \"ok\"}\n{\"id\": \"bad\", \"seed\": }";
  reject ~needle:"\"id\"" "{\"seed\": 3}";
  reject ~needle:"fault" "{\"id\": \"x\", \"fault\": \"explode\"}";
  reject ~needle:"bound" "{\"id\": \"x\", \"specs\": [{\"name\": \"gain_db\", \"at_least\": 1.0, \"at_most\": 2.0}]}";
  reject "{\"id\": \"x\", \"specs\": [{\"name\": \"gain_db\"}]}";
  reject "{\"id\": \"x\", \"objectives\": [{\"minimize\": \"a\", \"maximize\": \"b\"}]}"

let test_record_roundtrip () =
  let records =
    [ { Batch.rec_id = "ok"; rec_seed = 4; attempts = 1;
        status = Batch.Completed (Json.Obj [ ("v", Json.Num 1.25) ]) };
      { Batch.rec_id = "bad"; rec_seed = 1_000_007; attempts = 2;
        status = Batch.Failed { Batch.error = "check-failed"; diagnostics = [ "drc.x a: b" ] } };
      { Batch.rec_id = "slow"; rec_seed = 9; attempts = 1; status = Batch.Timed_out };
      { Batch.rec_id = "hopeless"; rec_seed = 3; attempts = 0;
        status =
          Batch.Infeasible
            { Batch.inf_spec = "gain_db"; inf_bound = "at least 1000";
              inf_lo = -30.0; inf_hi = 121.5 } } ]
  in
  List.iter
    (fun r ->
      let json = Batch.record_to_json r in
      match Batch.record_of_json json with
      | Ok r' when r' = r -> ()
      | Ok _ -> Alcotest.failf "record %s did not round-trip" r.Batch.rec_id
      | Error msg -> Alcotest.failf "record %s rejected: %s" r.Batch.rec_id msg)
    records

(* --- run_job: the failure taxonomy -------------------------------------- *)

let job_with ?fault ?timeout_s id =
  match
    Batch.manifest_of_string (Printf.sprintf "{\"id\": %S, \"seed\": 3}" id)
  with
  | Ok [ j ] -> { j with Batch.fault; timeout_s }
  | _ -> assert false

let test_run_job_completes () =
  let r = Batch.run_job ~executor:cheap_executor (job_with "fine") in
  Alcotest.(check int) "attempts" 1 r.Batch.attempts;
  Alcotest.(check int) "seed" 3 r.Batch.rec_seed;
  match r.Batch.status with
  | Batch.Completed (Json.Obj fields) ->
    Alcotest.(check bool) "echoes id" true
      (List.assoc_opt "echo" fields = Some (Json.Str "fine"))
  | _ -> Alcotest.fail "expected Completed"

let test_run_job_raise_fault () =
  let r = Batch.run_job ~executor:cheap_executor (job_with ~fault:Batch.Raise "boom") in
  match r.Batch.status with
  | Batch.Failed f ->
    Alcotest.(check bool) "classified" true
      (String.length f.Batch.error >= 8 && String.sub f.Batch.error 0 8 = "failure:")
  | _ -> Alcotest.fail "expected Failed"

let test_run_job_timeout () =
  let r =
    Batch.run_job ~executor:cheap_executor ~retries:3
      (job_with ~fault:Batch.Hang ~timeout_s:0.05 "spin")
  in
  Alcotest.(check bool) "timed out" true (r.Batch.status = Batch.Timed_out);
  (* timeouts are terminal, never retried *)
  Alcotest.(check int) "single attempt" 1 r.Batch.attempts

let test_run_job_per_job_timeout_overrides () =
  (* batch-wide 60s, per-job 0.05s: the per-job bound must win *)
  let t0 = Unix.gettimeofday () in
  let r =
    Batch.run_job ~executor:cheap_executor ~timeout_s:60.0
      (job_with ~fault:Batch.Hang ~timeout_s:0.05 "spin")
  in
  Alcotest.(check bool) "timed out" true (r.Batch.status = Batch.Timed_out);
  if Unix.gettimeofday () -. t0 > 10.0 then Alcotest.fail "per-job timeout ignored"

let test_run_job_retries_perturb_seed () =
  let seeds = ref [] in
  let executor (_ : Batch.job) ~seed =
    seeds := seed :: !seeds;
    if List.length !seeds < 3 then failwith "flaky" else Json.Num (float_of_int seed)
  in
  let r = Batch.run_job ~executor ~retries:2 (job_with "flaky") in
  Alcotest.(check int) "attempts" 3 r.Batch.attempts;
  Alcotest.(check (list int)) "deterministic seed schedule"
    [ 3; 3 + 1_000_003; 3 + (2 * 1_000_003) ]
    (List.rev !seeds);
  Alcotest.(check int) "recorded seed is the succeeding one" (3 + (2 * 1_000_003))
    r.Batch.rec_seed;
  match r.Batch.status with
  | Batch.Completed _ -> ()
  | _ -> Alcotest.fail "retry should have succeeded"

let test_run_job_retries_exhausted () =
  let calls = ref 0 in
  let executor (_ : Batch.job) ~seed:_ = incr calls; failwith "always" in
  let r = Batch.run_job ~executor ~retries:2 (job_with "doomed") in
  Alcotest.(check int) "three attempts" 3 !calls;
  match r.Batch.status with
  | Batch.Failed f -> Alcotest.(check string) "error" "failure: always" f.Batch.error
  | _ -> Alcotest.fail "expected Failed"

(* --- the journal contract ----------------------------------------------- *)

let run_to_journal ?jobs ?timeout_s ?retries manifest =
  let journal = temp_journal () in
  let summary =
    Batch.run ?jobs ?timeout_s ?retries ~executor:cheap_executor ~journal manifest
  in
  let bytes = read_file journal in
  Sys.remove journal;
  (summary, bytes)

let test_journal_jobs_invariant () =
  let manifest = simple_manifest 17 in
  let s1, b1 = run_to_journal ~jobs:1 manifest in
  Alcotest.(check int) "all completed" 17 s1.Batch.completed;
  List.iter
    (fun jobs ->
      let s, b = run_to_journal ~jobs manifest in
      Alcotest.(check int) (Printf.sprintf "completed at jobs=%d" jobs) 17 s.Batch.completed;
      if not (String.equal b1 b) then
        Alcotest.failf "journal bytes differ between jobs=1 and jobs=%d" jobs)
    [ 2; 4 ]

let test_workers_within_cores () =
  (* the summary reports the domains that actually ran: never more than
     the host's cores, whatever --jobs asked for *)
  let manifest = simple_manifest 6 in
  List.iter
    (fun jobs ->
      let s, _ = run_to_journal ~jobs manifest in
      let cores = Mixsyn_util.Pool.available_cores () in
      if s.Batch.run_jobs > cores then
        Alcotest.failf "jobs=%d: %d workers reported on %d core(s)" jobs s.Batch.run_jobs cores;
      Alcotest.(check int) (Printf.sprintf "workers at jobs=%d" jobs)
        (min jobs (min 6 cores)) s.Batch.run_jobs)
    [ 1; 4; 64 ]

let test_journal_resume_skips () =
  let manifest = simple_manifest 9 in
  let journal = temp_journal () in
  let _, full_bytes = run_to_journal ~jobs:1 manifest in
  (* first run executes only a prefix: simulate by pre-writing 4 records *)
  let prefix =
    let lines = String.split_on_char '\n' full_bytes in
    String.concat "\n" (List.filteri (fun i _ -> i < 4) lines) ^ "\n"
  in
  write_file journal prefix;
  let calls = ref [] in
  let executor (job : Batch.job) ~seed =
    calls := job.Batch.job_id :: !calls;
    cheap_executor job ~seed
  in
  let s = Batch.run ~jobs:2 ~executor ~journal manifest in
  Alcotest.(check int) "skipped" 4 s.Batch.skipped;
  Alcotest.(check int) "total" 9 s.Batch.total;
  Alcotest.(check int) "completed counts the whole manifest" 9 s.Batch.completed;
  Alcotest.(check (list string)) "only pending jobs executed"
    [ "j04"; "j05"; "j06"; "j07"; "j08" ]
    (List.sort compare !calls);
  Alcotest.(check string) "resumed journal identical" full_bytes (read_file journal);
  Sys.remove journal

let test_journal_resume_truncated_line () =
  let manifest = simple_manifest 7 in
  let journal = temp_journal () in
  let _, full_bytes = run_to_journal ~jobs:1 manifest in
  let prefix =
    let lines = String.split_on_char '\n' full_bytes in
    String.concat "\n" (List.filteri (fun i _ -> i < 3) lines) ^ "\n"
  in
  (* interruption damage: a record cut mid-write, no trailing newline *)
  write_file journal (prefix ^ "{\"id\":\"j03\",\"seed\":4,\"att");
  let s = Batch.run ~jobs:2 ~executor:cheap_executor ~journal manifest in
  Alcotest.(check int) "only intact records skip" 3 s.Batch.skipped;
  Alcotest.(check string) "repaired journal identical" full_bytes (read_file journal);
  Sys.remove journal

let test_journal_foreign_record_rejected () =
  let manifest = simple_manifest 3 in
  let journal = temp_journal () in
  write_file journal "{\"id\":\"stranger\",\"seed\":1,\"attempts\":1,\"status\":\"timed_out\"}\n";
  (match Batch.run ~jobs:1 ~executor:cheap_executor ~journal manifest with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "journal with foreign id must be rejected");
  Sys.remove journal

let test_run_rejects_bad_args () =
  let manifest = simple_manifest 2 in
  (match Batch.run ~retries:(-1) ~executor:cheap_executor ~journal:"/dev/null" manifest with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "negative retries must be rejected");
  let dup = [ List.hd manifest; List.hd manifest ] in
  match Batch.run ~executor:cheap_executor ~journal:"/dev/null" dup with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate ids must be rejected"

let test_faults_recorded_others_complete () =
  let manifest =
    manifest_exn
      (String.concat "\n"
         [ "{\"id\": \"good-1\", \"seed\": 1}";
           "{\"id\": \"bad\", \"seed\": 2, \"fault\": \"raise\"}";
           "{\"id\": \"good-2\", \"seed\": 3}";
           "{\"id\": \"slow\", \"seed\": 4, \"fault\": \"hang\", \"timeout_s\": 0.05}";
           "{\"id\": \"good-3\", \"seed\": 5}" ])
  in
  let s, bytes = run_to_journal ~jobs:2 manifest in
  Alcotest.(check int) "completed" 3 s.Batch.completed;
  Alcotest.(check int) "failed" 1 s.Batch.failed;
  Alcotest.(check int) "timed out" 1 s.Batch.timed_out;
  (* the journal stays in manifest order whatever finished first *)
  let ids =
    List.filter_map
      (fun line ->
        if line = "" then None
        else
          match Json.parse line with
          | Ok json -> Option.bind (Json.member "id" json) Json.to_str
          | Error _ -> None)
      (String.split_on_char '\n' bytes)
  in
  Alcotest.(check (list string)) "manifest order"
    [ "good-1"; "bad"; "good-2"; "slow"; "good-3" ] ids

let test_summary_json_shape () =
  let manifest = simple_manifest 3 in
  let s, _ = run_to_journal ~jobs:1 manifest in
  let json = Batch.summary_to_json s in
  Alcotest.(check (option (float 0.0))) "total" (Some 3.0)
    (Option.bind (Json.member "total" json) Json.to_float);
  Alcotest.(check (option (float 0.0))) "completed" (Some 3.0)
    (Option.bind (Json.member "completed" json) Json.to_float);
  match Option.bind (Json.member "records" json) Json.to_list with
  | Some l -> Alcotest.(check int) "records" 3 (List.length l)
  | None -> Alcotest.fail "summary lacks records"

(* --- the static prefilter ------------------------------------------------ *)

let infeasible_line ?(extra = "") id =
  Printf.sprintf
    "{\"id\": %S, \"seed\": 5, \"specs\": [{\"name\": \"gain_db\", \"at_least\": 1000.0}], \"topology\": \"ota-5t\"%s}"
    id extra

let test_prefilter_skips_infeasible () =
  let manifest =
    manifest_exn
      (String.concat "\n"
         [ "{\"id\": \"fine\", \"seed\": 1}"; infeasible_line "hopeless";
           "{\"id\": \"fine-2\", \"seed\": 2}" ])
  in
  let called = ref [] in
  let executor (job : Batch.job) ~seed =
    called := job.Batch.job_id :: !called;
    cheap_executor job ~seed
  in
  let journal = temp_journal () in
  let s = Batch.run ~jobs:1 ~executor ~journal manifest in
  Sys.remove journal;
  Alcotest.(check int) "prefiltered" 1 s.Batch.prefiltered;
  Alcotest.(check int) "completed" 2 s.Batch.completed;
  Alcotest.(check (list string)) "executor never saw the hopeless job"
    [ "fine"; "fine-2" ] (List.sort compare !called);
  match List.find (fun r -> r.Batch.rec_id = "hopeless") s.Batch.records with
  | { Batch.status = Batch.Infeasible inf; attempts = 0; _ } ->
    Alcotest.(check string) "names the spec" "gain_db" inf.Batch.inf_spec;
    Alcotest.(check string) "names the bound" "at least 1000" inf.Batch.inf_bound;
    Alcotest.(check bool) "enclosure excludes the bound" true (inf.Batch.inf_hi < 1000.0)
  | r ->
    Alcotest.failf "hopeless job recorded with attempts=%d and the wrong status"
      r.Batch.attempts

let test_prefilter_optional () =
  let manifest =
    manifest_exn (String.concat "\n" [ "{\"id\": \"fine\", \"seed\": 1}"; infeasible_line "hopeless" ])
  in
  let journal = temp_journal () in
  let s = Batch.run ~jobs:1 ~prefilter:false ~executor:cheap_executor ~journal manifest in
  Sys.remove journal;
  (* the cheap executor happily "completes" the impossible job: with the
     prefilter off every job must reach the executor *)
  Alcotest.(check int) "nothing prefiltered" 0 s.Batch.prefiltered;
  Alcotest.(check int) "all executed" 2 s.Batch.completed

let test_prefilter_never_skips_faults () =
  (* fault-injected jobs exist to exercise the failure taxonomy; an
     impossible spec must not divert them from the executor *)
  let manifest = manifest_exn (infeasible_line ~extra:", \"fault\": \"raise\"" "trap") in
  let journal = temp_journal () in
  let s = Batch.run ~jobs:1 ~executor:cheap_executor ~journal manifest in
  Sys.remove journal;
  Alcotest.(check int) "nothing prefiltered" 0 s.Batch.prefiltered;
  match (List.hd s.Batch.records).Batch.status with
  | Batch.Failed _ -> ()
  | _ -> Alcotest.fail "fault job must fail in the executor, not prefilter"

let test_prefilter_journal_jobs_invariant () =
  let manifest =
    manifest_exn
      (String.concat "\n"
         (infeasible_line "hopeless-0"
          :: List.init 6 (fun i -> Printf.sprintf "{\"id\": \"j%d\", \"seed\": %d}" i (i + 1))
         @ [ infeasible_line "hopeless-1" ]))
  in
  let run jobs =
    let journal = temp_journal () in
    let s = Batch.run ~jobs ~executor:cheap_executor ~journal manifest in
    let bytes = read_file journal in
    Sys.remove journal;
    (s, bytes)
  in
  let s1, b1 = run 1 in
  Alcotest.(check int) "prefiltered" 2 s1.Batch.prefiltered;
  Alcotest.(check int) "completed" 6 s1.Batch.completed;
  List.iter
    (fun jobs ->
      let s, b = run jobs in
      Alcotest.(check int) (Printf.sprintf "prefiltered at jobs=%d" jobs) 2 s.Batch.prefiltered;
      if not (String.equal b1 b) then
        Alcotest.failf "prefiltered journal bytes differ between jobs=1 and jobs=%d" jobs)
    [ 2; 4 ]

(* --- the cross-job stage cache ------------------------------------------ *)

let test_stage_cache_journal_invariant () =
  (* a repeated-spec manifest through the real sizing stage: the journal
     must be byte-identical at jobs {1,2,4} with the cache on or off, and
     the cached runs must actually hit *)
  let manifest =
    manifest_exn
      (String.concat "\n"
         (List.init 6 (fun i ->
              Printf.sprintf
                "{\"id\": \"c%d\", \"seed\": 11, \"specs\": [{\"name\": \"gain_db\", \"at_least\": %.1f}], \"objectives\": [{\"minimize\": \"power_w\"}], \"topology\": \"ota-5t\"}"
                i
                (30.0 +. float_of_int (i mod 2)))))
  in
  let schedule =
    { Mixsyn_opt.Anneal.t_start = 5.0; t_end = 0.5; cooling = 0.7; moves_per_stage = 40 }
  in
  let sizing_executor ~stage_cache (job : Batch.job) ~seed =
    let r =
      Mixsyn_flow.Flow.size_stage ~strategy:Mixsyn_synth.Sizing.Equation_annealing
        ~schedule ~stage_cache ~seed ~context:job.Batch.context ~specs:job.Batch.specs
        ~objectives:job.Batch.objectives Mixsyn_circuit.Topology.ota_5t
    in
    Json.Obj
      [ ("cost", Json.Num r.Mixsyn_synth.Sizing.cost);
        ("evaluations", Json.Num (float_of_int r.Mixsyn_synth.Sizing.evaluations)) ]
  in
  let run ~stage_cache jobs =
    let journal = temp_journal () in
    let s =
      Batch.run ~jobs ~prefilter:false ~executor:(sizing_executor ~stage_cache) ~journal
        manifest
    in
    let bytes = read_file journal in
    Sys.remove journal;
    (s, bytes)
  in
  let _, reference = run ~stage_cache:false 1 in
  List.iter
    (fun jobs ->
      List.iter
        (fun stage_cache ->
          let s, bytes = run ~stage_cache jobs in
          Alcotest.(check int)
            (Printf.sprintf "completed at jobs=%d cache=%b" jobs stage_cache)
            6 s.Batch.completed;
          if stage_cache && s.Batch.cache_hits + s.Batch.cache_misses < 6 then
            Alcotest.failf "cached run at jobs=%d never consulted the cache" jobs;
          if not (String.equal reference bytes) then
            Alcotest.failf "journal bytes differ at jobs=%d stage_cache=%b" jobs
              stage_cache)
        [ false; true ])
    [ 1; 2; 4 ];
  (* once warm, a repeat run resolves every job from the cache *)
  let s, bytes = run ~stage_cache:true 4 in
  Alcotest.(check int) "warm run misses nothing" 0 s.Batch.cache_misses;
  if s.Batch.cache_hits < 6 then Alcotest.fail "warm run should hit on every job";
  if not (String.equal reference bytes) then
    Alcotest.fail "warm cached journal differs from the uncached reference"

(* --- work-stealing order is unobservable --------------------------------- *)

let prop_stealing_order_invariant =
  QCheck.Test.make ~name:"work-stealing order never changes a journal record"
    ~count:20
    QCheck.(triple (int_range 0 100_000) (int_range 0 11) (int_range 0 2))
    (fun (salt, n, workers) ->
      (* 1-12 jobs on 2-4 workers, offset so that shrinking toward 0 stays
         in range *)
      let n = n + 1 and workers = workers + 2 in
      (* jobs with salt-derived seeds and deliberately skewed costs: the
         busy-work makes some jobs orders of magnitude heavier, so the
         stealing order genuinely varies between runs *)
      let manifest =
        manifest_exn
          (String.concat "\n"
             (List.init n (fun i ->
                  Printf.sprintf "{\"id\": \"q%02d\", \"seed\": %d}" i
                    (1 + ((salt + (i * 7919)) mod 1000)))))
      in
      let executor (job : Batch.job) ~seed =
        let spin = (seed * 31) mod 997 in
        let acc = ref 0.0 in
        for k = 1 to spin * 50 do
          acc := !acc +. sqrt (float_of_int k)
        done;
        Json.Obj
          [ ("echo", Json.Str job.Batch.job_id);
            ("value", Json.Num (float_of_int seed +. (!acc -. !acc))) ]
      in
      let run jobs =
        let journal = temp_journal () in
        ignore (Batch.run ~jobs ~executor ~journal manifest);
        let bytes = read_file journal in
        Sys.remove journal;
        bytes
      in
      String.equal (run 1) (run workers))

(* --- the job engine under random interleavings ----------------------------- *)

module Engine = Batch.Engine

(* ids e0..e5 execute; e6 is prefiltered on admission *)
let engine_job k =
  manifest_exn
    (if k = 6 then infeasible_line "e6"
     else Printf.sprintf "{\"id\": \"e%d\", \"seed\": %d}" k (k + 1))
  |> List.hd

let prop_engine_interleavings =
  QCheck.Test.make ~name:"engine interleavings journal each admitted job once, in order"
    ~count:30
    QCheck.(
      quad (int_range 0 2) (int_range 0 2) bool
        (list_of_size Gen.(int_range 1 24) (pair (int_range 0 3) (int_range 0 6))))
    (fun (workers, capacity, spinning, ops) ->
      (* 1-3 each, offset so that shrinking toward 0 stays in range *)
      let workers = workers + 1 and capacity = capacity + 1 in
      let ran = Atomic.make [] in
      let rec note id =
        let l = Atomic.get ran in
        if not (Atomic.compare_and_set ran l (id :: l)) then note id
      in
      let executor (job : Batch.job) ~seed =
        note job.Batch.job_id;
        if spinning then begin
          let t0 = Unix.gettimeofday () in
          while Unix.gettimeofday () -. t0 < 0.003 do
            Cancel.guard ();
            Unix.sleepf 2e-4
          done
        end;
        cheap_executor job ~seed
      in
      let journal = temp_journal () in
      let _, engine =
        Engine.create ~journal ~executor ~timeout_s:None ~retries:0 ~prefilter:true ~capacity
      in
      let domains =
        Array.init workers (fun slot -> Domain.spawn (fun () -> Engine.work engine slot))
      in
      let admitted = ref [] and cancelled_queued = ref [] in
      let running () =
        List.find_opt (fun id -> Engine.find engine id = Some Engine.Running) !admitted
      in
      List.iter
        (fun (op, k) ->
          let id = Printf.sprintf "e%d" k in
          match op with
          | 0 | 1 ->
            (* a resubmit once [id] is known *)
            (match Engine.submit engine (engine_job k) with
             | Engine.Admitted _ -> admitted := id :: !admitted
             | Engine.Known _ | Engine.Full | Engine.Closed -> ())
          | 2 ->
            if Engine.cancel engine id = Some Engine.Queued then
              cancelled_queued := id :: !cancelled_queued
          | _ ->
            (* cancel whichever job is running, waiting a few ms for one *)
            let rec poll n =
              match running () with
              | Some id -> ignore (Engine.cancel engine id)
              | None when n > 0 -> Unix.sleepf 5e-4; poll (n - 1)
              | None -> ()
            in
            poll 10)
        ops;
      Engine.close engine;
      Array.iter Domain.join domains;
      Engine.close_journal engine;
      let lines = List.filter (( <> ) "") (String.split_on_char '\n' (read_file journal)) in
      Sys.remove journal;
      let records =
        List.map
          (fun l ->
            match Result.bind (Json.parse l) Batch.record_of_json with
            | Ok r -> r
            | Error m -> QCheck.Test.fail_reportf "journal line %S does not parse: %s" l m)
          lines
      in
      let ids = List.map (fun r -> r.Batch.rec_id) records in
      if List.length (List.sort_uniq compare ids) <> List.length ids then
        QCheck.Test.fail_reportf "an id is journalled twice: [%s]" (String.concat " " ids);
      if ids <> List.rev !admitted then
        QCheck.Test.fail_reportf "journal ids [%s], admitted [%s]" (String.concat " " ids)
          (String.concat " " (List.rev !admitted));
      List.iter
        (fun id ->
          if List.mem id (Atomic.get ran) then
            QCheck.Test.fail_reportf "%s was cancelled while queued but reached the executor" id;
          match List.find (fun r -> r.Batch.rec_id = id) records with
          | { Batch.status = Batch.Cancelled; attempts = 0; _ } -> ()
          | _ -> QCheck.Test.fail_reportf "%s cancelled while queued, journalled otherwise" id)
        !cancelled_queued;
      true)

(* a job cancelled while queued gives its queue slot back at once: with the
   one worker busy and room for one queued job, cancelling that job admits
   the next submission *)
let test_cancel_frees_queue_slot () =
  let release = Atomic.make false in
  let executor job ~seed =
    while not (Atomic.get release) do
      Unix.sleepf 1e-3
    done;
    cheap_executor job ~seed
  in
  let journal = temp_journal () in
  let _, engine =
    Engine.create ~journal ~executor ~timeout_s:None ~retries:0 ~prefilter:true ~capacity:1
  in
  let worker = Domain.spawn (fun () -> Engine.work engine 0) in
  let submit k = Engine.submit engine (engine_job k) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Engine.close engine;
      Domain.join worker;
      Engine.close_journal engine;
      Sys.remove journal)
  @@ fun () ->
  ignore (submit 0);
  let rec wait n =
    if Engine.find engine "e0" <> Some Engine.Running then
      if n = 0 then Alcotest.fail "e0 never started"
      else begin
        Unix.sleepf 1e-3;
        wait (n - 1)
      end
  in
  wait 10_000;
  Alcotest.(check bool) "e1 queued" true (submit 1 = Engine.Admitted Engine.Queued);
  Alcotest.(check bool) "queue full" true (submit 2 = Engine.Full);
  Alcotest.(check bool) "e1 cancelled" true (Engine.cancel engine "e1" = Some Engine.Queued);
  Alcotest.(check int) "queue depth" 0 (Engine.stats engine).Engine.queued;
  Alcotest.(check bool) "e2 admitted" true (submit 2 = Engine.Admitted Engine.Queued)

(* --- a real flow under the timeout -------------------------------------- *)

let test_flow_executor_times_out () =
  (* an impossible specification would grind for minutes; the cooperative
     guards inside Flow.run must surface the cancel in well under that *)
  let manifest =
    manifest_exn
      "{\"id\": \"doomed\", \"seed\": 13, \"specs\": [{\"name\": \"gain_db\", \"at_least\": 200.0}], \"topology\": \"miller-ota\", \"timeout_s\": 0.3}"
  in
  let t0 = Unix.gettimeofday () in
  let r = Batch.run_job (List.hd manifest) in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "timed out" true (r.Batch.status = Batch.Timed_out);
  if dt > 30.0 then Alcotest.failf "cancellation took %.1fs" dt

let () =
  Alcotest.run "batch"
    [ ( "manifest",
        [ Alcotest.test_case "parse" `Quick test_manifest_parse;
          Alcotest.test_case "rejects" `Quick test_manifest_rejects;
          Alcotest.test_case "record roundtrip" `Quick test_record_roundtrip ] );
      ( "run-job",
        [ Alcotest.test_case "completes" `Quick test_run_job_completes;
          Alcotest.test_case "raise fault" `Quick test_run_job_raise_fault;
          Alcotest.test_case "timeout" `Quick test_run_job_timeout;
          Alcotest.test_case "per-job timeout wins" `Quick test_run_job_per_job_timeout_overrides;
          Alcotest.test_case "retry seeds" `Quick test_run_job_retries_perturb_seed;
          Alcotest.test_case "retries exhausted" `Quick test_run_job_retries_exhausted ] );
      ( "journal",
        [ Alcotest.test_case "jobs invariant" `Quick test_journal_jobs_invariant;
          Alcotest.test_case "workers within cores" `Quick test_workers_within_cores;
          Alcotest.test_case "resume skips" `Quick test_journal_resume_skips;
          Alcotest.test_case "torn line resume" `Quick test_journal_resume_truncated_line;
          Alcotest.test_case "foreign record" `Quick test_journal_foreign_record_rejected;
          Alcotest.test_case "bad arguments" `Quick test_run_rejects_bad_args;
          Alcotest.test_case "faults isolated" `Quick test_faults_recorded_others_complete;
          Alcotest.test_case "summary json" `Quick test_summary_json_shape ] );
      ( "prefilter",
        [ Alcotest.test_case "skips infeasible" `Quick test_prefilter_skips_infeasible;
          Alcotest.test_case "optional" `Quick test_prefilter_optional;
          Alcotest.test_case "faults still run" `Quick test_prefilter_never_skips_faults;
          Alcotest.test_case "jobs invariant" `Quick test_prefilter_journal_jobs_invariant ] );
      ( "stage-cache",
        [ Alcotest.test_case "journal invariant" `Quick test_stage_cache_journal_invariant;
          QCheck_alcotest.to_alcotest prop_stealing_order_invariant ] );
      ( "engine",
        [ QCheck_alcotest.to_alcotest prop_engine_interleavings;
          Alcotest.test_case "cancel frees queue slot" `Quick test_cancel_frees_queue_slot ] );
      ( "flow",
        [ Alcotest.test_case "cooperative timeout" `Slow test_flow_executor_times_out ] ) ]
