(* The mixsyn benchmark: one workload per run, its inputs generated from a
   seed, the program driven only through its public entry points, every
   output checked, and one JSON result line printed last.

     main.exe run --workload W --seed N --seconds S --trace 0|1 [--poll-ms MS]
     main.exe steady --workload W --runs N [--seed0 N] [--seconds S] [--trace 0|1] [--poll-ms MS]
     main.exe setup --workload W --seed N     (one timed set-up; see setup_only)

   See README.md for what each workload exercises and what each metric
   should move. *)

open Perfbench
module Json = Mixsyn_util.Json
module Telemetry = Mixsyn_util.Telemetry
module Pool = Mixsyn_util.Pool
module Batch = Mixsyn_flow.Batch
module Flow = Mixsyn_flow.Flow
module Spec = Mixsyn_synth.Spec
module Template = Mixsyn_circuit.Template
module PD = Mixsyn_synth.Pulse_detector

let now = Unix.gettimeofday
let work_dir = ".perfbench"
let tech = Mixsyn_circuit.Tech.generic_07um

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s

(* ---- the metric catalogue, read from BENCHMARK.json --------------------- *)

type metric = { m_name : string; m_unit : string; m_better : string; m_bound : float option }

(* (end_to_end, per_layer) as BENCHMARK.json, in the working directory,
   declares them *)
let catalogue () =
  match Json.parse (read_file "BENCHMARK.json") with
  | Error msg -> failwith ("BENCHMARK.json: " ^ msg)
  | Ok b ->
    let section key =
      List.map
        (fun m ->
          let str k =
            match Option.bind (Json.member k m) Json.to_str with
            | Some v -> v
            | None -> failwith (Printf.sprintf "BENCHMARK.json: a %s metric lacks %S" key k)
          in
          { m_name = str "name"; m_unit = str "unit"; m_better = str "better";
            m_bound = Option.bind (Json.member "bound" m) Json.to_float })
        (Option.value (Option.bind (Json.member key b) Json.to_list) ~default:[])
    in
    (section "end_to_end", section "per_layer")

(* ---- one run's tallies -------------------------------------------------- *)

type acc = {
  mutable attempted : int;         (* jobs, plus counted requests for serve *)
  mutable jobs : int;
  mutable failed : int;
  mutable correct_records : int;   (* completed or correctly refused *)
  mutable latencies : float list;  (* s, jobs that executed *)
  mutable powers_uw : float list;  (* catalogue jobs that completed *)
  mutable areas_um2 : float list;
  mutable problems : string list;  (* output-check failures *)
  mutable measured_s : float;
  mutable alloc_words : float;
  mutable setup_s : float;
  mutable rss_mb : float;
  failures : (string, int) Hashtbl.t;
  layer : (string, float) Hashtbl.t;
}

let new_acc () =
  { attempted = 0; jobs = 0; failed = 0; correct_records = 0; latencies = []; powers_uw = [];
    areas_um2 = []; problems = []; measured_s = 0.0; alloc_words = 0.0; setup_s = 0.0;
    rss_mb = 0.0; failures = Hashtbl.create 8; layer = Hashtbl.create 64 }

let problem acc ps = acc.problems <- acc.problems @ ps
let set acc k v = Hashtbl.replace acc.layer k v

let tally acc key =
  Hashtbl.replace acc.failures key (1 + Option.value (Hashtbl.find_opt acc.failures key) ~default:0)

(* "check-failed drc.contact-enclosure+drc.min-width": error class plus the
   distinct rule ids, so a fault's signature is one tally line *)
let failure_key error rules =
  match List.sort_uniq compare rules with
  | [] -> error
  | rs -> error ^ " " ^ String.concat "+" rs

let rule_of_diag d = match String.index_opt d ' ' with Some i -> String.sub d 0 i | None -> d

let lock = Mutex.create ()

(* ---- process measurements ---------------------------------------------- *)

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* VmHWM of /proc/<pid>/status, in MB *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> nan
    | l -> (try Scanf.sscanf l "VmHWM: %f kB" (fun kb -> kb /. 1024.0) with Scanf.Scan_failure _ | End_of_file -> go ())
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* (steal, total) ticks of the aggregate cpu line of /proc/stat: on a
   virtual machine, the share of CPU time the hypervisor gave elsewhere *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0.0, 0.0)
  | ic ->
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    let fields =
      List.filter_map float_of_string_opt (List.tl (String.split_on_char ' ' line))
    in
    let steal = match List.nth_opt fields 7 with Some v -> v | None -> 0.0 in
    (steal, List.fold_left ( +. ) 0.0 fields)

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* median seconds per call of [f] over [n] calls; a call that raises (an
   AWE order with no Padé approximant) is timed like any other *)
let replay n f = Stats.median (List.init n (fun _ -> snd (time (fun () -> try f () with _ -> ()))))

let rm path = try Sys.remove path with Sys_error _ -> ()

(* ---- telemetry read from outside ---------------------------------------- *)

(* the registry as JSON: in-process from Telemetry.to_json_value, for serve
   from the "telemetry" member of GET /metrics -- one reader for both *)
let counter tel name =
  match Option.bind (Json.member "counters" tel) (Json.member name) with
  | Some v -> Option.value (Json.to_float v) ~default:0.0
  | None -> 0.0

(* (calls, seconds) summed over every span whose name satisfies [p] *)
let span_sum tel p =
  let rec walk (c, s) j =
    let name = Option.value (Option.bind (Json.member "name" j) Json.to_str) ~default:"" in
    let num k = Option.value (Option.bind (Json.member k j) Json.to_float) ~default:0.0 in
    let c, s = if p name then (c +. num "calls", s +. num "seconds") else (c, s) in
    List.fold_left walk (c, s)
      (Option.value (Option.bind (Json.member "children" j) Json.to_list) ~default:[])
  in
  List.fold_left walk (0.0, 0.0)
    (Option.value (Option.bind (Json.member "spans" tel) Json.to_list) ~default:[])

let starts_with pre s = String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre
let span_s tel name = snd (span_sum tel (( = ) name))
let span_prefix_s tel pre = snd (span_sum tel (starts_with pre))

let ratio a b = if b > 0.0 then a /. b else 0.0

(* per-layer metrics every workload derives from the program's telemetry;
   [jobs] is the divisor for per-job figures, [wall] the summed job wall
   time the stage spans are set against *)
let telemetry_layers acc tel ~jobs ~wall =
  let per k = ratio (counter tel k) jobs in
  let pre = span_s tel "flow.feasibility" +. span_s tel "flow.topology-selection"
            +. span_s tel "flow.box-contraction" in
  let sizing = span_prefix_s tel "flow.sizing-pass" in
  let layout = span_prefix_s tel "flow.layout-pass" in
  let extraction = span_prefix_s tel "flow.extraction-pass" in
  let checks = span_prefix_s tel "flow.check-" in
  let flow_wall = if span_s tel "flow.run" > 0.0 then wall else 0.0 in
  let residual = Float.max 0.0 (flow_wall -. (pre +. sizing +. layout +. extraction +. checks)) in
  set acc "flow.preflight_s" (ratio pre jobs);
  set acc "flow.sizing_s" (ratio sizing jobs);
  set acc "flow.layout_s" (ratio layout jobs);
  set acc "flow.extraction_s" (ratio extraction jobs);
  set acc "flow.checks_s" (ratio checks jobs);
  set acc "flow.residual_s" (ratio residual jobs);
  set acc "flow.residual_share" (ratio residual flow_wall);
  set acc "flow.redesigns_per_job" (per "flow.redesigns");
  let hits = counter tel "flow.stage_cache.hits" and misses = counter tel "flow.stage_cache.misses" in
  set acc "flow.stage_cache.hits" hits;
  set acc "flow.stage_cache.hit_rate" (ratio hits (hits +. misses));
  let evals = counter tel "sizing.evaluator_invocations" in
  set acc "synth.evals_per_job" (ratio evals jobs);
  set acc "synth.us_per_eval" (1e6 *. ratio (span_s tel "sizing.size") evals);
  set acc "synth.anneal_s" (ratio (span_s tel "sizing.anneal") jobs);
  set acc "synth.polish_s" (ratio (span_s tel "sizing.polish") jobs);
  let ch = counter tel "sizing.cache.hits" and cm = counter tel "sizing.cache.misses" in
  set acc "synth.eval_cache.hit_rate" (ratio ch (ch +. cm));
  let dh = counter tel "detector.cache.hits" and dm = counter tel "detector.cache.misses" in
  set acc "synth.detector.eval_cache.hit_rate" (ratio dh (dh +. dm));
  let proposed = counter tel "anneal.proposed" in
  set acc "opt.anneal.moves_per_job" (ratio proposed jobs);
  set acc "opt.anneal.accept_ratio" (ratio (counter tel "anneal.accepted") proposed);
  set acc "opt.nelder_mead.evals_per_job" (per "nelder_mead.evaluations");
  let solves = counter tel "dc.solves" in
  set acc "engine.dc.solves_per_job" (ratio solves jobs);
  set acc "engine.dc.iters_per_solve" (ratio (counter tel "dc.newton_iterations") solves);
  set acc "engine.dc.fallbacks_per_job"
    (ratio (counter tel "dc.gmin_stepping_runs" +. counter tel "dc.source_stepping_runs"
            +. counter tel "dc.newton_failures") jobs);
  let pade = counter tel "awe.pade_calls" in
  set acc "awe.calls_per_job" (ratio pade jobs);
  set acc "awe.fallbacks_per_call" (ratio (counter tel "awe.order_fallbacks") pade);
  let passes = fst (span_sum tel (starts_with "flow.layout-pass")) in
  set acc "layout.koan_calls_per_pass" (ratio (fst (span_sum tel (( = ) "layout.koan"))) passes);
  set acc "layout.place_s" (ratio (span_s tel "layout.place") jobs);
  set acc "layout.route_s" (ratio (span_s tel "layout.route") jobs);
  set acc "layout.grid_expansions_per_job" (per "router.grid_expansions");
  set acc "layout.ripup_passes_per_job" (per "router.ripup_passes");
  set acc "check.drc_errors_per_job" (per "check.drc.errors");
  set acc "pool.parallel_runs_per_job" (per "pool.parallel_runs");
  set acc "pool.grain_fallbacks_per_job" (per "pool.grain_fallbacks")

(* ---- the synthesis problems as the program sees them -------------------- *)

let parse_manifest acc text =
  match Batch.manifest_of_string text with
  | Ok jobs -> jobs
  | Error msg ->
    problem acc [ "generated manifest rejected: " ^ msg ];
    []

let bound_of (b : Spec.bound) =
  match b with
  | Spec.At_least x -> Check.At_least x
  | Spec.At_most x -> Check.At_most x
  | Spec.Between (lo, hi) -> Check.Between (lo, hi)

let spec_bounds (j : Batch.job) = List.map (fun (s : Spec.t) -> (s.Spec.s_name, bound_of s.Spec.bound)) j.Batch.specs

let template_named name =
  List.find_opt (fun (t : Template.t) -> t.Template.t_name = name) Mixsyn_circuit.Topology.all

let cell_rects (cells : Mixsyn_layout.Cell.t list) =
  List.mapi
    (fun i (c : Mixsyn_layout.Cell.t) ->
      let open Mixsyn_layout.Geom in
      let x0, y0, x1, y1 =
        List.fold_left
          (fun (a, b, c, d) r -> (Float.min a r.x0, Float.min b r.y0, Float.max c r.x1, Float.max d r.y1))
          (infinity, infinity, neg_infinity, neg_infinity)
          c.Mixsyn_layout.Cell.rects
      in
      { Check.name = Printf.sprintf "%s#%d" c.Mixsyn_layout.Cell.cell_name i; x0; y0; x1; y1 })
    cells

(* the flow outcome's checks: met claims and the sized box *)
let check_outcome acc (gj : Gen.job) (bj : Batch.job) (o : Flow.outcome) =
  let id = gj.Gen.id in
  problem acc
    (Check.met_claim ~id ~claims_met:o.Flow.meets_post_layout ~specs:(spec_bounds bj) o.Flow.post_layout);
  match template_named o.Flow.template.Template.t_name with
  | Some t ->
    let box = Array.map (fun (p : Template.param) -> (p.Template.p_name, p.Template.lo, p.Template.hi)) t.Template.params in
    problem acc (Check.in_box ~id ~box o.Flow.sizing.Mixsyn_synth.Sizing.params)
  | None -> problem acc [ id ^ ": unknown topology " ^ o.Flow.template.Template.t_name ]

(* design quality over the catalogue's own problems: repeats would weight a
   problem twice, and the fault probe's result would move the means the
   moment the fault is mended *)
let quality acc (gj : Gen.job) ~power_w ~area_um2 =
  if gj.Gen.role = Gen.Fresh then begin
    acc.powers_uw <- (power_w *. 1e6) :: acc.powers_uw;
    acc.areas_um2 <- area_um2 :: acc.areas_um2
  end

let flow_quality acc =
  set acc "flow.design_power_uw" (Stats.geomean acc.powers_uw);
  set acc "layout.design_area_um2" (Stats.geomean acc.areas_um2)

(* engine kernels replayed on each finished design -- DC, one 91-point AC
   sweep, AWE -- reported as the mean over designs of each one's median *)
let replay_engine acc nls ~awe_order ~reps =
  let freqs = Mixsyn_engine.Ac.log_sweep ~decades_from:0.0 ~decades_to:9.0 ~points_per_decade:10 in
  let per_design =
    List.filter_map
      (fun nl ->
        match Mixsyn_engine.Dc.solve ~tech nl with
        | exception _ -> None
        | op ->
          let out = Mixsyn_circuit.Netlist.find_net nl "out" in
          let dc =
            Trace.with_span "replay.Dc.solve" (fun () ->
                replay reps (fun () -> ignore (Mixsyn_engine.Dc.solve ~tech nl)))
          in
          let ac =
            Trace.with_span "replay.Ac.solve" (fun () ->
                replay reps (fun () -> ignore (Mixsyn_engine.Ac.solve ~tech nl op ~freqs)))
          in
          let awe =
            Trace.with_span "replay.Awe.of_circuit" (fun () ->
                replay reps (fun () -> ignore (Mixsyn_awe.Awe.of_circuit ~tech nl op ~out ~order:awe_order)))
          in
          Some (dc, ac /. float_of_int (Array.length freqs), awe))
      nls
  in
  let mean_us f = 1e6 *. Stats.mean (List.map f per_design) in
  set acc "engine.dc.us_per_solve" (mean_us (fun (d, _, _) -> d));
  set acc "engine.ac.us_per_point" (mean_us (fun (_, a, _) -> a));
  set acc "awe.us_per_call" (mean_us (fun (_, _, w) -> w))

(* ---- set-up ----------------------------------------------------------- *)

(* Set-up is what a workload needs before its first job, paid the way a
   fresh process pays it: load the program, generate and parse the inputs,
   bring the domain pool up (detector-assembly also measures the manual
   design its check compares against).  [main.exe setup] does exactly that
   and says "ready"; a run times [setup_reps] of them from spawn to ready
   and reports the median.  In-process set-up alone is a fraction of a
   millisecond and read 0.25-0.7 ms from run to run.  One set-up costs 3 to
   40 ms, so many of them cost a run little. *)
let setup_reps = 61

let measure_setup acc (once : unit -> float) =
  acc.setup_s <- Stats.median (List.init setup_reps (fun _ -> once ()))

let flow_inputs acc seed =
  let g = Gen.flow_jobs seed in
  (g, parse_manifest acc (Gen.manifest g))

let batch_inputs acc seed =
  let g = Gen.batch_jobs seed in
  (g, parse_manifest acc (Gen.manifest g))

let manual_power () =
  Option.value ~default:nan
    (Option.bind (PD.measure ~use_transient:true PD.manual) (fun m -> Spec.lookup m "power_w"))

let setup_only ~workload ~seed =
  let acc = new_acc () in
  (match workload with
   | "flow-interactive" -> ignore (flow_inputs acc seed)
   | "batch-sweep" -> ignore (batch_inputs acc seed)
   | "detector-assembly" ->
     ignore (Gen.detector_jobs seed);
     ignore (manual_power ())
   | _ -> exit 2);
  ignore (Pool.parallel_init (Pool.default_jobs ()) (fun i -> i));
  if acc.problems <> [] then exit 1;
  print_endline "ready"

let spawn_setup ~workload ~seed () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "setup"; "--workload"; workload; "--seed"; string_of_int seed |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = try input_line ic with End_of_file -> "" in
  let dt = now () -. t0 in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  if line <> "ready" then failwith (workload ^ ": set-up process failed");
  dt

(* start of the measured phase: counters the end reads against *)
type phase = { t0 : float; w0 : float; gc0 : int * int }

let begin_phase () =
  Gc.full_major ();
  Telemetry.reset ();
  { t0 = now (); w0 = alloc_words (); gc0 = gc_counts () }

let end_phase acc ph ~jobs =
  acc.measured_s <- now () -. ph.t0;
  acc.alloc_words <- alloc_words () -. ph.w0;
  let mi, ma = gc_counts () in
  set acc "gc.minor_collections_per_job" (ratio (float_of_int (mi - fst ph.gc0)) jobs);
  set acc "gc.major_collections_per_job" (ratio (float_of_int (ma - snd ph.gc0)) jobs);
  acc.rss_mb <- peak_rss_mb "self"

(* ---- flow-interactive --------------------------------------------------- *)

let flow_interactive acc ~seed ~rounds =
  measure_setup acc (spawn_setup ~workload:"flow-interactive" ~seed);
  let gjobs, bjobs = flow_inputs acc seed in
  let pairs = List.combine (Array.to_list gjobs) bjobs in
  let ph = begin_phase () in
  let finished = ref [] in
  for _ = 1 to rounds do
    Flow.clear_stage_cache ();
    List.iter
      (fun ((gj : Gen.job), (bj : Batch.job)) ->
        acc.attempted <- acc.attempted + 1;
        let r, dt =
          time (fun () ->
              Trace.with_span ~job:gj.Gen.id "job" (fun () ->
                  Trace.with_span ~job:gj.Gen.id "Flow.run" (fun () ->
                      match
                        Flow.run ~seed:bj.Batch.seed ~specs:bj.Batch.specs
                          ~objectives:bj.Batch.objectives ~context:bj.Batch.context ()
                      with
                      | o -> Ok o
                      | exception Mixsyn_check.Lint.Check_failed ds ->
                        Error
                          (failure_key "check-failed"
                             (List.map (fun (d : Mixsyn_check.Diagnostic.t) -> d.Mixsyn_check.Diagnostic.rule)
                                (Mixsyn_check.Diagnostic.errors ds)))
                      | exception e -> Error (Printexc.to_string e))))
        in
        acc.latencies <- dt :: acc.latencies;
        (* a finished layout with one cell on top of another is the placer
           fault README.md describes: a failed job, tallied by cell pair *)
        let r =
          match r with
          | Ok o ->
            (match Check.overlaps (cell_rects o.Flow.layout.Mixsyn_layout.Cell_flow.placed) with
             | [] -> Ok o
             | ovs ->
               List.iter (fun ov -> prerr_endline (Check.overlap_message ~id:gj.Gen.id ov)) ovs;
               check_outcome acc gj bj o;
               Error (failure_key "layout-overlap"
                        (List.map (fun ((a : Check.rect), (b : Check.rect), _, _) -> a.Check.name ^ "/" ^ b.Check.name) ovs)))
          | Error _ -> r
        in
        Printf.eprintf "job %s %.3f s %s\n%!" gj.Gen.id dt (match r with Ok _ -> "completed" | Error k -> k);
        match r with
        | Ok o ->
          acc.correct_records <- acc.correct_records + 1;
          check_outcome acc gj bj o;
          quality acc gj
            ~power_w:(Option.value (Spec.lookup o.Flow.post_layout "power_w") ~default:nan)
            ~area_um2:(o.Flow.layout.Mixsyn_layout.Cell_flow.area_m2 *. 1e12);
          finished := o :: !finished
        | Error key ->
          acc.failed <- acc.failed + 1;
          tally acc key)
      pairs
  done;
  let jobs = float_of_int acc.attempted in
  let wall = List.fold_left ( +. ) 0.0 acc.latencies in
  let tel = Telemetry.to_json_value () in
  end_phase acc ph ~jobs;
  if Trace.enabled () then begin
    telemetry_layers acc tel ~jobs ~wall;
    flow_quality acc;
    replay_engine acc ~awe_order:4 ~reps:20
      (List.map
         (fun (o : Flow.outcome) -> o.Flow.template.Template.build tech o.Flow.sizing.Mixsyn_synth.Sizing.params)
         !finished);
    let pre = Trace.with_span "replay.Batch.prefilter_job" (fun () ->
        replay 5 (fun () -> List.iter (fun j -> ignore (Batch.prefilter_job j)) bjobs)) in
    set acc "check.prefilter_us_per_job" (1e6 *. ratio pre (float_of_int (List.length bjobs)))
  end

(* ---- journals ------------------------------------------------------------ *)

let read_lines path =
  match open_in_bin path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
    let ls = go [] in
    close_in ic;
    ls

let id_of_line l =
  match Json.parse l with
  | Ok j -> (Option.value (Option.bind (Json.member "id" j) Json.to_str) ~default:"?", j)
  | Error _ -> ("?", Json.Null)

(* the checks a batch or serve journal must pass; [order] is the expected
   record order (manifest order, or submission order for serve) *)
let check_journal acc ~what ~(order : Gen.job list) ~(bjobs : Batch.job list) lines =
  let records = List.map id_of_line lines in
  problem acc (Check.one_per_id_in_order ~what ~expected:(List.map (fun j -> j.Gen.id) order) (List.map fst records));
  let pairs = List.filter_map (fun j -> match j.Gen.role with Gen.Repeat src -> Some (src, j.Gen.id) | _ -> None) order in
  problem acc (Check.identical_pairs ~pairs records);
  let expected =
    List.filter_map (fun j -> if j.Gen.role = Gen.Infeasible then Some (j.Gen.id, j.Gen.problem.Gen.gain_db) else None) order
  in
  problem acc (Check.refusals ~expected records);
  let specs_of id =
    match List.find_opt (fun (b : Batch.job) -> b.Batch.job_id = id) bjobs with
    | Some b -> spec_bounds b
    | None -> []
  in
  problem acc (Check.record_met_claims ~specs_of records);
  records

(* tallies over journal records: correct records, failures, quality *)
let tally_records acc ~(order : Gen.job list) records =
  List.iter
    (fun (id, r) ->
      (* ids outside the order were already reported by check_journal *)
      match List.find_opt (fun j -> j.Gen.id = id) order, Option.bind (Json.member "status" r) Json.to_str with
      | None, _ -> ()
      | Some gj, Some "completed" ->
        acc.correct_records <- acc.correct_records + 1;
        let res = Option.value (Json.member "result" r) ~default:Json.Null in
        let num j k = Option.value (Option.bind (Json.member k j) Json.to_float) ~default:nan in
        quality acc gj
          ~power_w:(num (Option.value (Json.member "post_layout" res) ~default:Json.Null) "power_w")
          ~area_um2:(num res "area_um2")
      | Some _, Some "infeasible" -> acc.correct_records <- acc.correct_records + 1
      | Some _, Some "failed" ->
        acc.failed <- acc.failed + 1;
        let err = Option.value (Option.bind (Json.member "error" r) Json.to_str) ~default:"failed" in
        let diags =
          List.filter_map Json.to_str (Option.value (Option.bind (Json.member "diagnostics" r) Json.to_list) ~default:[])
        in
        tally acc (failure_key err (List.map rule_of_diag diags))
      | Some _, Some s ->
        acc.failed <- acc.failed + 1;
        tally acc s
      | Some _, None -> problem acc [ id ^ ": record without a status" ])
    records

(* kernels replayed on a finished journal: prefilter, journal append, JSON *)
let replay_records acc ~(bjobs : Batch.job list) lines =
  let n = float_of_int (max 1 (List.length lines)) in
  let pre = Trace.with_span "replay.Batch.prefilter_job" (fun () ->
      replay 5 (fun () -> List.iter (fun j -> ignore (Batch.prefilter_job j)) bjobs)) in
  set acc "check.prefilter_us_per_job" (1e6 *. ratio pre (float_of_int (List.length bjobs)));
  let recs =
    List.filter_map
      (fun l -> match Json.parse l with Ok j -> Result.to_option (Batch.record_of_json j) | Error _ -> None)
      lines
  in
  let scratch = Filename.concat work_dir "replay.journal" in
  let push =
    Trace.with_span "replay.Batch.journal_push" (fun () ->
        replay 5 (fun () ->
            rm scratch;
            let _, w = Batch.journal_open scratch in
            List.iteri (fun i r -> Batch.journal_push w i r) recs;
            Batch.journal_close w))
  in
  rm scratch;
  set acc "batch.journal_us_per_record" (1e6 *. push /. n);
  let js =
    Trace.with_span "replay.Json" (fun () ->
        replay 20 (fun () ->
            List.iter (fun r -> ignore (Json.parse (Json.to_string (Batch.record_to_json r)))) recs))
  in
  set acc "json.us_per_record" (1e6 *. js /. n)

(* ---- batch-sweep -------------------------------------------------------- *)

let batch_sweep acc ~seed ~rounds =
  measure_setup acc (spawn_setup ~workload:"batch-sweep" ~seed);
  let gjobs, bjobs = batch_inputs acc seed in
  let order = Array.to_list gjobs in
  let journal = Filename.concat work_dir (Printf.sprintf "batch-%d.journal" seed) in
  let ph = begin_phase () in
  let busy = ref 0.0 and elapsed = ref 0.0 and workers = ref 1 and lines = ref [] in
  let executor (j : Batch.job) ~seed =
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let dt = now () -. t0 in
        Printf.eprintf "job %s %.3f s\n%!" j.Batch.job_id dt;
        Mutex.protect lock (fun () -> acc.latencies <- dt :: acc.latencies))
      (fun () ->
        Trace.with_span ~job:j.Batch.job_id "job" (fun () ->
            Trace.with_span ~job:j.Batch.job_id "Batch.flow_executor" (fun () ->
                Batch.flow_executor ~stage_cache:true j ~seed)))
  in
  for _ = 1 to rounds do
    rm journal;
    Flow.clear_stage_cache ();
    let summary =
      Trace.with_span "Batch.run" (fun () ->
          Atomic.set Trace.fallback_parent (Trace.current ());
          Batch.run ~executor ~journal bjobs)
    in
    Atomic.set Trace.fallback_parent 0;
    acc.attempted <- acc.attempted + List.length bjobs;
    busy := !busy +. List.fold_left (fun a (_, s) -> a +. s) 0.0 summary.Batch.domain_busy_s;
    elapsed := !elapsed +. summary.Batch.elapsed_s;
    workers := summary.Batch.run_jobs;
    lines := read_lines journal;
    tally_records acc ~order (check_journal acc ~what:"batch journal" ~order ~bjobs !lines)
  done;
  let jobs = float_of_int acc.attempted in
  let wall = List.fold_left ( +. ) 0.0 acc.latencies in
  let tel = Telemetry.to_json_value () in
  end_phase acc ph ~jobs;
  rm journal;
  if Trace.enabled () then begin
    telemetry_layers acc tel ~jobs ~wall;
    flow_quality acc;
    set acc "batch.worker_busy_ratio" (ratio !busy (float_of_int !workers *. !elapsed));
    replay_records acc ~bjobs !lines
  end

(* ---- serve-openloop ------------------------------------------------------ *)

let msyn = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "msyn.exe"))

type server = { pid : int; port : int; journal : string; err_path : string; out : Unix.file_descr }

(* servers not yet reaped: killed at exit, whatever ends this process *)
let live_servers = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid -> try Unix.kill pid Sys.sigkill; ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_servers)

(* the first line [fd] carries, read a byte at a time so that nothing after
   it is consumed; None at end of file or past [deadline] *)
let first_line fd ~deadline =
  let buf = Buffer.create 64 and b = Bytes.create 1 in
  let rec go () =
    let left = deadline -. now () in
    if left <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | [], _, _ -> go ()
      | _ ->
        if Unix.read fd b 0 1 = 0 then None
        else if Bytes.get b 0 = '\n' then Some (Buffer.contents buf)
        else begin
          Buffer.add_char buf (Bytes.get b 0);
          go ()
        end
  in
  go ()

(* spawn [msyn serve] on an ephemeral loopback port, with the runtime's
   exit-time GC report on stderr, and wait until /healthz answers.  The
   port line is read off the child's stdout pipe as soon as it is written;
   the server prints it once its socket listens, so /healthz answers the
   first request, and a failed one is retried at once rather than after a
   sleep. *)
let spawn_server tag =
  let journal = Filename.concat work_dir (tag ^ ".journal") in
  let err_path = Filename.concat work_dir (tag ^ ".err") in
  List.iter rm [ journal; err_path ];
  let fd_err = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out, out_child = Unix.pipe ~cloexec:true () in
  let env = Array.append [| "OCAMLRUNPARAM=v=0x400" |]
      (Array.of_list (List.filter (fun e -> not (starts_with "OCAMLRUNPARAM=" e)) (Array.to_list (Unix.environment ())))) in
  let pid =
    Unix.create_process_env msyn [| msyn; "serve"; journal; "--port"; "0" |] env Unix.stdin out_child fd_err
  in
  Unix.close out_child;
  Unix.close fd_err;
  live_servers := pid :: !live_servers;
  let deadline = now () +. 30.0 in
  let port =
    match
      Option.bind (first_line out ~deadline) (fun l ->
          try Some (Scanf.sscanf l "msyn serve: listening on http://%s@:%d" (fun _ p -> p)) with _ -> None)
    with
    | Some p -> p
    | None -> failwith "msyn serve did not report its port"
  in
  let rec healthy () =
    if now () > deadline then failwith "msyn serve never answered /healthz";
    match Mixsyn_util.Http.request ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/healthz" () with
    | Ok (200, _, _) -> ()
    | _ -> healthy ()
  in
  healthy ();
  { pid; port; journal; err_path; out }

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec wait () =
    match Unix.waitpid [] s.pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let st = wait () in
  live_servers := List.filter (( <> ) s.pid) !live_servers;
  Unix.close s.out;
  st

(* the runtime's exit report: "allocated_words: N" and friends *)
let gc_report path =
  List.filter_map
    (fun l -> match Scanf.sscanf l "%s@: %f" (fun k v -> (k, v)) with kv -> Some kv | exception _ -> None)
    (read_lines path)

type req = { route : string; raw : string; ms : float }

(* The client's status-poll interval.  A job's latency ends at the first
   poll that sees it terminal, so a gap g adds a delay in [0, g] to each
   job: 50 ms is under 3% of the 1.7 s median job latency, an eighth of its
   bound.  README.md sets it against 10 ms and the 100 ms of
   tools/serve_smoke.py ([--poll-ms]). *)
let poll_gap = ref 0.05

let serve_openloop acc ~seed ~rounds =
  ignore rounds;
  (* set-up: generate and parse the schedule, spawn the server, wait for
     /healthz; each timed server is stopped again, and the run's own
     server is the one spawned after them *)
  let inputs () =
    let sc = Gen.serve_schedule seed in
    (sc, parse_manifest acc (Gen.manifest (Array.map snd sc.Gen.submits)))
  in
  let n_spawn = ref 0 in
  let spawn () =
    incr n_spawn;
    spawn_server (Printf.sprintf "serve-%d-%d" seed !n_spawn)
  in
  measure_setup acc (fun () ->
      let s, dt = time (fun () -> ignore (inputs ()); spawn ()) in
      ignore (stop_server s);
      dt);
  let sc, bjobs = inputs () in
  let srv = spawn () in
  let line_of = Hashtbl.create 16 in
  Array.iter (fun (_, j) -> Hashtbl.replace line_of j.Gen.id (Gen.manifest_line j)) sc.Gen.submits;
  let reqs = ref [] and failed_reqs = ref 0 in
  let http ?(job = "") ~route meth path body =
    let raw =
      Printf.sprintf "%s %s HTTP/1.1\r\nHost: 127.0.0.1:%d\r\nConnection: close\r\n%s\r\n%s" meth path srv.port
        (if body = "" then "" else Printf.sprintf "Content-Length: %d\r\n" (String.length body)) body
    in
    let r, dt =
      time (fun () ->
          Trace.with_span ~job ("http." ^ route) (fun () ->
              Mixsyn_util.Http.request ~body ~host:"127.0.0.1" ~port:srv.port ~meth ~path ()))
    in
    reqs := { route; raw; ms = dt *. 1e3 } :: !reqs;
    match r with
    | Ok (code, _, b) -> (code, b)
    | Error msg -> (0, msg)
  in
  let state_of body = Option.bind (Result.to_option (Json.parse body)) (fun j -> Option.bind (Json.member "state" j) Json.to_str) in
  let terminal = function Some ("queued" | "running") | None -> false | Some _ -> true in
  let n = Array.length sc.Gen.submits in
  let sent = Array.make n nan and running_at = Array.make n nan and done_at = Array.make n nan in
  let final = Array.make n "" and results = Array.make n "" in
  let late = ref [] in
  let next_poll = Array.make n infinity in
  let poll_gap = !poll_gap in
  let t0 = now () in
  let next_submit = ref 0 and next_resub = ref 0 in
  let outstanding () = Array.exists (fun t -> t < infinity) next_poll in
  (* resubmit only once the client has seen the original's result *)
  let finished_id id =
    let found = ref false in
    Array.iteri (fun i (_, j) -> if j.Gen.id = id && not (Float.is_nan done_at.(i)) then found := true) sc.Gen.submits;
    !found
  in
  (* a failed counted request is a failed operation; a failed status poll,
     which is not counted, fails the run's checks instead *)
  let expect_ok ?(counted = true) what (code, body) =
    if code < 200 || code >= 300 then
      if counted then begin
        incr failed_reqs;
        tally acc (Printf.sprintf "http-%d %s" code what)
      end
      else problem acc [ Printf.sprintf "%s answered %d: %s" what code body ]
  in
  let finish i t st =
    done_at.(i) <- t;
    final.(i) <- st;
    next_poll.(i) <- infinity;
    let id = (snd sc.Gen.submits.(i)).Gen.id in
    let code, body = http ~job:id ~route:"result" "GET" ("/jobs/" ^ id ^ "/result") "" in
    expect_ok ("result " ^ id) (code, body);
    results.(i) <- body
  in
  let deadline = 150.0 in
  while (!next_submit < n || !next_resub < Array.length sc.Gen.resubmits || outstanding ())
        && now () -. t0 < deadline do
    let t = now () -. t0 in
    if !next_submit < n && fst sc.Gen.submits.(!next_submit) <= t then begin
      let i = !next_submit in
      incr next_submit;
      let due, j = sc.Gen.submits.(i) in
      late := (t -. due) :: !late;
      sent.(i) <- t;
      let code, body = http ~job:j.Gen.id ~route:"submit" "POST" "/jobs" (Hashtbl.find line_of j.Gen.id) in
      expect_ok ("submit " ^ j.Gen.id) (code, body);
      let st = state_of body in
      if terminal st then finish i (now () -. t0) (Option.get st) else next_poll.(i) <- t +. poll_gap
    end
    else if !next_resub < Array.length sc.Gen.resubmits
            && fst sc.Gen.resubmits.(!next_resub) <= t
            && finished_id (snd sc.Gen.resubmits.(!next_resub))
    then begin
      let id = snd sc.Gen.resubmits.(!next_resub) in
      incr next_resub;
      let code, body = http ~route:"resubmit" "POST" "/jobs" (Hashtbl.find line_of id) in
      if code <> 200 then begin
        incr failed_reqs;
        tally acc (Printf.sprintf "http-%d resubmit" code);
        problem acc [ Printf.sprintf "resubmit %s answered %d (want 200): %s" id code body ]
      end
    end
    else begin
      let due = ref infinity and who = ref (-1) in
      Array.iteri (fun i p -> if p < !due then (due := p; who := i)) next_poll;
      if !who >= 0 && !due <= t then begin
        let i = !who in
        let id = (snd sc.Gen.submits.(i)).Gen.id in
        let code, body = http ~job:id ~route:"status" "GET" ("/jobs/" ^ id) "" in
        expect_ok ~counted:false ("status " ^ id) (code, body);
        let tn = now () -. t0 in
        let st = state_of body in
        if st = Some "running" && Float.is_nan running_at.(i) then running_at.(i) <- tn;
        if terminal st then finish i tn (Option.get st) else next_poll.(i) <- tn +. poll_gap
      end
      else begin
        let next_event =
          List.fold_left Float.min !due
            [ (if !next_submit < n then fst sc.Gen.submits.(!next_submit) else infinity);
              (if !next_resub < Array.length sc.Gen.resubmits then fst sc.Gen.resubmits.(!next_resub) else infinity) ]
        in
        let wait = Float.min 0.01 (next_event -. t) in
        if wait > 0.0 then Unix.sleepf wait
      end
    end
  done;
  let measured = Array.fold_left Float.max 0.0 done_at in
  Array.iteri
    (fun i (due, j) -> Trace.add_span ~job:j.Gen.id "job" ~start:(t0 +. due) ~stop:(t0 +. done_at.(i)))
    sc.Gen.submits;
  let metrics = http ~route:"metrics" "GET" "/metrics" "" in
  acc.rss_mb <- peak_rss_mb (string_of_int srv.pid);
  ignore (stop_server srv);
  let gc = gc_report srv.err_path in
  let lines = read_lines srv.journal in
  let order = Array.to_list (Array.map snd sc.Gen.submits) in
  (* checks: terminal, result bytes = journal line, journal order, pairs *)
  Array.iteri
    (fun i (_, j) ->
      if not (terminal (Some final.(i))) || final.(i) = "" then problem acc [ j.Gen.id ^ ": never reached a terminal state" ])
    sc.Gen.submits;
  let by_id = List.map (fun l -> (fst (id_of_line l), l)) lines in
  Array.iteri
    (fun i (_, j) ->
      match List.assoc_opt j.Gen.id by_id with
      | Some l when l = results.(i) -> ()
      | Some _ -> problem acc [ j.Gen.id ^ ": /result body differs from its journal line" ]
      | None -> problem acc [ j.Gen.id ^ ": no journal line" ])
    sc.Gen.submits;
  let records = check_journal acc ~what:"serve journal" ~order ~bjobs lines in
  tally_records acc ~order records;
  (* operations: every job, plus every request whose count does not depend
     on timing (submits, resubmits, result fetches); status polls are
     measured but not counted, so the failed share stays exact *)
  let counted = List.filter (fun r -> r.route <> "status" && r.route <> "metrics") !reqs in
  acc.jobs <- n;
  acc.attempted <- n + List.length counted;
  acc.failed <- acc.failed + !failed_reqs;
  Array.iteri
    (fun i (due, j) ->
      if j.Gen.role <> Gen.Infeasible then acc.latencies <- (done_at.(i) -. due) :: acc.latencies)
    sc.Gen.submits;
  acc.measured_s <- measured;
  let allocated = Option.value (List.assoc_opt "allocated_words" gc) ~default:nan in
  acc.alloc_words <- allocated;
  set acc "gc.minor_collections_per_job"
    (ratio (Option.value (List.assoc_opt "minor_collections" gc) ~default:0.0) (float_of_int n));
  set acc "gc.major_collections_per_job"
    (ratio (Option.value (List.assoc_opt "major_collections" gc) ~default:0.0) (float_of_int n));
  let http_ms = List.filter_map (fun r -> if r.route = "metrics" then None else Some r.ms) !reqs in
  set acc "http_latency_p50_ms" (Stats.median http_ms);
  set acc "http_latency_p99_ms" (Stats.percentile 99.0 http_ms);
  set acc "http.requests" (float_of_int (List.length http_ms));
  set acc "serve.generator_late_p50_ms" (1e3 *. Stats.median !late);
  set acc "serve.generator_late_max_ms" (1e3 *. List.fold_left Float.max 0.0 !late);
  if Trace.enabled () then begin
    let route r = List.filter_map (fun q -> if q.route = r then Some q.ms else None) !reqs in
    set acc "serve.submit_p50_ms" (Stats.median (route "submit"));
    set acc "serve.status_p50_ms" (Stats.median (route "status"));
    let waits = List.filter_map Fun.id (Array.to_list (Array.mapi (fun i r ->
        if Float.is_nan r then None else Some (r -. sent.(i))) running_at)) in
    set acc "serve.queue_wait_p50_s" (Stats.median waits);
    (match Json.parse (snd metrics) with
     | Ok m ->
       let tel = Option.value (Json.member "telemetry" m) ~default:Json.Null in
       telemetry_layers acc tel ~jobs:(float_of_int n) ~wall:(span_s tel "batch.job");
       flow_quality acc;
       let num path = List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some m) path in
       let f path = Option.value (Option.bind (num path) Json.to_float) ~default:0.0 in
       set acc "serve.rejected" (f [ "rejected"; "queue_full" ] +. f [ "rejected"; "rate_limited" ] +. f [ "rejected"; "draining" ]);
       let busy = match Option.bind (num [ "worker_busy_s" ]) Json.to_obj with
         | Some kv -> kv | None -> [] in
       let total = List.fold_left (fun a (_, v) -> a +. Option.value (Json.to_float v) ~default:0.0) 0.0 busy in
       set acc "serve.worker_busy_ratio" (ratio total (float_of_int (max 1 (List.length busy)) *. measured))
     | Error _ -> problem acc [ "/metrics is not JSON" ]);
    let parse =
      Trace.with_span "replay.Http.parse_request" (fun () ->
          replay 20 (fun () -> List.iter (fun r -> ignore (Mixsyn_util.Http.parse_request r.raw)) !reqs))
    in
    set acc "http.parse_us_per_request" (1e6 *. parse /. float_of_int (max 1 (List.length !reqs)));
    replay_records acc ~bjobs lines
  end;
  Array.iter
    (fun f -> if starts_with (Printf.sprintf "serve-%d-" seed) f then rm (Filename.concat work_dir f))
    (Sys.readdir work_dir)

(* ---- detector-assembly ---------------------------------------------------- *)

module Fp = Mixsyn_assembly.Floorplan
module Pg = Mixsyn_assembly.Power_grid

let table1_bounds = List.map (fun (s : Spec.t) -> (s.Spec.s_name, bound_of s.Spec.bound)) PD.specs

let check_assembly acc id (fp : Fp.result) (w : Mixsyn_assembly.Wren.result) (pg : Pg.report) =
  problem acc
    (Check.no_overlap ~id
       (List.map
          (fun (p : Fp.placement) ->
            let b = p.Fp.block in
            let w, h = if p.Fp.rotated then (b.Mixsyn_assembly.Block.bh, b.Mixsyn_assembly.Block.bw)
              else (b.Mixsyn_assembly.Block.bw, b.Mixsyn_assembly.Block.bh) in
            { Check.name = b.Mixsyn_assembly.Block.b_name; x0 = p.Fp.x; y0 = p.Fp.y; x1 = p.Fp.x +. w; y1 = p.Fp.y +. h })
          fp.Fp.placements));
  if w.Mixsyn_assembly.Wren.unrouted <> [] then
    problem acc [ Printf.sprintf "%s: WREN left %s unrouted" id (String.concat " " w.Mixsyn_assembly.Wren.unrouted) ];
  let d0 = pg.Pg.initial_design.Pg.strap_widths and d1 = pg.Pg.final_design.Pg.strap_widths in
  if Array.length d0 <> Array.length d1 then problem acc [ id ^ ": RAIL changed the strap count" ]
  else Array.iteri (fun i w0 -> if d1.(i) < w0 then problem acc [ Printf.sprintf "%s: strap %d narrowed" id i ]) d0;
  let c = Pg.default_constraints and m = pg.Pg.after in
  List.iter
    (fun (name, v, limit) -> if not (v <= limit) then problem acc [ Printf.sprintf "%s: final %s %g over %g" id name v limit ])
    [ ("ir_drop", m.Pg.ir_drop, c.Pg.max_ir_drop); ("spike", m.Pg.spike, c.Pg.max_spike);
      ("victim_bounce", m.Pg.victim_bounce, c.Pg.max_victim_bounce); ("em_overload", m.Pg.em_overload, 1.0) ]

let detector_assembly acc ~seed ~rounds =
  measure_setup acc (spawn_setup ~workload:"detector-assembly" ~seed);
  let jobs = Gen.detector_jobs seed and manual_power = manual_power () in
  let blocks = Mixsyn_assembly.Block.data_channel_testbench () in
  let ph = begin_phase () in
  let sizings = ref [] and fp_s = ref 0.0 and wren_s = ref 0.0 and pg_s = ref 0.0 in
  let iters = ref [] and metal = ref [] and evals = ref 0 and synth_s = ref 0.0 in
  (* one job: synthesis, then assembly *)
  let run_job (j : Gen.detector_job) =
    let id = j.Gen.d_id in
    let span name f = Trace.with_span ~job:id name (fun () -> time f) in
    match
      time (fun () ->
          Trace.with_span ~job:id "job" (fun () ->
              let s, ts =
                span "Pulse_detector.synthesize" (fun () ->
                    PD.synthesize ~seed:j.Gen.det_seed ~moves:Gen.detector_moves ())
              in
              let fp, tf = span "Floorplan.floorplan" (fun () -> Fp.floorplan ~seed:j.Gen.fp_seed blocks) in
              let w, tw =
                span "Wren.route" (fun () -> Mixsyn_assembly.Wren.route ~mode:Mixsyn_assembly.Wren.Snr_constrained fp)
              in
              let pg, tp = span "Power_grid.synthesize" (fun () -> Pg.synthesize fp) in
              (s, fp, w, pg, ts, tf, tw, tp)))
    with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  for _ = 1 to rounds do
    (* one job at a time, like msyn table1: run two at a time on the pool,
       the caller's job took about 30 s instead of 7 in 3 of 5 rounds *)
    let results = Array.map run_job jobs in
    Array.iteri
      (fun i r ->
        let id = jobs.(i).Gen.d_id in
        acc.attempted <- acc.attempted + 1;
        match r with
        | Error e ->
          acc.failed <- acc.failed + 1;
          tally acc e
        | Ok ((s, fp, w, pg, ts, tf, tw, tp), dt) ->
          Printf.eprintf "job %s %.3f s completed\n%!" id dt;
          acc.latencies <- dt :: acc.latencies;
          acc.correct_records <- acc.correct_records + 1;
          problem acc (Check.all_specs_met ~id ~specs:table1_bounds s.PD.metrics);
          let power = Option.value (Spec.lookup s.PD.metrics "power_w") ~default:nan in
          if not (power < manual_power) then
            problem acc [ Printf.sprintf "%s: %g W is not below the manual design's %g W" id power manual_power ];
          check_assembly acc id fp w pg;
          acc.powers_uw <- (power *. 1e6) :: acc.powers_uw;
          acc.areas_um2 <- (Option.value (Spec.lookup s.PD.metrics "area_m2") ~default:nan *. 1e12) :: acc.areas_um2;
          sizings := s.PD.sizing :: !sizings;
          evals := !evals + s.PD.evaluations;
          synth_s := !synth_s +. ts;
          fp_s := !fp_s +. tf;
          wren_s := !wren_s +. tw;
          pg_s := !pg_s +. tp;
          iters := float_of_int pg.Pg.iterations :: !iters;
          metal := (pg.Pg.after.Pg.metal_area *. 1e6) :: !metal)
      results
  done;
  let jobs = float_of_int acc.attempted in
  let wall = List.fold_left ( +. ) 0.0 acc.latencies in
  let tel = Telemetry.to_json_value () in
  end_phase acc ph ~jobs;
  if Trace.enabled () then begin
    telemetry_layers acc tel ~jobs ~wall;
    set acc "synth.detector.evals_per_job" (ratio (float_of_int !evals) jobs);
    set acc "synth.detector.us_per_eval" (1e6 *. ratio !synth_s (float_of_int !evals));
    set acc "assembly.floorplan_s" (ratio !fp_s jobs);
    set acc "assembly.wren_s" (ratio !wren_s jobs);
    set acc "assembly.power_grid_s" (ratio !pg_s jobs);
    set acc "assembly.power_grid_iterations" (Stats.mean !iters);
    set acc "assembly.grid_metal_mm2" (Stats.mean !metal);
    replay_engine acc ~awe_order:8 ~reps:10 (List.map (Mixsyn_circuit.Detector.build tech) !sizings);
    set acc "engine.tran.s_per_call"
      (Stats.mean
         (List.map
            (fun sz ->
              Trace.with_span "replay.Pulse_detector.measure" (fun () ->
                  replay 3 (fun () -> ignore (PD.measure ~use_transient:true sz))))
            !sizings))
  end

(* ---- result -------------------------------------------------------------- *)

let workloads =
  [ ("flow-interactive", (flow_interactive, 24.0));
    ("batch-sweep", (batch_sweep, 8.0));
    ("serve-openloop", (serve_openloop, 20.0));
    ("detector-assembly", (detector_assembly, 36.0)) ]

let metric_json m v = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (Json.float_repr v) m.m_unit

let e2e acc =
  let ok = float_of_int acc.correct_records in
  [ ("setup_s", acc.setup_s);
    ("jobs_per_s", ratio ok acc.measured_s);
    ("job_latency_p50_s", Stats.median acc.latencies);
    ("peak_rss_mb", acc.rss_mb);
    ("alloc_mb_per_job", acc.alloc_words *. 8.0 /. 1e6 /. float_of_int (max 1 acc.jobs));
    ("design_power_uw", Stats.geomean acc.powers_uw);
    ("design_area_um2", Stats.geomean acc.areas_um2) ]

(* An end-to-end figure that could not be measured -- NaN, or a
   lower-is-better figure at or below 0, which no working measurement
   gives -- fails the run rather than reading as the best value.  A per-layer
   metric the workload does not exercise reads 0. *)
let print_result acc ~trace (e2e_cat, layer_cat) =
  let e = e2e acc in
  let values =
    if trace then begin
      set acc "trace.jobs_per_s" (List.assoc "jobs_per_s" e);
      set acc "trace.job_latency_p50_s" (List.assoc "job_latency_p50_s" e);
      set acc "trace.spans" (float_of_int (List.length (Trace.all ())));
      Hashtbl.iter
        (fun k _ ->
          if not (List.exists (fun m -> m.m_name = k) layer_cat) then
            problem acc [ Printf.sprintf "per-layer metric %s is not named in BENCHMARK.json" k ])
        acc.layer;
      List.map
        (fun m ->
          match Hashtbl.find_opt acc.layer m.m_name with
          | Some v when not (Float.is_nan v) -> (m, v)
          | _ -> (m, 0.0))
        layer_cat
    end
    else
      List.map
        (fun m ->
          match List.assoc_opt m.m_name e with
          | Some v when not (Float.is_nan v || (m.m_better = "lower" && v <= 0.0)) -> (m, v)
          | Some v ->
            problem acc [ Printf.sprintf "end-to-end metric %s could not be measured (read %g)" m.m_name v ];
            (m, 0.0)
          | None ->
            problem acc [ Printf.sprintf "BENCHMARK.json names end-to-end metric %s, which is not measured" m.m_name ];
            (m, 0.0))
        e2e_cat
  in
  Hashtbl.iter (fun k n -> Printf.printf "failed %d× %s\n" n k) acc.failures;
  List.iter (fun p -> Printf.eprintf "CHECK FAILED: %s\n" p) acc.problems;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (acc.problems = []) acc.attempted acc.failed
    (String.concat ", " (List.map (fun (m, v) -> metric_json m v) values))

(* ---- commands ------------------------------------------------------------ *)

let run ~workload ~seed ~seconds ~trace =
  let f, nominal =
    match List.assoc_opt workload workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" workload (String.concat ", " (List.map fst workloads));
      exit 2
  in
  let cat =
    try catalogue () with Failure msg ->
      prerr_endline msg;
      exit 2
  in
  if not (Sys.file_exists msyn) then begin
    Printf.eprintf "%s is missing: build with `dune build ./bin/msyn.exe ./perfbench/main.exe`\n" msyn;
    exit 2
  end;
  (try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  if trace then Trace.enable ();
  (* whole rounds of the same jobs, as many as the nominal round length on
     a 2-core host fits into [seconds]; never fewer than one *)
  let rounds = max 1 (int_of_float (seconds /. nominal)) in
  let acc = new_acc () in
  let steal0, total0 = cpu_ticks () in
  (match f acc ~seed ~rounds with
   | () -> ()
   | exception e ->
     Printf.eprintf "%s: %s\n%s" workload (Printexc.to_string e) (Printexc.get_backtrace ());
     exit 2);
  let steal1, total1 = cpu_ticks () in
  let steal = ratio (steal1 -. steal0) (total1 -. total0) in
  set acc "host.steal_share" steal;
  Printf.eprintf "host: %.1f%% of CPU time stolen by the hypervisor during this run\n" (100.0 *. steal);
  if trace then begin
    let path = Filename.concat work_dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
    Trace.write path;
    Printf.eprintf "trace: %s\n%-32s %6s %10s %10s\n" path "span" "calls" "total_s" "self_s";
    List.iter (fun (n, c, t, st) -> Printf.eprintf "%-32s %6d %10.4f %10.4f\n" n c t st) (Trace.summary ())
  end;
  if acc.jobs = 0 then acc.jobs <- acc.attempted;
  print_result acc ~trace cat;
  if acc.problems <> [] then exit 1

(* ---- steadiness: run one workload N times with successive seeds --------- *)

let last_line s =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

let steady ~workload ~runs ~seed0 ~seconds ~trace =
  let results =
    List.init runs (fun k ->
        let seed = seed0 + k in
        let out = Filename.concat work_dir (Printf.sprintf "steady-%s-%d.out" workload seed) in
        let cmd =
          Printf.sprintf "%s run --workload %s --seed %d --seconds %g --trace %d --poll-ms %g > %s"
            (Filename.quote Sys.executable_name) (Filename.quote workload) seed seconds
            (if trace then 1 else 0) (!poll_gap *. 1e3) (Filename.quote out)
        in
        let code = Sys.command cmd in
        let line = last_line (read_file out) in
        rm out;
        Printf.printf "run %d seed %d exit %d: %s\n%!" (k + 1) seed code line;
        match Json.parse line with
        | Ok j -> Some j
        | Error _ -> None)
  in
  let results = List.filter_map Fun.id results in
  let bounds = List.filter_map (fun m -> Option.map (fun b -> (m.m_name, b)) m.m_bound) (fst (catalogue ())) in
  let names =
    match results with
    | r :: _ -> (match Option.bind (Json.member "metrics" r) Json.to_obj with Some kv -> List.map fst kv | None -> [])
    | [] -> []
  in
  Printf.printf "\n%s, %d runs, seeds %d..%d\n%-34s %12s %12s %12s %8s %6s\n" workload (List.length results) seed0
    (seed0 + runs - 1) "metric" "q1" "median" "q3" "spread" "bound";
  List.iter
    (fun name ->
      let vals =
        List.filter_map
          (fun r ->
            Option.bind (Json.member "metrics" r) (fun m ->
                Option.bind (Json.member name m) (fun v -> Option.bind (Json.member "value" v) Json.to_float)))
          results
      in
      let q1, med, q3 = Stats.quartiles vals in
      let spread = if med <> 0.0 then (q3 -. q1) /. Float.abs med else 0.0 in
      Printf.printf "%-34s %12.6g %12.6g %12.6g %8.4f %6s\n" name q1 med q3 spread
        (match List.assoc_opt name bounds with Some b -> Printf.sprintf "%.2f" b | None -> "-"))
    names;
  let shares =
    List.sort_uniq compare
      (List.filter_map
         (fun r ->
           match (Option.bind (Json.member "attempted" r) Json.to_int, Option.bind (Json.member "failed" r) Json.to_int) with
           | Some a, Some f -> Some (Printf.sprintf "%d/%d" f a)
           | _ -> None)
         results)
  in
  Printf.printf "failed/attempted: %s\n" (String.concat ", " shares)

let () =
  Printexc.record_backtrace true;
  let args = Array.to_list Sys.argv in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: tl -> opt name tl
    | [] -> None
  in
  let get name default = Option.value (opt name args) ~default in
  let int_arg name default = match int_of_string_opt (get name default) with
    | Some n -> n
    | None -> Printf.eprintf "%s wants an integer\n" name; exit 2 in
  let float_arg name default = match float_of_string_opt (get name default) with
    | Some n when n > 0.0 -> n
    | _ -> Printf.eprintf "%s wants a positive number\n" name; exit 2 in
  let workload = get "--workload" "" in
  let seconds = float_arg "--seconds" "25" in
  let trace = int_arg "--trace" "0" <> 0 in
  poll_gap := float_arg "--poll-ms" "50" /. 1e3;
  match args with
  | _ :: "run" :: _ -> run ~workload ~seed:(int_arg "--seed" "1") ~seconds ~trace
  | _ :: "setup" :: _ -> setup_only ~workload ~seed:(int_arg "--seed" "1")
  | _ :: "steady" :: _ ->
    (try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    steady ~workload ~runs:(int_arg "--runs" "10") ~seed0:(int_arg "--seed0" "1") ~seconds ~trace
  | _ ->
    prerr_endline
      "usage: main.exe run --workload W --seed N --seconds S --trace 0|1 [--poll-ms MS]\n\
      \       main.exe steady --workload W --runs N [--seed0 N] [--seconds S] [--trace 0|1] [--poll-ms MS]";
    exit 2
