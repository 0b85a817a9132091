(* Domain-pool tests: the determinism contract (results independent of the
   job count), exception propagation, nesting, RNG stream independence, and
   sequential-vs-parallel equality on every loop wired to the pool. *)

module Pool = Mixsyn_util.Pool
module Rng = Mixsyn_util.Rng
module GA = Mixsyn_opt.Genetic
module CS = Mixsyn_opt.Corner_search
module Top = Mixsyn_circuit.Topology
module Tp = Mixsyn_circuit.Template

let tech = Mixsyn_circuit.Tech.generic_07um

(* --- core map/reduce --------------------------------------------------- *)

let test_map_matches_sequential () =
  let input = Array.init 257 (fun i -> i) in
  let f x = (x * x) + 3 in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      let got = Pool.parallel_map ~jobs f input in
      if got <> expected then Alcotest.failf "parallel_map mismatch at jobs=%d" jobs)
    [ 1; 2; 4; 64 ]

let test_map_edge_cases () =
  (* empty input, jobs > items, singleton *)
  Alcotest.(check (array int)) "empty" [||] (Pool.parallel_map ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "jobs > items" [| 2; 4; 6 |]
    (Pool.parallel_map ~jobs:64 (fun x -> 2 * x) [| 1; 2; 3 |]);
  Alcotest.(check (array int)) "singleton" [| 9 |]
    (Pool.parallel_map ~jobs:8 (fun x -> x * x) [| 3 |]);
  Alcotest.(check (array int)) "init" [| 0; 1; 4; 9 |]
    (Pool.parallel_init ~jobs:3 4 (fun i -> i * i));
  match Pool.parallel_init ~jobs:2 (-1) (fun i -> i) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "parallel_init (-1) must raise"

let test_chunk_granularity () =
  (* participants claim one item at a time: any job count yields the
     sequential answer, in order *)
  let input = Array.init 257 (fun i -> i) in
  let f x = (x * 7) - 1 in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      let got = Pool.parallel_map ~jobs f input in
      if got <> expected then Alcotest.failf "parallel_map mismatch at jobs=%d" jobs)
    [ 1; 4; 64 ];
  Alcotest.(check (array int)) "init" [| 0; 1; 4; 9 |]
    (Pool.parallel_init ~jobs:3 4 (fun i -> i * i))

exception Boom of int

let test_exception_propagation () =
  (* every index >= 50 fails; the caller must see the smallest failing
     index whatever the scheduling *)
  for _ = 1 to 5 do
    match
      Pool.parallel_map ~jobs:4 (fun i -> if i >= 50 then raise (Boom i) else i)
        (Array.init 200 (fun i -> i))
    with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom i -> Alcotest.(check int) "min failing index" 50 i
  done

let test_nested_calls () =
  (* a parallel call from inside a worker degrades to sequential instead of
     deadlocking *)
  let outer =
    Pool.parallel_init ~jobs:4 8 (fun i ->
        Array.fold_left ( + ) 0 (Pool.parallel_init ~jobs:4 10 (fun j -> (i * 10) + j)))
  in
  let expected = Array.init 8 (fun i -> (100 * i) + 45) in
  Alcotest.(check (array int)) "nested" expected outer;
  (* that holds for the items the calling domain runs too, so none of them
     queues helpers behind the workers' own items *)
  Alcotest.(check (array int)) "nested calls plan one domain" (Array.make 8 1)
    (Pool.parallel_init ~jobs:4 8 (fun _ -> Pool.effective_jobs (Some 4) 10))

let test_default_jobs_override () =
  let before = Pool.default_jobs () in
  Pool.set_default_jobs 3;
  Alcotest.(check int) "override" 3 (Pool.default_jobs ());
  Pool.set_default_jobs 1000;
  if Pool.default_jobs () > 64 then Alcotest.fail "override must clamp";
  Pool.set_default_jobs before

let test_jobs_validation () =
  (* the one validation point behind --jobs and MIXSYN_JOBS *)
  (match Pool.validate_jobs 4 with
   | Ok 4 -> ()
   | Ok n -> Alcotest.failf "validate_jobs 4 = %d" n
   | Error msg -> Alcotest.failf "validate_jobs 4 rejected: %s" msg);
  (match Pool.validate_jobs 1000 with
   | Ok n when n <= 64 -> ()
   | Ok n -> Alcotest.failf "validate_jobs must clamp, got %d" n
   | Error msg -> Alcotest.failf "validate_jobs 1000 rejected: %s" msg);
  List.iter
    (fun n ->
      match Pool.validate_jobs n with
      | Error _ -> ()
      | Ok m -> Alcotest.failf "validate_jobs %d accepted as %d" n m)
    [ 0; -1; -64 ];
  (match Pool.jobs_of_string " 8 " with
   | Ok 8 -> ()
   | _ -> Alcotest.fail "jobs_of_string must trim and parse");
  List.iter
    (fun s ->
      match Pool.jobs_of_string s with
      | Error _ -> ()
      | Ok n -> Alcotest.failf "jobs_of_string %S accepted as %d" s n)
    [ "0"; "-2"; "many"; "" ];
  List.iter
    (fun n ->
      match Pool.set_default_jobs n with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "set_default_jobs %d must raise" n)
    [ 0; -3 ]

let test_float_results_unboxed_sound () =
  (* results assemble into a flat float array (no option boxing); every
     element must read back exactly, at any jobs *)
  let input = Array.init 301 (fun i -> float_of_int i) in
  let f x = (x *. 1.5) -. 0.25 in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      let got = Pool.parallel_map ~jobs f input in
      if got <> expected then Alcotest.failf "float parallel_map mismatch at jobs=%d" jobs)
    [ 1; 2; 4 ];
  (* failure at index 0 exercises the no-successful-piece path *)
  (match
     Pool.parallel_map ~jobs:4 (fun x -> if x = 0.0 then raise (Boom 0) else x) input
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 0 -> ()
  | exception Boom i -> Alcotest.failf "wrong index %d" i)

let test_banded_matches_sequential () =
  (* parallel_banded must agree with a plain index map at any jobs, on
     lengths whose bands don't divide them evenly *)
  List.iter
    (fun n ->
      let expected = Array.init n (fun i -> (i * 3) + 1) in
      let f start len = Array.init len (fun k -> ((start + k) * 3) + 1) in
      List.iter
        (fun jobs ->
          let got = Pool.parallel_banded ~jobs n f in
          if got <> expected then
            Alcotest.failf "parallel_banded mismatch at n=%d jobs=%d" n jobs)
        [ 1; 4; 64 ])
    [ 1; 63; 64; 77; 257 ];
  let f start len = Array.init len (fun k -> start + k) in
  Alcotest.(check (array int)) "empty" [||] (Pool.parallel_banded ~jobs:4 0 f);
  (* a band returning the wrong number of results is a caller bug *)
  (match Pool.parallel_banded ~jobs:4 16 (fun _ len -> Array.make (len + 1) 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong band length must raise");
  (match Pool.parallel_banded ~jobs:2 (-1) f with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative n must raise");
  (* exception determinism at band granularity: the smallest failing band
     wins whatever the scheduling.  On more than one domain, 200 points cut
     into 6 bands starting at 0, 33, 66, 100, 133 and 166; every band
     reaching index 50 fails.  On one domain the sweep is the single band
     starting at 0. *)
  let first_failing = if Pool.available_cores () > 1 then 33 else 0 in
  for _ = 1 to 5 do
    match
      Pool.parallel_banded ~jobs:4 200 (fun start len ->
          if start + len > 50 then raise (Boom start) else Array.make len 0)
    with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom i -> Alcotest.(check int) "min failing band" first_failing i
  done

(* the band rule reads only the point count, so it holds from the first
   call: a sweep shorter than two 32-point bands runs inline (counted as a
   fallback while other domains were available), a longer one fans out
   once.  [expect_bands] runs [run 4], checks the counters it leaves, and
   checks its result equals [run 1] *)
let expect_bands what ~parallel run =
  let module T = Mixsyn_util.Telemetry in
  T.reset ();
  let r4 = run 4 in
  let runs = T.counter "pool.parallel_runs" and falls = T.counter "pool.grain_fallbacks" in
  let want_runs, want_falls =
    if Pool.available_cores () = 1 then (0, 0) else if parallel then (1, 0) else (0, 1)
  in
  Alcotest.(check int) (what ^ ": parallel runs") want_runs runs;
  Alcotest.(check int) (what ^ ": fallbacks") want_falls falls;
  if r4 <> run 1 then Alcotest.failf "%s: jobs 4 differs from jobs 1" what

let log_sweep ~from ~upto ~ppd =
  Mixsyn_engine.Ac.log_sweep ~decades_from:from ~decades_to:upto ~points_per_decade:ppd

let ota_ac freqs =
  let ota = Top.miller_ota.Tp.build tech (Tp.midpoint Top.miller_ota) in
  let op = Mixsyn_engine.Dc.solve ~tech ota in
  fun jobs -> (Mixsyn_engine.Ac.solve ~tech ~jobs ota op ~freqs).Mixsyn_engine.Ac.solutions

let test_grain_fallback () =
  (* the pool side of the rule: 63 points fall back, 64 fan out, and one
     domain leaves nothing to fall back from *)
  let f start len = Array.init len (fun k -> float_of_int (start + k) *. 0.5) in
  expect_bands "63 points" ~parallel:false (fun jobs -> Pool.parallel_banded ~jobs 63 f);
  expect_bands "64 points" ~parallel:true (fun jobs -> Pool.parallel_banded ~jobs 64 f);
  Mixsyn_util.Telemetry.reset ();
  ignore (Pool.parallel_banded ~jobs:1 63 f);
  Alcotest.(check int) "no fallback at jobs 1" 0
    (Mixsyn_util.Telemetry.counter "pool.grain_fallbacks");
  (* the 64-point sweep of [ac + noise sweeps] and the flow's 77-point
     sweep fan out from their first call *)
  let freqs64 = log_sweep ~from:0.0 ~upto:9.0 ~ppd:7 in
  Alcotest.(check (list int)) "sweep lengths" [ 64; 77 ]
    (List.map Array.length [ freqs64; Mixsyn_synth.Evaluate.sweep_freqs ]);
  expect_bands "64-point AC sweep" ~parallel:true (ota_ac freqs64);
  expect_bands "77-point AC sweep" ~parallel:true (ota_ac Mixsyn_synth.Evaluate.sweep_freqs)

let test_small_sweep_fallback () =
  (* the ac-sweep 0.52x regression: a short sweep must run inline instead
     of paying domain fan-out for microseconds of work, from its first call *)
  let freqs41 = log_sweep ~from:0.0 ~upto:8.0 ~ppd:5 in
  Alcotest.(check int) "AC sweep length" 41 (Array.length freqs41);
  expect_bands "41-point AC sweep" ~parallel:false (ota_ac freqs41);
  let det = Mixsyn_circuit.Detector.build tech Mixsyn_circuit.Detector.expert_manual_sizing in
  let det_op = Mixsyn_engine.Dc.solve ~tech det in
  let det_out = Mixsyn_circuit.Netlist.find_net det "out" in
  let det_freqs = log_sweep ~from:2.0 ~upto:8.0 ~ppd:8 in
  Alcotest.(check int) "detector sweep length" 49 (Array.length det_freqs);
  expect_bands "49-point detector noise sweep" ~parallel:false (fun jobs ->
      Mixsyn_engine.Noise.analyze ~tech ~jobs det det_op ~out:det_out ~freqs:det_freqs)

let test_sequential_scope () =
  (* inside the scope, parallel calls degrade to sequential (the calling
     domain is marked as a pool participant); the flag restores on exit,
     including on raise *)
  let inside =
    Pool.sequential_scope (fun () ->
        Pool.parallel_init ~jobs:8 6 (fun i -> i * i))
  in
  Alcotest.(check (array int)) "scope results" [| 0; 1; 4; 9; 16; 25 |] inside;
  (* and the job count a caller would plan with says so *)
  Alcotest.(check int) "effective jobs outside" (min 6 (Pool.available_cores ()))
    (Pool.effective_jobs (Some 8) 6);
  Alcotest.(check int) "effective jobs inside" 1
    (Pool.sequential_scope (fun () -> Pool.effective_jobs (Some 8) 6));
  (try Pool.sequential_scope (fun () -> failwith "x") with Failure _ -> ());
  let after = Pool.parallel_init ~jobs:4 4 (fun i -> i + 1) in
  Alcotest.(check (array int)) "pool usable after scope raise" [| 1; 2; 3; 4 |] after

(* --- seq-vs-parallel equality on the wired loops ------------------------ *)

let test_corner_search_jobs_invariant () =
  let violation (c : Mixsyn_circuit.Tech.corner) =
    Float.abs c.Mixsyn_circuit.Tech.d_vdd
    +. (0.01 *. Float.abs c.Mixsyn_circuit.Tech.d_temp)
    +. Float.abs c.Mixsyn_circuit.Tech.d_vth
    +. Float.abs c.Mixsyn_circuit.Tech.d_kp
  in
  let run jobs = CS.worst_corner ~refine:false ~jobs ~violation () in
  let c1, v1, e1 = run 1 and c4, v4, e4 = run 4 in
  Alcotest.(check (float 0.0)) "violation" v1 v4;
  Alcotest.(check int) "evals" e1 e4;
  if c1 <> c4 then Alcotest.fail "corner differs between jobs=1 and jobs=4"

let test_genetic_jobs_invariant () =
  let fitness x = -.(((x.(0) -. 0.3) ** 2.0) +. ((x.(1) +. 0.8) ** 2.0)) in
  let options = { GA.default_options with GA.population = 24; generations = 12 } in
  let run jobs =
    GA.optimize_real ~options ~jobs ~rng:(Rng.create 11) ~lower:[| -2.0; -2.0 |]
      ~upper:[| 2.0; 2.0 |] ~fitness ()
  in
  let a = run 1 and b = run 3 in
  if a <> b then Alcotest.fail "GA result differs between jobs=1 and jobs=3"

let test_sweeps_jobs_invariant () =
  let nl = Top.miller_ota.Tp.build tech (Tp.midpoint Top.miller_ota) in
  let op = Mixsyn_engine.Dc.solve ~tech nl in
  let freqs =
    Mixsyn_engine.Ac.log_sweep ~decades_from:0.0 ~decades_to:9.0 ~points_per_decade:7
  in
  let ac1 = Mixsyn_engine.Ac.solve ~tech ~jobs:1 nl op ~freqs in
  let ac4 = Mixsyn_engine.Ac.solve ~tech ~jobs:4 nl op ~freqs in
  if ac1.Mixsyn_engine.Ac.solutions <> ac4.Mixsyn_engine.Ac.solutions then
    Alcotest.fail "AC solutions differ between jobs=1 and jobs=4";
  let out = Mixsyn_circuit.Netlist.find_net nl "out" in
  let n1 = Mixsyn_engine.Noise.analyze ~tech ~jobs:1 nl op ~out ~freqs in
  let n4 = Mixsyn_engine.Noise.analyze ~tech ~jobs:4 nl op ~out ~freqs in
  if n1 <> n4 then Alcotest.fail "noise analysis differs between jobs=1 and jobs=4"

let test_flow_lazy_placement_retries () =
  (* placement retries run lazily: a layout pass whose first seed routes
     makes exactly one KOAN call — at top level and inside a sequential
     scope, where batch and serve run their jobs — and the outcome is the
     same in both places *)
  let module Spec = Mixsyn_synth.Spec in
  let module Flow = Mixsyn_flow.Flow in
  let module CF = Mixsyn_layout.Cell_flow in
  let specs =
    [ Spec.spec "gain_db" (Spec.At_least 45.0);
      Spec.spec "ugf_hz" (Spec.At_least 5e6);
      Spec.spec "phase_margin_deg" (Spec.At_least 50.0) ]
  in
  let run () =
    let calls0 = Mixsyn_util.Telemetry.span_calls "layout.koan" in
    let o =
      Flow.run ~seed:5 ~candidates:[ Top.ota_5t ] ~specs
        ~objectives:[ Spec.minimize "power_w" ] ~context:[ ("cl", 5e-13) ] ()
    in
    (o, Mixsyn_util.Telemetry.span_calls "layout.koan" - calls0)
  in
  let top, top_calls = run () in
  let scoped, scoped_calls = Pool.sequential_scope run in
  List.iter
    (fun (where, (o : Flow.outcome), calls) ->
      if not o.Flow.layout.CF.complete then
        Alcotest.failf "%s: the final layout must route" where;
      Alcotest.(check int) (where ^ ": one KOAN call per pass") (o.Flow.redesigns + 1) calls)
    [ ("top level", top, top_calls); ("sequential scope", scoped, scoped_calls) ];
  if top.Flow.layout <> scoped.Flow.layout then Alcotest.fail "layouts differ";
  if top.Flow.sizing.Mixsyn_synth.Sizing.params <> scoped.Flow.sizing.Mixsyn_synth.Sizing.params
     || top.Flow.post_layout <> scoped.Flow.post_layout
     || top.Flow.redesigns <> scoped.Flow.redesigns
     || top.Flow.diagnostics <> scoped.Flow.diagnostics
  then Alcotest.fail "flow outcome differs inside the sequential scope"

(* --- branch-index hashtable -------------------------------------------- *)

let test_branch_index_table () =
  let nl = Top.miller_ota.Tp.build tech (Tp.midpoint Top.miller_ota) in
  let layout = Mixsyn_engine.Mna.layout_of nl in
  Array.iteri
    (fun i name ->
      Alcotest.(check int)
        (Printf.sprintf "branch %s" name)
        (layout.Mixsyn_engine.Mna.nets - 1 + i)
        (Mixsyn_engine.Mna.branch_index layout name))
    layout.Mixsyn_engine.Mna.branch_names;
  match Mixsyn_engine.Mna.branch_index layout "no-such-source" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown branch must raise Not_found"

let () =
  Alcotest.run "pool"
    [ ( "core",
        [ Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "map edge cases" `Quick test_map_edge_cases;
          Alcotest.test_case "chunk granularity" `Quick test_chunk_granularity;
          Alcotest.test_case "min-index exception" `Quick test_exception_propagation;
          Alcotest.test_case "nested calls" `Quick test_nested_calls;
          Alcotest.test_case "default-jobs override" `Quick test_default_jobs_override;
          Alcotest.test_case "jobs validation" `Quick test_jobs_validation;
          Alcotest.test_case "float results unboxed" `Quick test_float_results_unboxed_sound;
          Alcotest.test_case "grain fallback" `Quick test_grain_fallback;
          Alcotest.test_case "banded map" `Quick test_banded_matches_sequential;
          Alcotest.test_case "small sweep falls back" `Quick test_small_sweep_fallback;
          Alcotest.test_case "sequential scope" `Quick test_sequential_scope ] );
      ( "wired-loops",
        [ Alcotest.test_case "corner search" `Quick test_corner_search_jobs_invariant;
          Alcotest.test_case "genetic fitness" `Quick test_genetic_jobs_invariant;
          Alcotest.test_case "ac + noise sweeps" `Quick test_sweeps_jobs_invariant;
          Alcotest.test_case "flow placement retries" `Slow test_flow_lazy_placement_retries ] );
      ( "mna",
        [ Alcotest.test_case "branch index table" `Quick test_branch_index_table ] ) ]
