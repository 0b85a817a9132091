(* Domain-pool tests: the determinism contract (results independent of the
   job count), exception propagation, nesting, RNG stream independence, and
   sequential-vs-parallel equality on every loop wired to the pool. *)

module Pool = Mixsyn_util.Pool
module Rng = Mixsyn_util.Rng
module Anneal = Mixsyn_opt.Anneal
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
  (match Pool.parallel_init ~jobs:2 (-1) (fun i -> i) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "parallel_init (-1) must raise");
  Alcotest.(check (list int)) "map_list" [ 2; 3; 4 ]
    (Pool.parallel_map_list ~jobs:4 succ [ 1; 2; 3 ])

let test_chunk_granularity () =
  (* the band size is a scheduling knob only: any chunk yields the
     sequential answer, in order *)
  let input = Array.init 257 (fun i -> i) in
  let f x = (x * 7) - 1 in
  let expected = Array.map f input in
  List.iter
    (fun (jobs, chunk) ->
      let got = Pool.parallel_map ~jobs ~chunk f input in
      if got <> expected then
        Alcotest.failf "parallel_map mismatch at jobs=%d chunk=%d" jobs chunk)
    [ (1, 1); (4, 1); (4, 7); (4, 64); (4, 10_000); (64, 3) ];
  (* non-commutative reduce: index order must survive any banding *)
  let strings = Array.init 100 (fun i -> i) in
  let seq = String.concat "" (List.map string_of_int (Array.to_list strings)) in
  List.iter
    (fun chunk ->
      Alcotest.(check string) (Printf.sprintf "reduce chunk=%d" chunk) seq
        (Pool.parallel_reduce ~jobs:4 ~chunk ~map:string_of_int ~combine:( ^ ) ~init:""
           strings))
    [ 1; 13; 1000 ];
  Alcotest.(check (array int)) "init with chunk" [| 0; 1; 4; 9 |]
    (Pool.parallel_init ~jobs:3 ~chunk:2 4 (fun i -> i * i));
  Alcotest.(check (list int)) "map_list with chunk" [ 2; 3; 4 ]
    (Pool.parallel_map_list ~jobs:4 ~chunk:1 succ [ 1; 2; 3 ]);
  (* a non-positive chunk is rejected on every path, including the
     sequential jobs=1 short cut *)
  List.iter
    (fun (jobs, chunk) ->
      match Pool.parallel_map ~jobs ~chunk (fun x -> x) [| 1; 2 |] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "chunk=%d at jobs=%d must raise" chunk jobs)
    [ (4, 0); (4, -3); (1, 0) ]

let test_reduce_index_order () =
  (* string concatenation is non-commutative: only an index-ordered
     reduction gives the sequential answer *)
  let input = Array.init 100 (fun i -> i) in
  let expected = String.concat "" (List.map string_of_int (Array.to_list input)) in
  List.iter
    (fun jobs ->
      let got =
        Pool.parallel_reduce ~jobs ~map:string_of_int ~combine:( ^ ) ~init:"" input
      in
      Alcotest.(check string) (Printf.sprintf "reduce jobs=%d" jobs) expected got)
    [ 1; 3; 64 ]

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
  Alcotest.(check (array int)) "nested" expected outer

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
     element must read back exactly, at any jobs/chunk *)
  let input = Array.init 301 (fun i -> float_of_int i) in
  let f x = (x *. 1.5) -. 0.25 in
  let expected = Array.map f input in
  List.iter
    (fun (jobs, chunk) ->
      let got = Pool.parallel_map ~jobs ~chunk f input in
      if got <> expected then
        Alcotest.failf "float parallel_map mismatch at jobs=%d chunk=%d" jobs chunk)
    [ (1, 1); (2, 1); (4, 7); (4, 1000) ];
  (* failure at index 0 exercises the no-successful-piece path *)
  (match
     Pool.parallel_map ~jobs:4 (fun x -> if x = 0.0 then raise (Boom 0) else x) input
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 0 -> ()
  | exception Boom i -> Alcotest.failf "wrong index %d" i)

let test_grain_fallback () =
  (* an absurdly high work threshold: after the first (timed) call the
     learned estimate sends later calls down the sequential path, with
     identical results either way *)
  let g = Pool.grain ~min_work_s:1e9 "test.tiny" in
  Alcotest.(check bool) "estimate starts empty" true (Pool.grain_estimate g = None);
  let input = Array.init 64 (fun i -> i) in
  let expected = Array.map succ input in
  let first = Pool.parallel_map ~jobs:4 ~grain:g succ input in
  Alcotest.(check (array int)) "first call" expected first;
  (match Pool.grain_estimate g with
  | Some est -> if est < 0.0 then Alcotest.failf "negative estimate %g" est
  | None -> Alcotest.fail "no estimate learned");
  Mixsyn_util.Telemetry.reset ();
  let second = Pool.parallel_map ~jobs:4 ~grain:g succ input in
  Alcotest.(check (array int)) "second call" expected second;
  if Mixsyn_util.Telemetry.counter "pool.grain_fallbacks" < 1 then
    Alcotest.fail "tiny workload was not routed sequentially";
  (* a zero threshold never falls back *)
  let eager = Pool.grain ~min_work_s:0.0 "test.eager" in
  ignore (Pool.parallel_map ~jobs:4 ~grain:eager succ input);
  Mixsyn_util.Telemetry.reset ();
  ignore (Pool.parallel_map ~jobs:4 ~grain:eager succ input);
  Alcotest.(check int) "no fallback at zero threshold" 0
    (Mixsyn_util.Telemetry.counter "pool.grain_fallbacks")

let test_banded_matches_sequential () =
  (* parallel_banded must agree with a plain index map at any jobs/band
     size, including bands that don't divide n *)
  let n = 257 in
  let expected = Array.init n (fun i -> (i * 3) + 1 ) in
  let f start len = Array.init len (fun k -> ((start + k) * 3) + 1) in
  List.iter
    (fun (jobs, chunk) ->
      let got = Pool.parallel_banded ~jobs ?chunk n f in
      if got <> expected then
        Alcotest.failf "parallel_banded mismatch at jobs=%d chunk=%s" jobs
          (match chunk with Some c -> string_of_int c | None -> "auto"))
    [ (1, None); (4, None); (4, Some 1); (4, Some 7); (4, Some 64); (4, Some 10_000);
      (64, Some 3) ];
  Alcotest.(check (array int)) "empty" [||] (Pool.parallel_banded ~jobs:4 0 f);
  (* a band returning the wrong number of results is a caller bug *)
  (match Pool.parallel_banded ~jobs:4 ~chunk:8 16 (fun _ len -> Array.make (len + 1) 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong band length must raise");
  (match Pool.parallel_banded ~jobs:2 (-1) f with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative n must raise");
  (* exception determinism at band granularity: the smallest failing band
     wins whatever the scheduling *)
  for _ = 1 to 5 do
    match
      Pool.parallel_banded ~jobs:4 ~chunk:10 200 (fun start len ->
          if start + len > 50 then raise (Boom start) else Array.make len 0)
    with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom i -> Alcotest.(check int) "min failing band" 50 i
  done

let test_small_sweep_fallback () =
  (* the ac-sweep 0.52x regression: a sub-threshold sweep must take the
     sequential path once the grain has a seconds-per-item estimate,
     instead of paying domain fan-out for microseconds of work *)
  let nl = Top.miller_ota.Tp.build tech (Tp.midpoint Top.miller_ota) in
  let op = Mixsyn_engine.Dc.solve ~tech nl in
  let freqs =
    Mixsyn_engine.Ac.log_sweep ~decades_from:0.0 ~decades_to:8.0 ~points_per_decade:5
  in
  (* first call may probe in parallel; it teaches the grain the per-item cost *)
  let first = Mixsyn_engine.Ac.solve ~tech ~jobs:4 nl op ~freqs in
  Mixsyn_util.Telemetry.reset ();
  let second = Mixsyn_engine.Ac.solve ~tech ~jobs:4 nl op ~freqs in
  if first.Mixsyn_engine.Ac.solutions <> second.Mixsyn_engine.Ac.solutions then
    Alcotest.fail "fallback changed the sweep's results";
  if Mixsyn_util.Telemetry.counter "pool.grain_fallbacks" < 1 then
    Alcotest.fail "a 41-point sweep was not routed down the sequential path"

let test_worker_minor_heap_knob () =
  let before = Pool.worker_minor_heap_words () in
  Pool.set_worker_minor_heap_words (1 lsl 20);
  Alcotest.(check int) "roundtrip" (1 lsl 20) (Pool.worker_minor_heap_words ());
  List.iter
    (fun n ->
      match Pool.set_worker_minor_heap_words n with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "minor heap of %d words accepted" n)
    [ 0; -1; 1 lsl 10 ];
  Pool.set_worker_minor_heap_words before;
  (* workers spawned with the configured heap still compute correctly *)
  Alcotest.(check (array int)) "pool functional" [| 1; 2; 3; 4 |]
    (Pool.parallel_init ~jobs:4 4 (fun i -> i + 1))

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
  Alcotest.(check int) "effective jobs outside" 6 (Pool.effective_jobs (Some 8) 6);
  Alcotest.(check int) "effective jobs inside" 1
    (Pool.sequential_scope (fun () -> Pool.effective_jobs (Some 8) 6));
  (try Pool.sequential_scope (fun () -> failwith "x") with Failure _ -> ());
  let after = Pool.parallel_init ~jobs:4 4 (fun i -> i + 1) in
  Alcotest.(check (array int)) "pool usable after scope raise" [| 1; 2; 3; 4 |] after

(* --- RNG stream independence ------------------------------------------- *)

let test_split_n_streams () =
  let streams = Rng.split_n (Rng.create 42) 4 in
  Alcotest.(check int) "stream count" 4 (Array.length streams);
  let draws = Array.map (fun rng -> List.init 16 (fun _ -> Rng.int rng 1_000_000_000)) streams in
  (* streams must be pairwise distinct... *)
  Array.iteri
    (fun i di ->
      Array.iteri
        (fun j dj -> if i < j && di = dj then Alcotest.failf "streams %d and %d collide" i j)
        draws)
    draws;
  (* ...and reproducible from the same parent seed *)
  let again = Rng.split_n (Rng.create 42) 4 in
  Array.iteri
    (fun i rng ->
      let d = List.init 16 (fun _ -> Rng.int rng 1_000_000_000) in
      if d <> draws.(i) then Alcotest.failf "stream %d not reproducible" i)
    again;
  Alcotest.(check (array int)) "split_n 0" [||]
    (Array.map (fun _ -> 0) (Rng.split_n (Rng.create 1) 0))

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

let test_multistart_jobs_invariant () =
  let problem =
    { Anneal.initial = [| 8.0; -6.0 |];
      cost = (fun x -> ((x.(0) -. 2.0) ** 2.0) +. ((x.(1) +. 1.0) ** 2.0));
      neighbor =
        (fun rng ~temp01 x ->
          let x' = Array.copy x in
          let i = Rng.int rng 2 in
          x'.(i) <- x'.(i) +. (Rng.uniform rng (-1.0) 1.0 *. (0.1 +. temp01));
          x') }
  in
  let schedule = { Anneal.t_start = 10.0; t_end = 1e-4; cooling = 0.9; moves_per_stage = 60 } in
  let run jobs =
    Anneal.minimize_multistart ~schedule ~jobs ~restarts:4 ~rng:(Rng.create 7) problem
  in
  let a = run 1 and b = run 4 in
  if a <> b then Alcotest.fail "multistart outcome differs between jobs=1 and jobs=4";
  (* restarts = 1 consumes the rng directly, exactly like minimize *)
  let single = Anneal.minimize_multistart ~schedule ~jobs:4 ~restarts:1 ~rng:(Rng.create 7) problem in
  let direct = Anneal.minimize ~schedule ~rng:(Rng.create 7) problem in
  if single <> direct then Alcotest.fail "restarts=1 must equal plain minimize";
  (match
     Anneal.minimize_multistart ~schedule ~restarts:0 ~rng:(Rng.create 7) problem
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "restarts=0 must raise")

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
  (* nor may the band size change anything *)
  List.iter
    (fun chunk ->
      let ac = Mixsyn_engine.Ac.solve ~tech ~jobs:4 ~chunk nl op ~freqs in
      if ac.Mixsyn_engine.Ac.solutions <> ac1.Mixsyn_engine.Ac.solutions then
        Alcotest.failf "AC solutions differ at chunk=%d" chunk)
    [ 1; 5; 1000 ];
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
          Alcotest.test_case "reduce in index order" `Quick test_reduce_index_order;
          Alcotest.test_case "min-index exception" `Quick test_exception_propagation;
          Alcotest.test_case "nested calls" `Quick test_nested_calls;
          Alcotest.test_case "default-jobs override" `Quick test_default_jobs_override;
          Alcotest.test_case "jobs validation" `Quick test_jobs_validation;
          Alcotest.test_case "float results unboxed" `Quick test_float_results_unboxed_sound;
          Alcotest.test_case "grain fallback" `Quick test_grain_fallback;
          Alcotest.test_case "banded map" `Quick test_banded_matches_sequential;
          Alcotest.test_case "small sweep falls back" `Quick test_small_sweep_fallback;
          Alcotest.test_case "worker minor-heap knob" `Quick test_worker_minor_heap_knob;
          Alcotest.test_case "sequential scope" `Quick test_sequential_scope ] );
      ( "rng",
        [ Alcotest.test_case "split_n streams" `Quick test_split_n_streams ] );
      ( "wired-loops",
        [ Alcotest.test_case "corner search" `Quick test_corner_search_jobs_invariant;
          Alcotest.test_case "anneal multistart" `Quick test_multistart_jobs_invariant;
          Alcotest.test_case "genetic fitness" `Quick test_genetic_jobs_invariant;
          Alcotest.test_case "ac + noise sweeps" `Quick test_sweeps_jobs_invariant;
          Alcotest.test_case "flow placement retries" `Slow test_flow_lazy_placement_retries ] );
      ( "mna",
        [ Alcotest.test_case "branch index table" `Quick test_branch_index_table ] ) ]
