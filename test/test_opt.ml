(* Optimization-engine tests: each algorithm must solve a problem with a
   known optimum. *)

module Rng = Mixsyn_util.Rng
module Anneal = Mixsyn_opt.Anneal
module NM = Mixsyn_opt.Nelder_mead
module GA = Mixsyn_opt.Genetic
module CS = Mixsyn_opt.Corner_search

let check_close ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps *. Float.max 1e-30 (Float.abs expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

(* --- annealing -------------------------------------------------------- *)

let test_anneal_quadratic () =
  let rng = Rng.create 1 in
  let problem =
    { Anneal.initial = [| 8.0; -6.0 |];
      cost = (fun x -> ((x.(0) -. 2.0) ** 2.0) +. ((x.(1) +. 1.0) ** 2.0));
      neighbor =
        (fun rng ~temp01 x ->
          let x' = Array.copy x in
          let i = Rng.int rng 2 in
          x'.(i) <- x'.(i) +. Rng.uniform rng (-1.0) 1.0 *. (0.1 +. temp01);
          x') }
  in
  let schedule = { Anneal.t_start = 10.0; t_end = 1e-6; cooling = 0.9; moves_per_stage = 100 } in
  let r = Anneal.minimize ~schedule ~rng problem in
  if r.Anneal.best_cost > 0.01 then Alcotest.failf "annealing stalled at %g" r.Anneal.best_cost;
  if r.Anneal.proposed <= 0 || r.Anneal.accepted <= 0 then Alcotest.fail "no moves recorded"

let test_anneal_deterministic () =
  let run seed =
    let rng = Rng.create seed in
    let problem =
      { Anneal.initial = [| 5.0 |];
        cost = (fun x -> Float.abs x.(0));
        neighbor =
          (fun rng ~temp01:_ x -> [| x.(0) +. Rng.uniform rng (-0.5) 0.5 |]) }
    in
    (Anneal.minimize ~rng problem).Anneal.best_cost
  in
  check_close "same seed same result" (run 42) (run 42);
  ()

let test_auto_schedule () =
  let s = Anneal.auto_schedule ~cost_scale:100.0 () in
  if s.Anneal.t_start <= s.Anneal.t_end then Alcotest.fail "degenerate schedule";
  (* a non-positive (or nan) cost scale must be rejected at construction,
     not discovered as a divergent schedule deep inside minimize *)
  List.iter
    (fun scale ->
      match Anneal.auto_schedule ~cost_scale:scale () with
      | exception Invalid_argument msg ->
        let has_name =
          let needle = "cost_scale" in
          let nl = String.length needle and sl = String.length msg in
          let rec scan i = i + nl <= sl && (String.sub msg i nl = needle || scan (i + 1)) in
          scan 0
        in
        if not has_name then Alcotest.failf "error %S does not name cost_scale" msg
      | _ -> Alcotest.failf "auto_schedule accepted cost_scale %g" scale)
    [ 0.0; -1.0; -1e9; Float.nan ]

let scalar_problem =
  { Anneal.initial = [| 5.0 |];
    cost = (fun x -> x.(0) ** 2.0);
    neighbor = (fun rng ~temp01:_ x -> [| x.(0) +. Rng.uniform rng (-0.5) 0.5 |]) }

let test_anneal_rejects_divergent_schedule () =
  let rng = Rng.create 1 in
  let expect_invalid name schedule =
    match Anneal.minimize ~schedule ~rng scalar_problem with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "non-terminating schedule accepted: %s" name
  in
  let base = { Anneal.t_start = 10.0; t_end = 1e-3; cooling = 0.9; moves_per_stage = 5 } in
  expect_invalid "cooling = 1" { base with Anneal.cooling = 1.0 };
  expect_invalid "cooling > 1" { base with Anneal.cooling = 1.5 };
  expect_invalid "cooling = 0" { base with Anneal.cooling = 0.0 };
  expect_invalid "cooling < 0" { base with Anneal.cooling = -0.5 };
  expect_invalid "t_end = 0" { base with Anneal.t_end = 0.0 };
  expect_invalid "t_end < 0" { base with Anneal.t_end = -1.0 };
  expect_invalid "t_start = 0" { base with Anneal.t_start = 0.0 };
  (* a valid schedule still runs *)
  ignore (Anneal.minimize ~schedule:base ~rng scalar_problem)

let test_anneal_stage_cap_backstop () =
  (* cooling this close to 1 would take ~10^8 stages to reach t_end; the
     backstop must terminate the run instead *)
  let rng = Rng.create 2 in
  let schedule =
    { Anneal.t_start = 10.0; t_end = 1e-3; cooling = 0.9999999; moves_per_stage = 1 }
  in
  let r = Anneal.minimize ~schedule ~rng scalar_problem in
  if r.Anneal.stages > 100_000 then
    Alcotest.failf "stage cap not applied: %d stages" r.Anneal.stages;
  Alcotest.(check int) "one proposal per capped stage" r.Anneal.stages r.Anneal.proposed

(* --- move-based annealing ------------------------------------------------ *)

(* the quadratic again, as ONE mutable vector per chain: propose perturbs a
   coordinate in place and returns the exact delta, revert restores it *)
type qstate = {
  xs : float array;
  mutable pend_i : int;
  mutable pend_old : float;
  best : float array;
}

let quadratic_cost xs = ((xs.(0) -. 2.0) ** 2.0) +. ((xs.(1) +. 1.0) ** 2.0)

let quadratic_moves =
  { Anneal.create =
      (fun () ->
        { xs = [| 8.0; -6.0 |]; pend_i = -1; pend_old = 0.0; best = [| 8.0; -6.0 |] });
    full_cost = (fun s -> quadratic_cost s.xs);
    propose =
      (fun s rng ~temp01 ->
        let before = quadratic_cost s.xs in
        let i = Rng.int rng 2 in
        s.pend_i <- i;
        s.pend_old <- s.xs.(i);
        s.xs.(i) <- s.xs.(i) +. (Rng.uniform rng (-1.0) 1.0 *. (0.1 +. temp01));
        quadratic_cost s.xs -. before);
    commit = (fun s -> s.pend_i <- -1);
    revert =
      (fun s ->
        if s.pend_i >= 0 then s.xs.(s.pend_i) <- s.pend_old;
        s.pend_i <- -1);
    remember = (fun s -> Array.blit s.xs 0 s.best 0 2);
    recall = (fun s -> Array.blit s.best 0 s.xs 0 2) }

let test_moves_quadratic () =
  let rng = Rng.create 1 in
  let schedule = { Anneal.t_start = 10.0; t_end = 1e-6; cooling = 0.9; moves_per_stage = 100 } in
  let r = Anneal.minimize_moves ~schedule ~rng quadratic_moves in
  if r.Anneal.best_cost > 0.01 then
    Alcotest.failf "move-based annealing stalled at %g" r.Anneal.best_cost;
  if r.Anneal.proposed <= 0 || r.Anneal.accepted <= 0 then Alcotest.fail "no moves recorded";
  (* best_cost must be the exact full cost of the returned state, not the
     accumulated-delta estimate *)
  check_close ~eps:0.0 "exact best cost" (quadratic_cost r.Anneal.best.xs) r.Anneal.best_cost

let test_moves_deterministic () =
  let run () =
    let rng = Rng.create 42 in
    (Anneal.minimize_moves ~rng quadratic_moves).Anneal.best_cost
  in
  check_close ~eps:0.0 "same seed same result" (run ()) (run ())

let test_moves_rejects_divergent_schedule () =
  let rng = Rng.create 1 in
  let schedule = { Anneal.t_start = 10.0; t_end = 1e-3; cooling = 1.5; moves_per_stage = 5 } in
  match Anneal.minimize_moves ~schedule ~rng quadratic_moves with
  | exception Invalid_argument msg ->
    if not (String.length msg > 0) then Alcotest.fail "empty error"
  | _ -> Alcotest.fail "divergent schedule accepted"

(* --- nelder-mead -------------------------------------------------------- *)

let test_nm_rosenbrock () =
  let f x =
    let a = 1.0 -. x.(0) and b = x.(1) -. (x.(0) ** 2.0) in
    (a ** 2.0) +. (20.0 *. (b ** 2.0))
  in
  let options = { NM.max_evals = 4000; tolerance = 1e-14 } in
  let x, fx, evals =
    NM.minimize ~options ~lower:[| -5.0; -5.0 |] ~upper:[| 5.0; 5.0 |] ~f [| -2.0; 2.0 |]
  in
  if fx > 1e-5 then Alcotest.failf "rosenbrock stalled at %g" fx;
  check_close ~eps:0.01 "x0" 1.0 x.(0);
  check_close ~eps:0.02 "x1" 1.0 x.(1);
  if evals > 4000 then Alcotest.fail "budget exceeded"

let test_nm_respects_bounds () =
  (* optimum outside the box: solution must sit on the boundary *)
  let f x = (x.(0) -. 10.0) ** 2.0 in
  let x, _, _ = NM.minimize ~lower:[| 0.0 |] ~upper:[| 2.0 |] ~f [| 1.0 |] in
  check_close ~eps:1e-6 "clamped to boundary" 2.0 x.(0)

(* --- genetic -------------------------------------------------------------- *)

let test_ga_onemax () =
  let rng = Rng.create 3 in
  let fitness bits = float_of_int (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bits) in
  let best, fit = GA.optimize_bits ~rng ~length:24 ~fitness () in
  if fit < 22.0 then Alcotest.failf "onemax reached only %g/24" fit;
  Alcotest.(check int) "length preserved" 24 (Array.length best)

let test_ga_real_sphere () =
  let rng = Rng.create 5 in
  let fitness x = -.(((x.(0) -. 1.0) ** 2.0) +. ((x.(1) +. 2.0) ** 2.0)) in
  let best, _ =
    GA.optimize_real ~rng ~lower:[| -10.0; -10.0 |] ~upper:[| 10.0; 10.0 |] ~fitness ()
  in
  if Float.abs (best.(0) -. 1.0) > 0.5 || Float.abs (best.(1) +. 2.0) > 0.5 then
    Alcotest.failf "sphere optimum missed: (%g, %g)" best.(0) best.(1)

(* --- corner search ----------------------------------------------------------- *)

let test_corner_search_monotone () =
  (* violation grows with vdd deviation: worst corner is at a vdd extreme *)
  let violation (c : Mixsyn_circuit.Tech.corner) = Float.abs c.Mixsyn_circuit.Tech.d_vdd in
  let corner, value, evals = CS.worst_corner ~refine:false ~violation () in
  check_close ~eps:1e-9 "worst value" 0.1 value;
  check_close ~eps:1e-9 "at the extreme" 0.1 (Float.abs corner.Mixsyn_circuit.Tech.d_vdd);
  if evals < 16 then Alcotest.fail "did not sweep the vertices"

let test_corner_search_refinement () =
  (* maximum in the interior: refinement must beat the vertices *)
  let violation (c : Mixsyn_circuit.Tech.corner) =
    1.0 -. ((c.Mixsyn_circuit.Tech.d_temp -. 30.0) /. 100.0) ** 2.0
  in
  let _, value, _ = CS.worst_corner ~violation () in
  let _, vertex_value, _ = CS.worst_corner ~refine:false ~violation () in
  if value < vertex_value -. 1e-12 then Alcotest.fail "refinement made things worse"

let test_corner_of_point () =
  let c = CS.corner_of_point "x" [| 0.1; -40.0; 0.02; -0.05 |] in
  check_close "vdd" 0.1 c.Mixsyn_circuit.Tech.d_vdd;
  check_close "temp" (-40.0) c.Mixsyn_circuit.Tech.d_temp;
  match CS.corner_of_point "x" [| 1.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let () =
  Alcotest.run "opt"
    [ ( "anneal",
        [ Alcotest.test_case "quadratic" `Quick test_anneal_quadratic;
          Alcotest.test_case "deterministic" `Quick test_anneal_deterministic;
          Alcotest.test_case "auto schedule" `Quick test_auto_schedule;
          Alcotest.test_case "rejects divergent schedule" `Quick
            test_anneal_rejects_divergent_schedule;
          Alcotest.test_case "stage cap backstop" `Quick test_anneal_stage_cap_backstop ] );
      ( "anneal-moves",
        [ Alcotest.test_case "quadratic" `Quick test_moves_quadratic;
          Alcotest.test_case "deterministic" `Quick test_moves_deterministic;
          Alcotest.test_case "rejects divergent schedule" `Quick
            test_moves_rejects_divergent_schedule ] );
      ( "nelder-mead",
        [ Alcotest.test_case "rosenbrock" `Quick test_nm_rosenbrock;
          Alcotest.test_case "bounds" `Quick test_nm_respects_bounds ] );
      ( "genetic",
        [ Alcotest.test_case "onemax" `Quick test_ga_onemax;
          Alcotest.test_case "real sphere" `Quick test_ga_real_sphere ] );
      ( "corner-search",
        [ Alcotest.test_case "monotone" `Quick test_corner_search_monotone;
          Alcotest.test_case "refinement" `Quick test_corner_search_refinement;
          Alcotest.test_case "corner_of_point" `Quick test_corner_of_point ] ) ]
