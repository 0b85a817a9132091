(* ISAAC symbolic-simulator tests: exactness against the numeric engine and
   controlled degradation under pruning. *)

module N = Mixsyn_circuit.Netlist
module Tech = Mixsyn_circuit.Tech
module E = Mixsyn_symbolic.Expr
module A = Mixsyn_symbolic.Analyze
module S = Mixsyn_symbolic.Simplify

let tech = Tech.generic_07um

let check_close ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps *. Float.max 1e-30 (Float.abs expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

(* --- expression algebra ------------------------------------------------- *)

let value_of = function
  | "a" -> 2.0
  | "b" -> 3.0
  | "c" -> 5.0
  | _ -> 1.0

let eval p = (E.eval value_of p { Complex.re = 0.5; im = 0.0 }).Complex.re

let test_expr_basic () =
  let a = E.sym "a" and b = E.sym "b" in
  check_close "a+b" 5.0 (eval (E.add a b));
  check_close "a*b" 6.0 (eval (E.mul a b));
  check_close "a-b" (-1.0) (eval (E.sub a b));
  check_close "-(a)" (-2.0) (eval (E.neg a));
  check_close "3a" 6.0 (eval (E.scale 3.0 a))

let test_expr_s_powers () =
  let p = E.add E.one (E.s_times 2 (E.sym "c")) in
  (* 1 + 5 s^2 at s = 0.5 -> 2.25 *)
  check_close "s powers" 2.25 (eval p);
  Alcotest.(check int) "degree" 2 (E.degree_s p);
  let groups = E.by_s_power p in
  Alcotest.(check int) "two groups" 2 (List.length groups)

let test_expr_cancellation () =
  let a = E.sym "a" in
  Alcotest.(check bool) "a - a = 0" true (E.is_zero (E.sub a a));
  Alcotest.(check int) "term count" 0 (E.term_count (E.sub a a))

let test_expr_s_coeffs () =
  let p = E.add (E.scale 2.0 E.one) (E.s_times 1 (E.sym "b")) in
  let coeffs = E.eval_s_coeffs value_of p in
  check_close "c0" 2.0 coeffs.(0);
  check_close "c1" 3.0 coeffs.(1)

(* --- determinant --------------------------------------------------------- *)

let test_determinant_numeric () =
  (* compare symbolic determinant against numeric LU on constant matrices *)
  let rng = Mixsyn_util.Rng.create 9 in
  for _ = 1 to 20 do
    let n = 1 + Mixsyn_util.Rng.int rng 5 in
    let values = Array.init n (fun _ -> Array.init n (fun _ -> Mixsyn_util.Rng.uniform rng (-2.0) 2.0)) in
    let sym_m = Array.map (Array.map E.const) values in
    let det_sym = (E.eval value_of (A.determinant sym_m) Complex.zero).Complex.re in
    let det_num = Matrix.Real.determinant values in
    check_close ~eps:1e-6 "determinant" det_num det_sym
  done

let test_determinant_symbolic_2x2 () =
  let m = [| [| E.sym "a"; E.sym "b" |]; [| E.sym "c"; E.sym "a" |] |] in
  (* det = a^2 - b c = 4 - 15 = -11 *)
  check_close "2x2" (-11.0) ((E.eval value_of (A.determinant m) Complex.zero).Complex.re)

(* --- transfer functions ---------------------------------------------------- *)

let divider () =
  let c = N.create () in
  let vin = N.new_net ~name:"vin" c and out = N.new_net ~name:"out" c in
  N.add c (N.Vsource { v_name = "v1"; p = vin; n = N.gnd; dc = 2.0; ac = 1.0; v_wave = N.Dc_wave });
  N.add c (N.Resistor { r_name = "r1"; a = vin; b = out; ohms = 1000.0 });
  N.add c (N.Resistor { r_name = "r2"; a = out; b = N.gnd; ohms = 1000.0 });
  N.add c (N.Capacitor { c_name = "c1"; a = out; b = N.gnd; farads = 1e-6 });
  (c, out)

let test_transfer_divider () =
  let c, out = divider () in
  let r = A.transfer c ~out in
  let op = Mixsyn_engine.Dc.solve ~tech c in
  let v = A.valuation ~tech c op in
  let h0 = A.eval_rational v r Complex.zero in
  check_close "H(0)" 0.5 h0.Complex.re;
  let hp = Complex.norm (A.eval_rational v r { Complex.re = 0.0; im = 2.0 *. Float.pi *. 318.3 }) in
  check_close ~eps:0.01 "pole magnitude" (0.5 /. sqrt 2.0) hp

let ota () =
  let t = Mixsyn_circuit.Topology.ota_5t in
  let nl = t.Mixsyn_circuit.Template.build tech [| 50e-6; 25e-6; 40e-6; 1e-6; 100e-6; 2e-12 |] in
  let out = N.find_net nl "out" in
  (nl, out)

let test_transfer_matches_numeric_ac () =
  let nl, out = ota () in
  let r = A.transfer nl ~out in
  let op = Mixsyn_engine.Dc.solve ~tech nl in
  let v = A.valuation ~tech nl op in
  let freqs = [| 1.0; 1e4; 1e6; 1e8 |] in
  let ac = Mixsyn_engine.Ac.solve ~tech nl op ~freqs in
  Array.iteri
    (fun k f ->
      let numeric = Mixsyn_engine.Ac.magnitude ac k out in
      let symbolic =
        Complex.norm (A.eval_rational v r { Complex.re = 0.0; im = 2.0 *. Float.pi *. f })
      in
      check_close ~eps:1e-3 (Printf.sprintf "f=%g" f) numeric symbolic)
    freqs

let test_valuation_symbols () =
  let nl, _ = ota () in
  let op = Mixsyn_engine.Dc.solve ~tech nl in
  let v = A.valuation ~tech nl op in
  if v "gm_m1" <= 0.0 then Alcotest.fail "gm must be positive";
  if v "gds_m1" <= 0.0 then Alcotest.fail "gds must be positive";
  check_close ~eps:1e-9 "cap symbol" 2e-12 (v "c_cl");
  (match v "bogus_symbol" with
   | exception Not_found -> ()
   | _ -> Alcotest.fail "expected Not_found")

(* --- pruning ----------------------------------------------------------------- *)

let test_prune_monotone () =
  let nl, out = ota () in
  let r = A.transfer nl ~out in
  let op = Mixsyn_engine.Dc.solve ~tech nl in
  let v = A.valuation ~tech nl op in
  let counts =
    List.map
      (fun th -> (S.prune ~value:v ~threshold:th r).S.terms_after)
      [ 0.001; 0.01; 0.1 ]
  in
  (match counts with
   | [ a; b; c ] ->
     if not (a >= b && b >= c) then Alcotest.fail "term count should fall with threshold";
     if c < 2 then Alcotest.fail "pruning removed everything"
   | _ -> assert false)

let test_prune_error_bounded () =
  let nl, out = ota () in
  let r = A.transfer nl ~out in
  let op = Mixsyn_engine.Dc.solve ~tech nl in
  let v = A.valuation ~tech nl op in
  let report = S.prune ~value:v ~threshold:0.01 r in
  let freqs = Mixsyn_engine.Ac.log_sweep ~decades_from:0.0 ~decades_to:9.0 ~points_per_decade:4 in
  let err = S.magnitude_error ~value:v ~exact:r ~approx:report.S.simplified ~freqs in
  if err > 0.10 then Alcotest.failf "1%% pruning produced %g magnitude error" err;
  if report.S.terms_after >= report.S.terms_before then Alcotest.fail "nothing pruned"

let test_prune_identity_at_zero_threshold () =
  let nl, out = ota () in
  let r = A.transfer nl ~out in
  let op = Mixsyn_engine.Dc.solve ~tech nl in
  let v = A.valuation ~tech nl op in
  let report = S.prune ~value:v ~threshold:0.0 r in
  Alcotest.(check int) "no terms dropped" (A.term_count r) report.S.terms_after

(* --- interval bounds -------------------------------------------------------- *)

module I = Mixsyn_util.Interval

let test_interval_coeffs () =
  let p = E.add (E.scale 2.0 (E.sym "a")) (E.s_times 1 (E.mul (E.sym "b") (E.sym "c"))) in
  let ranges = function
    | "a" -> I.make 1.0 3.0
    | "b" -> I.make 2.0 4.0
    | "c" -> I.make 4.0 6.0
    | _ -> I.point 1.0
  in
  let coeffs = E.eval_s_coeffs_interval ranges p in
  (* a = 2, b = 3, c = 5 (value_of) sit inside the ranges *)
  let concrete = E.eval_s_coeffs value_of p in
  Array.iteri
    (fun k iv ->
      if not (I.contains iv concrete.(k)) then
        Alcotest.failf "s^%d: concrete %g outside [%g, %g]" k concrete.(k) (I.lo iv)
          (I.hi iv))
    coeffs;
  (* and the enclosures are the exact interval products here *)
  Alcotest.(check bool) "c0 = 2*[1,3]" true (I.contains coeffs.(0) 2.0 && I.contains coeffs.(0) 6.0);
  Alcotest.(check bool) "c1 = [2,4]*[4,6]" true (I.contains coeffs.(1) 8.0 && I.contains coeffs.(1) 24.0)

(* enclosure property on a real amplifier: symbol boxes around the operating
   point must contain every concrete figure computed at valuations sampled
   inside those boxes *)
let test_transfer_bounds_enclose () =
  let nl, out = ota () in
  let r = A.transfer nl ~out in
  let op = Mixsyn_engine.Dc.solve ~tech nl in
  let v = A.valuation ~tech nl op in
  let half_band name =
    let x = v name in
    let w = 0.5 *. Float.abs x in
    I.make (x -. w) (x +. w)
  in
  let dc = A.bound_dc_gain half_band r in
  let gbw = A.bound_gbw half_band r in
  let fp = A.bound_dominant_pole half_band r in
  Alcotest.(check bool) "dc bound nonempty" false (I.is_empty dc);
  let num_iv, den_iv = A.bound_num_den half_band r in
  let rng = Mixsyn_util.Rng.create 31 in
  for _ = 1 to 200 do
    (* one concrete valuation drawn uniformly inside every symbol box *)
    let tbl = Hashtbl.create 16 in
    let sample name =
      match Hashtbl.find_opt tbl name with
      | Some x -> x
      | None ->
        let iv = half_band name in
        let x = Mixsyn_util.Rng.uniform rng (I.lo iv) (I.hi iv) in
        Hashtbl.add tbl name x;
        x
    in
    let num, den = A.num_den_coeffs sample r in
    Array.iteri
      (fun k c ->
        if not (I.contains num_iv.(k) c) then
          Alcotest.failf "num s^%d: %g escapes enclosure" k c)
      num;
    Array.iteri
      (fun k c ->
        if not (I.contains den_iv.(k) c) then
          Alcotest.failf "den s^%d: %g escapes enclosure" k c)
      den;
    if not (I.contains dc (num.(0) /. den.(0))) then
      Alcotest.failf "dc gain %g escapes %g..%g" (num.(0) /. den.(0)) (I.lo dc) (I.hi dc);
    let two_pi = 2.0 *. Float.pi in
    if Array.length den > 1 then begin
      if not (I.contains gbw (Float.abs num.(0) /. (two_pi *. Float.abs den.(1)))) then
        Alcotest.fail "gbw escapes enclosure";
      if not (I.contains fp (Float.abs den.(0) /. (two_pi *. Float.abs den.(1)))) then
        Alcotest.fail "dominant pole escapes enclosure"
    end
  done;
  (* the operating point itself is one such valuation *)
  let h0 = (A.eval_rational v r Complex.zero).Complex.re in
  Alcotest.(check bool) "operating-point gain enclosed" true (I.contains dc h0)

let prop_random_ladder_exact =
  QCheck.Test.make ~name:"symbolic transfer matches numeric AC on random ladders" ~count:40
    QCheck.(pair (int_range 0 5000) (int_range 1 4))
    (fun (seed, n) ->
      let rng = Mixsyn_util.Rng.create seed in
      let c = N.create () in
      let vin = N.new_net ~name:"vin" c in
      N.add c (N.Vsource { v_name = "v1"; p = vin; n = N.gnd; dc = 1.0; ac = 1.0; v_wave = N.Dc_wave });
      let prev = ref vin in
      let out = ref vin in
      for k = 1 to n do
        let node = N.new_net c in
        N.add c (N.Resistor { r_name = Printf.sprintf "r%d" k; a = !prev; b = node;
                              ohms = Mixsyn_util.Rng.uniform rng 100.0 10e3 });
        N.add c (N.Capacitor { c_name = Printf.sprintf "c%d" k; a = node; b = N.gnd;
                               farads = Mixsyn_util.Rng.uniform rng 1e-12 1e-9 });
        N.add c (N.Resistor { r_name = Printf.sprintf "rs%d" k; a = node; b = N.gnd;
                              ohms = Mixsyn_util.Rng.uniform rng 1e3 100e3 });
        prev := node;
        out := node
      done;
      let out = !out in
      let r = A.transfer c ~out in
      let op = Mixsyn_engine.Dc.solve ~tech c in
      let v = A.valuation ~tech c op in
      let f = Mixsyn_util.Rng.uniform rng 1.0 1e8 in
      let ac = Mixsyn_engine.Ac.solve ~tech c op ~freqs:[| f |] in
      let numeric = Mixsyn_engine.Ac.magnitude ac 0 out in
      let symbolic =
        Complex.norm (A.eval_rational v r { Complex.re = 0.0; im = 2.0 *. Float.pi *. f })
      in
      Float.abs (numeric -. symbolic) <= 1e-6 +. (1e-4 *. numeric))

let () =
  Alcotest.run "symbolic"
    [ ( "expr",
        [ Alcotest.test_case "algebra" `Quick test_expr_basic;
          Alcotest.test_case "s powers" `Quick test_expr_s_powers;
          Alcotest.test_case "cancellation" `Quick test_expr_cancellation;
          Alcotest.test_case "s coefficients" `Quick test_expr_s_coeffs ] );
      ( "determinant",
        [ Alcotest.test_case "numeric agreement" `Quick test_determinant_numeric;
          Alcotest.test_case "symbolic 2x2" `Quick test_determinant_symbolic_2x2 ] );
      ( "transfer",
        [ Alcotest.test_case "divider" `Quick test_transfer_divider;
          Alcotest.test_case "matches numeric AC" `Quick test_transfer_matches_numeric_ac;
          Alcotest.test_case "valuation" `Quick test_valuation_symbols ] );
      ( "bounds",
        [ Alcotest.test_case "interval coefficients" `Quick test_interval_coeffs;
          Alcotest.test_case "transfer bounds enclose" `Quick test_transfer_bounds_enclose ] );
      ( "properties", [ QCheck_alcotest.to_alcotest prop_random_ladder_exact ] );
      ( "simplify",
        [ Alcotest.test_case "monotone" `Quick test_prune_monotone;
          Alcotest.test_case "error bounded" `Quick test_prune_error_bounded;
          Alcotest.test_case "zero threshold identity" `Quick test_prune_identity_at_zero_threshold ] ) ]
