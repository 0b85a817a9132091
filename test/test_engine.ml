(* Engine tests: every analysis checked against closed-form circuit theory. *)

module N = Mixsyn_circuit.Netlist
module Tech = Mixsyn_circuit.Tech
module Mos = Mixsyn_engine.Mos_model
module Dc = Mixsyn_engine.Dc
module Ac = Mixsyn_engine.Ac
module Tran = Mixsyn_engine.Tran
module Noise = Mixsyn_engine.Noise
module Measure = Mixsyn_engine.Measure
module Mna = Mixsyn_engine.Mna

let tech = Tech.generic_07um

let check_close ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps *. Float.max 1e-30 (Float.abs expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

let divider () =
  let c = N.create () in
  let vin = N.new_net ~name:"vin" c and out = N.new_net ~name:"out" c in
  N.add c (N.Vsource { v_name = "v1"; p = vin; n = N.gnd; dc = 2.0; ac = 1.0; v_wave = N.Dc_wave });
  N.add c (N.Resistor { r_name = "r1"; a = vin; b = out; ohms = 1000.0 });
  N.add c (N.Resistor { r_name = "r2"; a = out; b = N.gnd; ohms = 1000.0 });
  N.add c (N.Capacitor { c_name = "c1"; a = out; b = N.gnd; farads = 1e-6 });
  (c, out)

(* --- DC ---------------------------------------------------------------- *)

let test_dc_divider () =
  let c, out = divider () in
  let op = Dc.solve ~tech c in
  check_close "midpoint" 1.0 (Mna.voltage op out)

let test_dc_current_source_into_resistor () =
  let c = N.create () in
  let a = N.new_net c in
  N.add c (N.Isource { i_name = "i1"; p = a; n = N.gnd; dc = 1e-3; ac = 0.0; i_wave = N.Dc_wave });
  N.add c (N.Resistor { r_name = "r1"; a; b = N.gnd; ohms = 2000.0 });
  let op = Dc.solve ~tech c in
  check_close ~eps:1e-5 "ohm's law" 2.0 (Mna.voltage op a)

let test_dc_vccs () =
  (* VCCS of 1 mS sensing 1 V drives 1 mA into 1 kohm: 1 V *)
  let c = N.create () in
  let ctl = N.new_net c and out = N.new_net c in
  N.add c (N.Vsource { v_name = "vc"; p = ctl; n = N.gnd; dc = 1.0; ac = 0.0; v_wave = N.Dc_wave });
  N.add c (N.Vccs { g_name = "g1"; p = N.gnd; n = out; cp = ctl; cn = N.gnd; gm = 1e-3 });
  N.add c (N.Resistor { r_name = "rl"; a = out; b = N.gnd; ohms = 1000.0 });
  let op = Dc.solve ~tech c in
  check_close ~eps:1e-5 "vccs gain" 1.0 (Mna.voltage op out)

let test_dc_power_balance () =
  (* power from the source equals dissipation in the resistors *)
  let c, _ = divider () in
  let op = Dc.solve ~tech c in
  (* 2 V across 2 kohm: 2 mW delivered *)
  check_close ~eps:1e-5 "power" 2e-3 (Dc.power c op)

let test_dc_branch_current () =
  let c, _ = divider () in
  let op = Dc.solve ~tech c in
  let layout = op.Mna.op_layout in
  (* current into the + terminal: the source delivers 1 mA, so -1 mA *)
  check_close ~eps:1e-5 "branch current" (-1e-3) (Mna.branch_current op ~layout "v1")

(* --- MOS model --------------------------------------------------------- *)

let nmos w l = { N.m_name = "m"; drain = 1; gate = 2; source = 0; bulk = 0; w; l; polarity = N.Nmos }
let pmos w l = { (nmos w l) with N.polarity = N.Pmos }

let test_mos_square_law () =
  let m = nmos 10e-6 1e-6 in
  let e = Mos.evaluate tech m ~vd:3.0 ~vg:1.75 ~vs:0.0 ~vb:0.0 in
  (* vov = 1.0, saturation: ids = 0.5*kp*(W/L)*vov^2*(1+lambda*vds) *)
  let lambda = tech.Tech.lambda_factor /. 1e-6 in
  let expected = 0.5 *. tech.Tech.kp_n *. 10.0 *. 1.0 *. (1.0 +. (lambda *. 3.0)) in
  check_close ~eps:0.02 "saturation current" expected e.Mos.ids;
  Alcotest.(check bool) "saturated" true (e.Mos.region = Mos.Saturation)

let test_mos_cutoff () =
  let m = nmos 10e-6 1e-6 in
  let e = Mos.evaluate tech m ~vd:3.0 ~vg:0.2 ~vs:0.0 ~vb:0.0 in
  if e.Mos.ids > 1e-9 then Alcotest.failf "cutoff leaks too much: %g" e.Mos.ids;
  Alcotest.(check bool) "cutoff region" true (e.Mos.region = Mos.Cutoff)

let test_mos_triode () =
  let m = nmos 10e-6 1e-6 in
  let e = Mos.evaluate tech m ~vd:0.1 ~vg:2.75 ~vs:0.0 ~vb:0.0 in
  Alcotest.(check bool) "triode region" true (e.Mos.region = Mos.Triode);
  (* small vds: ids ~ kp W/L vov vds *)
  let expected = tech.Tech.kp_n *. 10.0 *. 2.0 *. 0.1 in
  check_close ~eps:0.1 "triode current" expected e.Mos.ids

let test_mos_pmos_mirror_symmetry () =
  let mn = nmos 10e-6 1e-6 and mp = pmos 10e-6 1e-6 in
  let en = Mos.evaluate tech mn ~vd:2.0 ~vg:1.75 ~vs:0.0 ~vb:0.0 in
  (* mirrored PMOS with kp_p: scale expectation by kp ratio *)
  let ep = Mos.evaluate { tech with Tech.vth0_p = tech.Tech.vth0_n; kp_p = tech.Tech.kp_n }
      mp ~vd:(-2.0) ~vg:(-1.75) ~vs:0.0 ~vb:0.0 in
  check_close ~eps:1e-9 "pmos mirrors nmos" en.Mos.ids (-.ep.Mos.ids)

let test_mos_source_drain_swap () =
  let m = nmos 10e-6 1e-6 in
  let fwd = Mos.evaluate tech m ~vd:1.0 ~vg:2.0 ~vs:0.0 ~vb:0.0 in
  let rev = Mos.evaluate tech m ~vd:0.0 ~vg:2.0 ~vs:1.0 ~vb:0.0 in
  (* exchanging drain and source (same gate and bulk) reverses the current *)
  check_close ~eps:1e-6 "swap antisymmetry" fwd.Mos.ids (-.rev.Mos.ids)

let test_mos_jacobian_consistency () =
  (* finite differences confirm the analytic Jacobian *)
  let m = nmos 20e-6 1.4e-6 in
  let at vd vg vs vb = (Mos.evaluate tech m ~vd ~vg ~vs ~vb).Mos.ids in
  let e = Mos.evaluate tech m ~vd:1.8 ~vg:1.4 ~vs:0.2 ~vb:0.0 in
  let h = 1e-7 in
  let fd f x0 = (f (x0 +. h) -. f (x0 -. h)) /. (2.0 *. h) in
  check_close ~eps:1e-3 "did/dvd" (fd (fun v -> at v 1.4 0.2 0.0) 1.8) e.Mos.did_dvd;
  check_close ~eps:1e-3 "did/dvg" (fd (fun v -> at 1.8 v 0.2 0.0) 1.4) e.Mos.did_dvg;
  check_close ~eps:1e-3 "did/dvs" (fd (fun v -> at 1.8 1.4 v 0.0) 0.2) e.Mos.did_dvs;
  check_close ~eps:1e-3 "did/dvb" (fd (fun v -> at 1.8 1.4 0.2 v) 0.0) e.Mos.did_dvb

(* the allocation-free core against the record-building model it replaced
   (kept in the oracle, [Float.max] clamp included), bit for bit.  Any two
   NaNs count as equal: where two NaNs of different payloads meet in a
   commutative operation, the payload follows whichever operand the
   compiler placed first, which two compiled functions may choose
   differently for the same expression. *)
let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b || (Float.is_nan a && Float.is_nan b)

let check_mos_matches_reference (m : N.mos) ~vd ~vg ~vs ~vb =
  let got = Mos.evaluate tech m ~vd ~vg ~vs ~vb
  and want = Oracle.mos_evaluate tech m ~vd ~vg ~vs ~vb in
  let same = same_bits in
  List.for_all2 same
    [ got.Mos.ids; got.Mos.did_dvd; got.Mos.did_dvg; got.Mos.did_dvs; got.Mos.did_dvb;
      got.Mos.vgs; got.Mos.vds; got.Mos.vth; got.Mos.vdsat; got.Mos.gm; got.Mos.gds;
      got.Mos.gmb ]
    [ want.Mos.ids; want.Mos.did_dvd; want.Mos.did_dvg; want.Mos.did_dvs; want.Mos.did_dvb;
      want.Mos.vgs; want.Mos.vds; want.Mos.vth; want.Mos.vdsat; want.Mos.gm; want.Mos.gds;
      want.Mos.gmb ]
  && got.Mos.region = want.Mos.region

let test_mos_core_corners () =
  (* each branch of the model once, on both polarities (phi = 0.7 V,
     nvt = 39 mV): forward and swapped drain/source, vov/nvt above 40, below
     -40 and between, the sq_arg clamp at 0.025 (source 1 V below the bulk
     for NMOS), and non-finite terminal voltages *)
  let cases =
    [ (3.0, 2.5, 0.0, 0.0); (0.0, 2.5, 3.0, 0.0); (3.0, -2.0, 0.0, 0.0); (3.0, 0.78, 0.0, 0.0);
      (0.1, 0.8, 0.0, 0.0); (2.0, 1.5, 0.0, 1.0); (0.0, 1.5, 2.0, 3.0); (2.0, 1.5, 0.0, -1.0);
      (-3.0, -2.5, 0.0, 0.0); (0.0, -2.5, -3.0, 0.0); (-2.0, -1.5, 0.0, -1.0);
      (0.0, 0.0, 0.0, 0.0); (-0.0, 0.0, 0.0, -0.0); (0.5, 1.0, 0.5, 0.0);
      (Float.nan, 1.0, 0.0, 0.0); (1.0, Float.nan, 0.0, 0.0); (1.0, 1.0, 0.0, Float.nan);
      (Float.infinity, 1.0, 0.0, 0.0); (1.0, Float.neg_infinity, 0.0, 0.0);
      (1.0, 1.0, Float.infinity, 0.0) ]
  in
  List.iter
    (fun m ->
      List.iter
        (fun (vd, vg, vs, vb) ->
          if not (check_mos_matches_reference m ~vd ~vg ~vs ~vb) then
            Alcotest.failf "%s vd=%h vg=%h vs=%h vb=%h differs from the reference"
              (match m.N.polarity with N.Nmos -> "nmos" | N.Pmos -> "pmos")
              vd vg vs vb)
        cases)
    [ nmos 10e-6 1e-6; pmos 10e-6 1e-6; nmos 2e-6 0.7e-6; pmos 150e-6 3e-6 ]

let prop_mos_core_matches_reference =
  let volt =
    QCheck.Gen.(
      frequency
        [ (12, float_range (-6.0) 6.0);
          (1, oneofa [| 0.0; -0.0; 1e-300; Float.nan; Float.infinity; Float.neg_infinity |]) ])
  in
  let gen =
    QCheck.Gen.(
      pair
        (triple bool (float_range 0.7e-6 200e-6) (float_range 0.7e-6 5e-6))
        (quad volt volt volt volt))
  in
  let print ((p, w, l), (vd, vg, vs, vb)) =
    Printf.sprintf "%s w=%h l=%h vd=%h vg=%h vs=%h vb=%h" (if p then "pmos" else "nmos") w l vd vg
      vs vb
  in
  QCheck.Test.make ~name:"allocation-free core equals the reference model" ~count:3000
    (QCheck.make ~print gen)
    (fun ((p, w, l), (vd, vg, vs, vb)) ->
      check_mos_matches_reference (if p then pmos w l else nmos w l) ~vd ~vg ~vs ~vb)

let test_mos_diode_bias () =
  let c = N.create () in
  let d = N.new_net c in
  N.add c (N.Isource { i_name = "ib"; p = d; n = N.gnd; dc = 100e-6; ac = 0.0; i_wave = N.Dc_wave });
  N.add c (N.Mos { m_name = "m1"; drain = d; gate = d; source = N.gnd; bulk = N.gnd;
                   w = 7e-6; l = 0.7e-6; polarity = N.Nmos });
  let op = Dc.solve ~tech c in
  let vgs = Mna.voltage op d in
  (* vth + sqrt(2 I / beta) with beta = kp W/L = 1e-3 *)
  check_close ~eps:0.03 "diode vgs" (tech.Tech.vth0_n +. sqrt 0.2) vgs

(* --- AC ------------------------------------------------------------------ *)

let test_ac_rc_pole () =
  let c, out = divider () in
  let op = Dc.solve ~tech c in
  let freqs = Ac.log_sweep ~decades_from:0.0 ~decades_to:5.0 ~points_per_decade:20 in
  let ac = Ac.solve ~tech c op ~freqs in
  let bode = Measure.bode ac ~out in
  check_close ~eps:1e-3 "dc gain" 0.5 (Measure.dc_gain bode);
  (* pole of the divided source: f = 1/(2 pi (R1||R2) C) = 318.3 Hz *)
  (match Measure.bandwidth_3db bode with
   | Some f -> check_close ~eps:0.02 "3 dB" 318.3 f
   | None -> Alcotest.fail "no 3 dB point");
  (* phase at the pole is -45 degrees *)
  let k = ref 0 in
  Array.iteri (fun i p -> if Float.abs (p.Measure.f -. 318.0) < 20.0 && !k = 0 then k := i) bode;
  check_close ~eps:0.05 "pole phase" (-45.0) bode.(!k).Measure.phase

let test_ac_sweep_grid () =
  let freqs = Ac.log_sweep ~decades_from:0.0 ~decades_to:2.0 ~points_per_decade:10 in
  Alcotest.(check int) "grid points" 21 (Array.length freqs);
  check_close "first" 1.0 freqs.(0);
  check_close ~eps:1e-9 "last" 100.0 freqs.(20)

let test_ac_sweep_endpoint () =
  (* regression: (0.3 - 0.1) *. 10. = 1.9999999999999998, which
     int_of_float truncated to 1 — the sweep silently lost its top point *)
  let freqs = Ac.log_sweep ~decades_from:0.1 ~decades_to:0.3 ~points_per_decade:10 in
  Alcotest.(check int) "rounded step count" 3 (Array.length freqs);
  if freqs.(2) <> 10.0 ** 0.3 then
    Alcotest.failf "endpoint %.17g <> 10^0.3 = %.17g" freqs.(2) (10.0 ** 0.3);
  (* the endpoint is pinned exactly (not within an eps) for every sweep
     that lands on its top decade *)
  List.iter
    (fun (a, b, ppd, n) ->
      let f = Ac.log_sweep ~decades_from:a ~decades_to:b ~points_per_decade:ppd in
      Alcotest.(check int) "point count" n (Array.length f);
      if f.(n - 1) <> 10.0 ** b then
        Alcotest.failf "sweep %g..%g ppd %d: last %.17g <> %.17g" a b ppd f.(n - 1)
          (10.0 ** b))
    [ (0.0, 9.0, 300, 2701); (0.0, 9.5, 8, 77); (0.0, 0.5, 2, 2); (2.0, 8.0, 8, 49) ];
  (* a fractional span still rounds to the nearest step count *)
  let frac = Ac.log_sweep ~decades_from:0.3 ~decades_to:6.0 ~points_per_decade:8 in
  Alcotest.(check int) "45.6 steps round to 46" 47 (Array.length frac)

let test_ac_flat_matches_boxed () =
  (* the flat per-domain kernel must reproduce the boxed Matrix.Cplx path
     bit-for-bit on real amplifier systems, at any job count *)
  let module Cplx = Matrix.Cplx in
  List.iter
    (fun t ->
      let nl = t.Mixsyn_circuit.Template.build tech (Mixsyn_circuit.Template.midpoint t) in
      let op = Dc.solve ~tech nl in
      let freqs = Ac.log_sweep ~decades_from:0.0 ~decades_to:9.0 ~points_per_decade:4 in
      let ac = Ac.solve ~tech ~jobs:4 nl op ~freqs in
      let g, c, b = Ac.build_system tech nl op in
      let n = Array.length b in
      Array.iteri
        (fun k f ->
          let omega = 2.0 *. Float.pi *. f in
          let a =
            Array.init n (fun i ->
                Array.init n (fun j ->
                    { Complex.re = g.(i).(j); im = omega *. c.(i).(j) }))
          in
          let x = Cplx.solve a b in
          Array.iteri
            (fun i (v : Complex.t) ->
              if v <> ac.Ac.solutions.(k).(i) then
                Alcotest.failf "%s: solution differs at point %d unknown %d"
                  t.Mixsyn_circuit.Template.t_name k i)
            x)
        freqs)
    [ Mixsyn_circuit.Topology.ota_5t; Mixsyn_circuit.Topology.miller_ota ]

let test_ac_ota_gain_formula () =
  (* 5T OTA gain ~ gm1/(gds2+gds4): check the simulator against the
     small-signal parameters it itself reports *)
  let t = Mixsyn_circuit.Topology.ota_5t in
  let nl = t.Mixsyn_circuit.Template.build tech [| 50e-6; 25e-6; 40e-6; 1e-6; 100e-6; 2e-12 |] in
  let op = Dc.solve ~tech nl in
  let find name =
    List.find (fun ((m : N.mos), _) -> m.N.m_name = name) op.Mna.mos_evals |> snd
  in
  let gm1 = (find "m2").Mos.gm in
  let gds2 = (find "m2").Mos.gds and gds4 = (find "m4").Mos.gds in
  let out = N.find_net nl "out" in
  let freqs = [| 1.0 |] in
  let ac = Ac.solve ~tech nl op ~freqs in
  let gain = Ac.magnitude ac 0 out in
  check_close ~eps:0.1 "gm/gds gain" (gm1 /. (gds2 +. gds4)) gain

(* --- transient -------------------------------------------------------------- *)

let rc_step_circuit () =
  let c = N.create () in
  let vin = N.new_net c and out = N.new_net ~name:"out" c in
  N.add c (N.Vsource { v_name = "v1"; p = vin; n = N.gnd; dc = 0.0; ac = 0.0;
                       v_wave = N.Pulse { v0 = 0.0; v1 = 1.0; delay = 1e-5; rise = 1e-7; width = 1.0 } });
  N.add c (N.Resistor { r_name = "r1"; a = vin; b = out; ohms = 1000.0 });
  N.add c (N.Capacitor { c_name = "c1"; a = out; b = N.gnd; farads = 1e-7 });
  (c, out)

let rc_charge_circuit () =
  let c = N.create () in
  let vin = N.new_net c and out = N.new_net c in
  N.add c (N.Vsource { v_name = "v1"; p = vin; n = N.gnd; dc = 0.0; ac = 0.0;
                       v_wave = N.Pulse { v0 = 0.0; v1 = 2.0; delay = 0.0; rise = 1e-9; width = 1.0 } });
  N.add c (N.Resistor { r_name = "r1"; a = vin; b = out; ohms = 100.0 });
  N.add c (N.Capacitor { c_name = "c1"; a = out; b = N.gnd; farads = 1e-6 });
  (c, out)

let test_tran_rc_step () =
  let c, out = rc_step_circuit () in
  let op = Dc.solve ~tech c in
  let tr = Tran.solve ~tech c op ~t_stop:1e-3 ~dt:1e-6 in
  let w = Tran.waveform tr out in
  (match Tran.first_crossing w ~level:(1.0 -. exp (-1.0)) with
   | Some t -> check_close ~eps:0.02 "tau" 1.1e-4 t
   | None -> Alcotest.fail "no crossing");
  (* final value *)
  let _, v_final = w.(Array.length w - 1) in
  check_close ~eps:1e-3 "settles to 1" 1.0 v_final

let test_tran_settling_time () =
  let w = Array.init 100 (fun i -> (float_of_int i, 1.0 -. exp (-.float_of_int i /. 10.0))) in
  match Tran.settling_time w ~final:1.0 ~tolerance:0.02 with
  | Some t -> if t < 30.0 || t > 50.0 then Alcotest.failf "settling %g out of range" t
  | None -> Alcotest.fail "expected settling time"

let test_tran_energy_conservation () =
  (* charging a capacitor through a resistor: the capacitor ends with CV^2/2 *)
  let c, out = rc_charge_circuit () in
  let op = Dc.solve ~tech c in
  let tr = Tran.solve ~tech c op ~t_stop:2e-3 ~dt:2e-6 in
  let w = Tran.waveform tr out in
  let _, v_final = w.(Array.length w - 1) in
  check_close ~eps:1e-2 "fully charged" 2.0 v_final

(* --- noise ------------------------------------------------------------------ *)

let test_noise_resistor_4ktr () =
  let c, out = divider () in
  let op = Dc.solve ~tech c in
  let freqs = [| 10.0 |] in
  let r = Noise.analyze ~tech c op ~out ~freqs in
  (* two 1k resistors in parallel seen from out: 500 ohm -> 4kT*500 *)
  let expected = 4.0 *. Mixsyn_util.Units.boltzmann *. tech.Tech.temp *. 500.0 in
  check_close ~eps:0.01 "thermal floor" expected r.Noise.points.(0).Noise.total_psd

let test_noise_ktc () =
  (* integrated noise of an RC is kT/C regardless of R *)
  let total r_ohms =
    let c = N.create () in
    let out = N.new_net ~name:"out" c in
    N.add c (N.Resistor { r_name = "r1"; a = out; b = N.gnd; ohms = r_ohms });
    N.add c (N.Capacitor { c_name = "c1"; a = out; b = N.gnd; farads = 1e-9 });
    let op = Dc.solve ~tech c in
    let freqs = Ac.log_sweep ~decades_from:0.0 ~decades_to:9.0 ~points_per_decade:16 in
    let r = Noise.analyze ~tech c op ~out ~freqs in
    r.Noise.integrated_rms
  in
  let expected = sqrt (Mixsyn_util.Units.boltzmann *. tech.Tech.temp /. 1e-9) in
  check_close ~eps:0.05 "kT/C at 10k" expected (total 1e4);
  check_close ~eps:0.05 "kT/C at 1M" expected (total 1e6)

let test_noise_flicker_corner () =
  (* flicker PSD falls as 1/f *)
  let m = nmos 10e-6 1e-6 in
  let p1 = Mos.flicker_noise_psd tech m ~gm:1e-3 ~freq:100.0 in
  let p2 = Mos.flicker_noise_psd tech m ~gm:1e-3 ~freq:1000.0 in
  check_close ~eps:1e-9 "1/f" 10.0 (p1 /. p2)

(* --- measure ----------------------------------------------------------------- *)

let test_measure_swing () =
  let t = Mixsyn_circuit.Topology.ota_5t in
  let nl = t.Mixsyn_circuit.Template.build tech [| 50e-6; 25e-6; 40e-6; 1e-6; 100e-6; 2e-12 |] in
  let op = Dc.solve ~tech nl in
  let out = N.find_net nl "out" and vdd = N.find_net nl "vdd" in
  let low, high = Measure.output_swing nl op ~out ~vdd_net:vdd in
  if low >= high then Alcotest.fail "inverted swing";
  if high > tech.Tech.vdd then Alcotest.fail "swing above the rail"

let test_measure_ugf_pm () =
  (* all topologies at midpoint must produce a finite, positive UGF *)
  List.iter
    (fun t ->
      let nl = t.Mixsyn_circuit.Template.build tech (Mixsyn_circuit.Template.midpoint t) in
      match Dc.solve ~tech nl with
      | exception Dc.No_convergence _ -> Alcotest.failf "%s: no DC" t.Mixsyn_circuit.Template.t_name
      | op ->
        let out = N.find_net nl "out" in
        let freqs = Ac.log_sweep ~decades_from:0.0 ~decades_to:9.5 ~points_per_decade:8 in
        let ac = Ac.solve ~tech nl op ~freqs in
        let bode = Measure.bode ac ~out in
        (match Measure.unity_gain_freq bode with
         | Some f when f > 0.0 -> ()
         | Some _ | None -> Alcotest.failf "%s: no unity-gain crossing" t.Mixsyn_circuit.Template.t_name))
    Mixsyn_circuit.Topology.all

(* --- cross-analysis properties ------------------------------------------- *)

(* random RC ladder driven by a voltage source *)
let random_ladder seed n =
  let rng = Mixsyn_util.Rng.create seed in
  let c = N.create () in
  let vin = N.new_net ~name:"vin" c in
  N.add c (N.Vsource { v_name = "v1"; p = vin; n = N.gnd; dc = 1.0; ac = 1.0; v_wave = N.Dc_wave });
  let prev = ref vin in
  let last = ref vin in
  for k = 1 to n do
    let node = N.new_net ~name:(Printf.sprintf "l%d" k) c in
    N.add c (N.Resistor { r_name = Printf.sprintf "r%d" k; a = !prev; b = node;
                          ohms = Mixsyn_util.Rng.uniform rng 100.0 10e3 });
    N.add c (N.Capacitor { c_name = Printf.sprintf "c%d" k; a = node; b = N.gnd;
                           farads = Mixsyn_util.Rng.uniform rng 1e-12 1e-9 });
    (* occasional shunt resistor so the DC value is nontrivial *)
    if Mixsyn_util.Rng.bool rng then
      N.add c (N.Resistor { r_name = Printf.sprintf "rs%d" k; a = node; b = N.gnd;
                            ohms = Mixsyn_util.Rng.uniform rng 1e3 100e3 });
    prev := node;
    last := node
  done;
  (c, !last)

let prop_ac_dc_consistency =
  QCheck.Test.make ~name:"AC at ~0 Hz equals the DC solution" ~count:60
    QCheck.(pair (int_range 0 5000) (int_range 1 6))
    (fun (seed, n) ->
      let c, out = random_ladder seed n in
      let op = Dc.solve ~tech c in
      let v_dc = Mna.voltage op out in
      let ac = Ac.solve ~tech c op ~freqs:[| 1e-3 |] in
      let v_ac = Ac.magnitude ac 0 out in
      (* the DC solve biases every node with gmin = 1e-9 S; across up to
         6 x 10 kohm of ladder that shifts the bias by ~1e-4 at most *)
      Float.abs (v_dc -. v_ac) < 1e-4 +. (1e-4 *. Float.abs v_dc))

let prop_transient_settles_to_dc =
  QCheck.Test.make ~name:"transient settles to the DC solution" ~count:20
    QCheck.(pair (int_range 0 5000) (int_range 1 4))
    (fun (seed, n) ->
      let c, out = random_ladder seed n in
      let op = Dc.solve ~tech c in
      (* time constants max ~ 10k * 1n = 1e-5; simulate 10x that *)
      let tr = Tran.solve ~tech c op ~t_stop:1e-4 ~dt:2e-7 in
      let w = Tran.waveform tr out in
      let _, v_final = w.(Array.length w - 1) in
      Float.abs (v_final -. Mna.voltage op out) < 1e-6 +. (1e-4 *. Float.abs v_final))

(* --- transient on Fmat vs the boxed oracle --------------------------------- *)

(* [Tran.solve] stamps into a pooled Fmat workspace and factors in place;
   the samples must equal the boxed-Matrix loop it replaced bit for bit *)
let check_tran_bitexact name nl ~t_stop ~dt =
  let op = Dc.solve ~tech nl in
  let flat = (Tran.solve ~tech nl op ~t_stop ~dt).Tran.samples in
  let boxed = Oracle.tran_samples ~tech nl op ~t_stop ~dt in
  Alcotest.(check int) (name ^ ": timepoints") (Array.length boxed) (Array.length flat);
  Array.iteri
    (fun k row ->
      Array.iteri
        (fun i v ->
          if Int64.bits_of_float v <> Int64.bits_of_float flat.(k).(i) then
            Alcotest.failf "%s: sample %d unknown %d: boxed %h, flat %h" name k i v
              flat.(k).(i))
        row)
    boxed

let test_tran_matches_boxed () =
  check_tran_bitexact "rc step" (fst (rc_step_circuit ())) ~t_stop:1e-3 ~dt:1e-6;
  check_tran_bitexact "rc charge" (fst (rc_charge_circuit ())) ~t_stop:2e-3 ~dt:2e-6;
  for seed = 0 to 9 do
    check_tran_bitexact (Printf.sprintf "ladder %d" seed)
      (fst (random_ladder seed (1 + (seed mod 4))))
      ~t_stop:1e-4 ~dt:2e-7
  done;
  List.iter
    (fun t ->
      check_tran_bitexact t.Mixsyn_circuit.Template.t_name
        (t.Mixsyn_circuit.Template.build tech (Mixsyn_circuit.Template.midpoint t))
        ~t_stop:2e-7 ~dt:1e-9)
    Mixsyn_circuit.Topology.all

let test_tran_detector_matches_boxed () =
  (* the Table 1 transient check, as Pulse_detector runs it *)
  List.iteri
    (fun k (nl, _) ->
      check_tran_bitexact (Printf.sprintf "detector %d" k) nl ~t_stop:12e-6 ~dt:6e-9)
    (Fixtures.detector_sizings ~count:40)

let test_tran_alloc_cap () =
  (* a timestep allocates its sample copy and a few boxed source values,
     never a MOS evaluation, a stamp, a matrix or a list: the boxed-Matrix
     path took ~8,100 minor words per timestep on this netlist and the
     element-walking assembler ~700 *)
  let nl = Mixsyn_circuit.Detector.build tech Mixsyn_circuit.Detector.expert_manual_sizing in
  let op = Dc.solve ~tech nl in
  let run () = Tran.solve ~tech nl op ~t_stop:12e-6 ~dt:6e-9 in
  ignore (run ());
  (* a Tran.solve runs entirely on the calling domain, so this count is exact *)
  let w0 = Gc.minor_words () in
  let tr = run () in
  let per_step = (Gc.minor_words () -. w0) /. float_of_int (Array.length tr.Tran.times - 1) in
  if per_step > 60.0 then
    Alcotest.failf "Tran.solve allocates %.0f minor words per timestep (cap 60)" per_step

(* --- bits pinned at the boxed assemblers ---------------------------------- *)

(* MD5 digests captured from the element-walking DC and transient
   assemblers this library had before the compiled stamp lists
   ({!Mixsyn_engine.Newton}): every unknown, the iteration count and every
   field of every MOS evaluation of each DC solve, and every transient
   sample.  They must not move. *)
let test_dc_digests () =
  let digest nls = Fixtures.combine_digests (List.map Fixtures.dc_bits nls) in
  Alcotest.(check string) "detector" "6b071a3a57f5673d758e44cb541eb06a"
    (digest (List.map fst (Fixtures.detector_sizings ~count:40)));
  List.iter
    (fun (t, expected) ->
      Alcotest.(check string) t.Mixsyn_circuit.Template.t_name expected
        (digest (Fixtures.topology_sizings t ~count:20)))
    Mixsyn_circuit.Topology.
      [ (ota_5t, "b3d62e5b1bcfebb90ac4783d70601686");
        (miller_ota, "072fa084c0d8296d690967e97fa5a193");
        (folded_cascode, "d51f611d82a70f8e4338be0069e3c2c3");
        (comparator, "48926be70acaa29947138ce610119240") ]

let test_tran_digests () =
  Alcotest.(check string) "detector samples" "bed6360b3e983b57178733376b52c3e6"
    (Fixtures.combine_digests
       (List.map Fixtures.tran_bits (Fixtures.detector_sizings ~count:40)))

let test_dc_nan_never_converges () =
  (* a NaN update must read as "not converged", as [Float.max] made it:
     the inline maximum keeps the NaN, so Newton and both fallbacks fail
     instead of returning a NaN operating point as converged *)
  let c = N.create () in
  let a = N.new_net c in
  N.add c (N.Isource { i_name = "i1"; p = a; n = N.gnd; dc = Float.nan; ac = 0.0; i_wave = N.Dc_wave });
  N.add c (N.Resistor { r_name = "r1"; a; b = N.gnd; ohms = 1000.0 });
  match Dc.solve ~tech c with
  | exception Dc.No_convergence _ -> ()
  | op -> Alcotest.failf "converged to %g" (Mna.voltage op a)

let test_dc_alloc_cap () =
  (* the compiled netlist, the pooled workspace and the allocation-free MOS
     core leave the compile step, the layout and the returned operating
     point; the element-walking assembler took about 52,000 minor words
     per solve here (37 Newton iterations) *)
  let t = Mixsyn_circuit.Topology.folded_cascode in
  let nl = t.Mixsyn_circuit.Template.build tech (Mixsyn_circuit.Template.midpoint t) in
  ignore (Dc.solve ~tech nl);
  let w0 = Gc.minor_words () in
  ignore (Dc.solve ~tech nl);
  let words = Gc.minor_words () -. w0 in
  if words > 6_500.0 then
    Alcotest.failf "Dc.solve allocates %.0f minor words on the folded cascode (cap 6500)" words

(* --- dc sweep ------------------------------------------------------------ *)

let test_dc_sweep_divider () =
  let c, out = divider () in
  let values = [| 0.0; 1.0; 2.0; 4.0 |] in
  let results = Dc.sweep ~tech c ~source:"v1" ~values in
  Array.iter
    (fun (v, op) -> check_close ~eps:1e-6 "half the source" (v /. 2.0) (Mna.voltage op out))
    results

let test_dc_sweep_unknown_source () =
  let c, _ = divider () in
  match Dc.sweep ~tech c ~source:"nonexistent" ~values:[| 1.0 |] with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_dc_sweep_comparator_transfer () =
  (* sweeping the + input of the open-loop comparator walks the output
     from one rail toward the other *)
  let t = Mixsyn_circuit.Topology.comparator in
  let nl = t.Mixsyn_circuit.Template.build tech (Mixsyn_circuit.Template.midpoint t) in
  let out = N.find_net nl "out" in
  let vcm = Mixsyn_circuit.Topology.common_mode_fraction *. tech.Tech.vdd in
  let values = Array.init 9 (fun i -> vcm -. 0.02 +. (0.005 *. float_of_int i)) in
  let results = Dc.sweep ~tech nl ~source:"vip" ~values in
  let v_low = Mna.voltage (snd results.(0)) out in
  let v_high = Mna.voltage (snd results.(8)) out in
  if Float.abs (v_high -. v_low) < 1.0 then
    Alcotest.failf "comparator transfer too shallow: %.3f -> %.3f" v_low v_high

let () =
  Alcotest.run "engine"
    [ ( "dc",
        [ Alcotest.test_case "divider" `Quick test_dc_divider;
          Alcotest.test_case "current source" `Quick test_dc_current_source_into_resistor;
          Alcotest.test_case "vccs" `Quick test_dc_vccs;
          Alcotest.test_case "power balance" `Quick test_dc_power_balance;
          Alcotest.test_case "branch current" `Quick test_dc_branch_current;
          Alcotest.test_case "mos diode bias" `Quick test_mos_diode_bias;
          Alcotest.test_case "nan element never converges" `Quick test_dc_nan_never_converges;
          Alcotest.test_case "folded cascode allocation cap" `Quick test_dc_alloc_cap ] );
      ( "mos-model",
        [ Alcotest.test_case "square law" `Quick test_mos_square_law;
          Alcotest.test_case "cutoff" `Quick test_mos_cutoff;
          Alcotest.test_case "triode" `Quick test_mos_triode;
          Alcotest.test_case "pmos mirror symmetry" `Quick test_mos_pmos_mirror_symmetry;
          Alcotest.test_case "source/drain swap" `Quick test_mos_source_drain_swap;
          Alcotest.test_case "jacobian consistency" `Quick test_mos_jacobian_consistency;
          Alcotest.test_case "core matches reference at corners" `Quick test_mos_core_corners;
          QCheck_alcotest.to_alcotest prop_mos_core_matches_reference ] );
      ( "ac",
        [ Alcotest.test_case "rc pole" `Quick test_ac_rc_pole;
          Alcotest.test_case "sweep grid" `Quick test_ac_sweep_grid;
          Alcotest.test_case "sweep endpoint exact" `Quick test_ac_sweep_endpoint;
          Alcotest.test_case "flat kernel matches boxed" `Quick test_ac_flat_matches_boxed;
          Alcotest.test_case "ota gain formula" `Quick test_ac_ota_gain_formula ] );
      ( "transient",
        [ Alcotest.test_case "rc step" `Quick test_tran_rc_step;
          Alcotest.test_case "settling time" `Quick test_tran_settling_time;
          Alcotest.test_case "charge completion" `Quick test_tran_energy_conservation;
          Alcotest.test_case "flat matches boxed" `Quick test_tran_matches_boxed;
          Alcotest.test_case "table 1 detector matches boxed" `Quick
            test_tran_detector_matches_boxed;
          Alcotest.test_case "detector allocation cap" `Quick test_tran_alloc_cap ] );
      ( "bit-identity",
        [ Alcotest.test_case "dc digests" `Quick test_dc_digests;
          Alcotest.test_case "transient digests" `Quick test_tran_digests ] );
      ( "noise",
        [ Alcotest.test_case "4kTR floor" `Quick test_noise_resistor_4ktr;
          Alcotest.test_case "kT/C invariant" `Quick test_noise_ktc;
          Alcotest.test_case "flicker 1/f" `Quick test_noise_flicker_corner ] );
      ( "cross-analysis",
        [ QCheck_alcotest.to_alcotest prop_ac_dc_consistency;
          QCheck_alcotest.to_alcotest prop_transient_settles_to_dc ] );
      ( "dc-sweep",
        [ Alcotest.test_case "divider" `Quick test_dc_sweep_divider;
          Alcotest.test_case "unknown source" `Quick test_dc_sweep_unknown_source;
          Alcotest.test_case "comparator transfer" `Quick test_dc_sweep_comparator_transfer ] );
      ( "measure",
        [ Alcotest.test_case "swing" `Quick test_measure_swing;
          Alcotest.test_case "ugf on all topologies" `Quick test_measure_ugf_pm ] ) ]
