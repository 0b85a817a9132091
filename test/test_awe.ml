(* AWE tests against closed-form RC theory and the numeric AC engine. *)

module N = Mixsyn_circuit.Netlist
module Tech = Mixsyn_circuit.Tech
module Awe = Mixsyn_awe.Awe

let tech = Tech.generic_07um

let check_close ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps *. Float.max 1e-30 (Float.abs expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

(* single-pole RC driven by a current source: Z(s) = R/(1+sRC) *)
let rc r c =
  let g = [| [| 1.0 /. r |] |] in
  let cm = [| [| c |] |] in
  let b = [| 1.0 |] in
  (g, cm, b)

let test_single_pole () =
  let g, c, b = rc 1000.0 1e-9 in
  let tf = Awe.of_network ~g ~c ~b ~out:0 ~order:1 in
  Alcotest.(check int) "order" 1 tf.Awe.order;
  let p = tf.Awe.poles.(0) in
  check_close ~eps:1e-6 "pole" (-1.0 /. (1000.0 *. 1e-9)) p.Complex.re;
  check_close ~eps:1e-6 "H(0)" 1000.0 (Awe.magnitude tf 1e-3);
  (* -3 dB at 1/(2 pi RC) *)
  let f3 = 1.0 /. (2.0 *. Float.pi *. 1000.0 *. 1e-9) in
  check_close ~eps:1e-3 "3 dB point" (1000.0 /. sqrt 2.0) (Awe.magnitude tf f3)

let test_moments_match_theory () =
  (* Z(s) = R(1 - sRC + (sRC)^2 ...) so m_k = R(-RC)^k *)
  let g, c, b = rc 2000.0 0.5e-9 in
  let ms = Awe.moments ~g ~c ~b ~out:0 ~count:4 in
  let rc_ = 2000.0 *. 0.5e-9 in
  Array.iteri
    (fun k m -> check_close ~eps:1e-9 (Printf.sprintf "m%d" k) (2000.0 *. ((-.rc_) ** float_of_int k)) m)
    ms

let test_step_response () =
  let g, c, b = rc 1000.0 1e-9 in
  let tf = Awe.of_network ~g ~c ~b ~out:0 ~order:1 in
  (* unit current step into the RC: v(t) = R(1 - exp(-t/RC)) *)
  let tau = 1e-6 in
  check_close ~eps:1e-4 "step at tau" (1000.0 *. (1.0 -. exp (-1.0))) (Awe.step_response tf tau);
  check_close ~eps:1e-3 "step at 5 tau" (1000.0 *. (1.0 -. exp (-5.0))) (Awe.step_response tf (5.0 *. tau))

let test_impulse_response () =
  let g, c, b = rc 1000.0 1e-9 in
  let tf = Awe.of_network ~g ~c ~b ~out:0 ~order:1 in
  (* h(t) = (1/C) exp(-t/RC) *)
  check_close ~eps:1e-4 "impulse at 0+" 1e9 (Awe.impulse_response tf 1e-12);
  check_close ~eps:1e-3 "impulse at tau" (1e9 *. exp (-1.0)) (Awe.impulse_response tf 1e-6)

let test_two_pole_ladder () =
  (* R1-C1-R2-C2 ladder: compare the AWE magnitude with direct AC solve *)
  let g = [| [| (1.0 /. 1000.0) +. (1.0 /. 500.0); -.(1.0 /. 500.0) |];
             [| -.(1.0 /. 500.0); 1.0 /. 500.0 |] |] in
  let c = [| [| 1e-9; 0.0 |]; [| 0.0; 2e-9 |] |] in
  let b = [| 1.0; 0.0 |] in
  let tf = Awe.of_network ~g ~c ~b ~out:1 ~order:2 in
  List.iter
    (fun f ->
      let omega = 2.0 *. Float.pi *. f in
      let a =
        Array.init 2 (fun i ->
            Array.init 2 (fun j -> { Complex.re = g.(i).(j); im = omega *. c.(i).(j) }))
      in
      let x = Matrix.Cplx.solve a [| Complex.one; Complex.zero |] in
      check_close ~eps:1e-4 (Printf.sprintf "ladder f=%g" f) (Complex.norm x.(1)) (Awe.magnitude tf f))
    [ 1.0; 1e4; 1e5; 1e6; 1e7 ]

let test_stable_part_drops_rhp () =
  let tf =
    { Awe.poles = [| { Complex.re = -1.0; im = 0.0 }; { Complex.re = 2.0; im = 0.0 } |];
      residues = [| Complex.one; Complex.one |];
      moments = [||];
      order = 2 }
  in
  let s = Awe.stable_part tf in
  Alcotest.(check int) "one pole kept" 1 (Array.length s.Awe.poles);
  Alcotest.(check bool) "stable" true (Awe.stable s)

let test_dominant_pole () =
  let tf =
    { Awe.poles = [| { Complex.re = -100.0; im = 0.0 }; { Complex.re = -1.0; im = 0.0 } |];
      residues = [| Complex.one; Complex.one |];
      moments = [||];
      order = 2 }
  in
  match Awe.dominant_pole tf with
  | Some p -> check_close "dominant" (-1.0) p.Complex.re
  | None -> Alcotest.fail "expected a dominant pole"

let test_of_circuit_ota () =
  (* order-reduced AWE of the OTA matches the AC sweep *)
  let t = Mixsyn_circuit.Topology.ota_5t in
  let nl = t.Mixsyn_circuit.Template.build tech [| 50e-6; 25e-6; 40e-6; 1e-6; 100e-6; 2e-12 |] in
  let op = Mixsyn_engine.Dc.solve ~tech nl in
  let out = N.find_net nl "out" in
  let tf = Awe.of_circuit ~tech nl op ~out ~order:4 in
  let freqs = [| 1.0; 1e4; 1e6; 1e8 |] in
  let ac = Mixsyn_engine.Ac.solve ~tech nl op ~freqs in
  Array.iteri
    (fun k f ->
      let numeric = Mixsyn_engine.Ac.magnitude ac k out in
      check_close ~eps:0.01 (Printf.sprintf "f=%g" f) numeric (Awe.magnitude tf f))
    freqs

let test_order_reduction_graceful () =
  (* a 1-pole system asked for order 4 must degrade, not explode *)
  let g, c, b = rc 1000.0 1e-9 in
  let ms = Awe.moments ~g ~c ~b ~out:0 ~count:8 in
  let tf = Awe.pade ms ~order:4 in
  if tf.Awe.order > 4 then Alcotest.fail "order grew";
  check_close ~eps:1e-3 "still accurate" 1000.0 (Awe.magnitude tf 1e-3)

(* --- bit identity with the boxed path, and the singular-G contract -------- *)

let amplifiers () =
  List.map
    (fun t ->
      let nl = t.Mixsyn_circuit.Template.build tech (Mixsyn_circuit.Template.midpoint t) in
      (nl, Mixsyn_engine.Dc.solve ~tech nl))
    Mixsyn_circuit.Topology.all

let test_moments_match_boxed () =
  (* one factorization of G, back-substituted per moment, must reproduce
     the boxed LU's moments bit for bit *)
  List.iteri
    (fun k (nl, op) ->
      let g, c, b = Mixsyn_engine.Ac.build_system tech nl op in
      let b = Array.map (fun (z : Complex.t) -> z.Complex.re) b in
      let out = Mixsyn_engine.Mna.node_index (N.find_net nl "out") in
      let flat = Awe.moments ~g ~c ~b ~out ~count:16 in
      let boxed = Oracle.moments ~g ~c ~b ~out ~count:16 in
      Array.iteri
        (fun j m ->
          if Int64.bits_of_float m <> Int64.bits_of_float flat.(j) then
            Alcotest.failf "circuit %d moment %d: boxed %h, flat %h" k j m flat.(j))
        boxed)
    (Fixtures.detector_sizings ~count:40 @ amplifiers ())

(* (order achieved, digest of the moments, poles and residues) of
   [Awe.of_circuit] as computed on the boxed LU and boxed root finder;
   order 0 marks a sizing with no Padé approximant at any order *)
let detector_awe8 =
  [ (0, "failure");
    (0, "failure");
    (2, "8952f8151c108e170708db6ff1541dfe");
    (2, "c66b6b6a72299dbc1ef08dfd786435b8");
    (0, "failure");
    (2, "2e11f45a01de19ce79f3403de57aabb7");
    (0, "failure");
    (4, "50fa2c6086ec2441425f0f70f8a0dadc");
    (2, "0912d64001c8a4269dfdfc82ddf3cf87");
    (0, "failure");
    (2, "ecf1e39f4aa86f8066dd1e5c25504f1d");
    (2, "a77047bcd625193550a979c5711f1385");
    (0, "failure");
    (0, "failure");
    (2, "885c99d840e650e6df41f556e278c12e");
    (2, "a508ec1ddaf34f66935c1794ea8f43af");
    (2, "3af4f625167e41d961fe2c1b38a42994");
    (0, "failure");
    (2, "e2a0047630b673c421789b12a92805e8");
    (2, "4a0038f84b4eb9bed0da07022193366b");
    (2, "18646f3fa59610a02711432873d1f8d5");
    (0, "failure");
    (0, "failure");
    (0, "failure");
    (0, "failure");
    (2, "064d76ba5d2e30638626a6b0966eace5");
    (0, "failure");
    (2, "52cdc614d74c48f29aff5333ff696eb9");
    (2, "65025403c117554d22d1b198d2c84d8c");
    (0, "failure");
    (0, "failure");
    (2, "824a8254e54f572a708c6d3012e33577");
    (2, "d94aed9293db6f1cbfb1599b974cbc35");
    (0, "failure");
    (0, "failure");
    (0, "failure");
    (0, "failure");
    (0, "failure");
    (2, "b1f836adc986f3072eb8154ca034b6c3");
    (0, "failure") ]

let amplifier_awe4 =
  [ (4, "75a29a61085ae664eb0d61ad5c43c716");
    (4, "4c2b1c441b351e0cfc37ea37904a74dc");
    (4, "a74de939c766a20696ff2583664e0866");
    (4, "d64204e20875cd8a5a03f7635c7bd4de") ]

let awe_signature nl op ~order =
  match Awe.of_circuit ~tech nl op ~out:(N.find_net nl "out") ~order with
  | exception Failure _ -> (0, "failure")
  | tf ->
    let parts (z : Complex.t) = [ z.Complex.re; z.Complex.im ] in
    ( tf.Awe.order,
      Fixtures.bits_digest
        (Array.to_list tf.Awe.moments
        @ List.concat_map parts (Array.to_list tf.Awe.poles)
        @ List.concat_map parts (Array.to_list tf.Awe.residues)) )

let test_pade_matches_capture () =
  let check what expected cases ~order =
    List.iteri
      (fun k ((exp_order, exp_digest), (nl, op)) ->
        let got_order, got_digest = awe_signature nl op ~order in
        Alcotest.(check int) (Printf.sprintf "%s %d: order" what k) exp_order got_order;
        Alcotest.(check string) (Printf.sprintf "%s %d: bits" what k) exp_digest got_digest)
      (List.combine expected cases)
  in
  check "detector" detector_awe8 (Fixtures.detector_sizings ~count:40) ~order:8;
  check "amplifier" amplifier_awe4 (amplifiers ()) ~order:4

let test_singular_g_raises () =
  (* a floating node: G has a zero row and column, so the network has no
     moments and no order fallback can help *)
  let g = [| [| 1e-3; 0.0 |]; [| 0.0; 0.0 |] |] in
  let c = [| [| 1e-9; 0.0 |]; [| 0.0; 1e-9 |] |] in
  let b = [| 1.0; 0.0 |] in
  match Awe.of_network ~g ~c ~b ~out:0 ~order:2 with
  | exception Mixsyn_util.Fmat.Singular 1 -> ()
  | exception e -> Alcotest.failf "expected Fmat.Singular 1, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "a singular G produced an AWE model"

let () =
  Alcotest.run "awe"
    [ ( "exact",
        [ Alcotest.test_case "single pole" `Quick test_single_pole;
          Alcotest.test_case "moments" `Quick test_moments_match_theory;
          Alcotest.test_case "step response" `Quick test_step_response;
          Alcotest.test_case "impulse response" `Quick test_impulse_response;
          Alcotest.test_case "two-pole ladder" `Quick test_two_pole_ladder ] );
      ( "robustness",
        [ Alcotest.test_case "stable part" `Quick test_stable_part_drops_rhp;
          Alcotest.test_case "dominant pole" `Quick test_dominant_pole;
          Alcotest.test_case "ota vs ac" `Quick test_of_circuit_ota;
          Alcotest.test_case "order reduction" `Quick test_order_reduction_graceful;
          Alcotest.test_case "singular G raises" `Quick test_singular_g_raises ] );
      ( "bit-identity",
        [ Alcotest.test_case "moments match boxed" `Quick test_moments_match_boxed;
          Alcotest.test_case "pade matches capture" `Quick test_pade_matches_capture ] ) ]
