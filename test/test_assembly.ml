(* System-assembly tests: floorplanning, WREN global routing, RAIL power
   grid. *)

module A = Mixsyn_assembly
module B = A.Block
module FP = A.Floorplan
module W = A.Wren
module PG = A.Power_grid

let blocks = B.data_channel_testbench ()

let check_close ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps *. Float.max 1e-30 (Float.abs expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

(* --- blocks ------------------------------------------------------------- *)

let test_block_classes () =
  let dsp = List.find (fun b -> b.B.b_name = "dsp-core") blocks in
  let pll = List.find (fun b -> b.B.b_name = "pll") blocks in
  Alcotest.(check bool) "dsp aggressor" true (B.is_aggressor dsp);
  Alcotest.(check bool) "dsp not victim" false (B.is_victim dsp);
  Alcotest.(check bool) "pll victim" true (B.is_victim pll);
  if B.noise_injection dsp <= 0.0 then Alcotest.fail "dsp injects nothing"

let test_testbench_shape () =
  Alcotest.(check int) "eight blocks" 8 (List.length blocks);
  if not (List.exists B.is_victim blocks) then Alcotest.fail "no victims";
  if not (List.exists B.is_aggressor blocks) then Alcotest.fail "no aggressors"

(* --- floorplan ------------------------------------------------------------ *)

let box (p : FP.placement) =
  let w = if p.FP.rotated then p.FP.block.B.bh else p.FP.block.B.bw in
  let h = if p.FP.rotated then p.FP.block.B.bw else p.FP.block.B.bh in
  (p.FP.x, p.FP.y, p.FP.x +. w, p.FP.y +. h)

let test_floorplan_no_overlap () =
  let fp = FP.floorplan ~seed:5 blocks in
  let boxes = List.map box fp.FP.placements in
  let rec pairs = function
    | [] -> ()
    | (x0, y0, x1, y1) :: rest ->
      List.iter
        (fun (a0, b0, a1, b1) ->
          let eps = 1e-12 in
          if x0 < a1 -. eps && a0 < x1 -. eps && y0 < b1 -. eps && b0 < y1 -. eps then
            Alcotest.fail "blocks overlap")
        rest;
      pairs rest
  in
  pairs boxes

let test_floorplan_area_bound () =
  let fp = FP.floorplan ~seed:5 blocks in
  let sum = List.fold_left (fun acc b -> acc +. (b.B.bw *. b.B.bh)) 0.0 blocks in
  if fp.FP.fp_area < sum -. 1e-12 then Alcotest.fail "area below the block sum";
  (* slicing should not waste more than ~80 % *)
  if fp.FP.fp_area > 1.8 *. sum then
    Alcotest.failf "floorplan too loose: %.2f vs %.2f mm2" (fp.FP.fp_area *. 1e6) (sum *. 1e6)

let test_floorplan_all_blocks_inside () =
  let fp = FP.floorplan ~seed:5 blocks in
  List.iter
    (fun p ->
      let x0, y0, x1, y1 = box p in
      if x0 < -1e-12 || y0 < -1e-12 || x1 > fp.FP.chip_w +. 1e-9 || y1 > fp.FP.chip_h +. 1e-9
      then Alcotest.fail "block outside the chip")
    fp.FP.placements

let test_noise_aware_beats_blind () =
  let aware = FP.floorplan ~seed:5 ~noise_weight:2.0 blocks in
  let blind = FP.floorplan ~seed:5 ~noise_weight:0.0 blocks in
  if FP.total_victim_noise aware > FP.total_victim_noise blind +. 1e-9 then
    Alcotest.fail "substrate-aware floorplan is noisier than the blind one"

let test_floorplan_victims_reported () =
  let fp = FP.floorplan ~seed:5 blocks in
  let victims = List.filter B.is_victim blocks in
  Alcotest.(check int) "noise entry per victim" (List.length victims)
    (List.length fp.FP.victim_noise)

(* --- wren ------------------------------------------------------------------ *)

let fp = FP.floorplan ~seed:5 blocks

let test_wren_routes_everything_blind () =
  let r = W.route ~mode:W.Noise_blind fp in
  Alcotest.(check (list string)) "no unrouted" [] r.W.unrouted;
  if r.W.total_length <= 0.0 then Alcotest.fail "zero wirelength"

let test_wren_modes_ordering () =
  let blind = W.route ~mode:W.Noise_blind fp in
  let snr = W.route ~mode:W.Snr_constrained fp in
  (* SNR-constrained routing must not share more corridor than blind *)
  if snr.W.shared_length > blind.W.shared_length +. 1e-12 then
    Alcotest.fail "SNR constraints increased aggressor sharing";
  (* and pays for it in length *)
  if snr.W.total_length < blind.W.total_length -. 1e-9 then
    Alcotest.fail "SNR routing can't be shorter than shortest-path routing"

let test_wren_segregated_zero_sharing () =
  let r = W.route ~mode:W.Segregated fp in
  check_close ~eps:1e-12 "no shared corridors" 0.0 r.W.shared_length

let test_wren_kind_heuristic () =
  Alcotest.(check bool) "clk aggressor" true (W.kind_of_net "clk" = W.Aggressor);
  Alcotest.(check bool) "vref quiet" true (W.kind_of_net "vref" = W.Quiet)

let test_wren_budget_mapping () =
  let r = W.route ~mode:W.Snr_constrained fp in
  let budgets = W.map_budgets fp r ~total_budget_f:1e-13 in
  (* per quiet net, the budgets must sum back to the total *)
  let quiet_nets =
    List.filter_map
      (fun rn -> if rn.W.kind = W.Quiet && rn.W.corridors <> [] then Some rn.W.gn_net else None)
      r.W.routed
  in
  List.iter
    (fun net ->
      let total =
        List.fold_left
          (fun acc cb -> if cb.W.cb_net = net then acc +. cb.W.budget_f else acc)
          0.0 budgets
      in
      check_close ~eps:1e-6 (Printf.sprintf "budget sums for %s" net) 1e-13 total)
    quiet_nets

(* --- detailed hand-off ------------------------------------------------------- *)

let test_detailed_handoff () =
  let global = W.route ~mode:W.Snr_constrained fp in
  let r = A.Detailed.run fp global in
  (* corridors carrying both kinds must exist on this chip and get shields *)
  let mixed =
    List.filter
      (fun (j : A.Detailed.channel_job) ->
        List.exists (fun (_, k) -> k = W.Aggressor) j.A.Detailed.nets
        && List.exists (fun (_, k) -> k = W.Quiet) j.A.Detailed.nets)
      r.A.Detailed.jobs
  in
  if mixed = [] then Alcotest.fail "no mixed corridors to exercise";
  if r.A.Detailed.total_shields = 0 then Alcotest.fail "no shields inserted";
  List.iter
    (fun (j : A.Detailed.channel_job) ->
      if j.A.Detailed.coupling_f < 0.0 then Alcotest.fail "negative coupling";
      Alcotest.(check int) "all nets routed" (List.length j.A.Detailed.nets)
        (List.length j.A.Detailed.routed.Mixsyn_layout.Channel_router.routed))
    r.A.Detailed.jobs

let test_detailed_budgets_respected () =
  let global = W.route ~mode:W.Snr_constrained fp in
  let r = A.Detailed.run ~total_budget_f:1e-9 fp global in
  (* an essentially unlimited budget cannot be exceeded *)
  Alcotest.(check int) "no channel over budget" 0 r.A.Detailed.channels_over_budget

(* --- power grid --------------------------------------------------------------- *)

let test_powergrid_synthesis_meets () =
  let r = PG.synthesize fp in
  Alcotest.(check bool) "constraints met" true r.PG.meets;
  if r.PG.after.PG.ir_drop > PG.default_constraints.PG.max_ir_drop then
    Alcotest.fail "ir drop above limit";
  if r.PG.after.PG.em_overload > 1.0 then Alcotest.fail "electromigration above limit"

let test_powergrid_costs_metal () =
  let r = PG.synthesize fp in
  if r.PG.after.PG.metal_area <= r.PG.before.PG.metal_area then
    Alcotest.fail "meeting constraints should cost metal"

let test_powergrid_monotone_in_width () =
  (* uniformly wider straps can only reduce IR drop *)
  let thin =
    { PG.pitch = 0.8e-3; strap_widths = Array.make 20 2e-6; n_vertical = 10; n_horizontal = 10 }
  in
  let wide = { thin with PG.strap_widths = Array.make 20 40e-6 } in
  let m_thin = PG.evaluate fp thin in
  let m_wide = PG.evaluate fp wide in
  if m_wide.PG.ir_drop >= m_thin.PG.ir_drop then Alcotest.fail "wider straps worsened IR drop"

let test_powergrid_spike_scales_with_ipeak () =
  (* doubling every block's switching spike doubles the bounce, near enough *)
  let double =
    List.map (fun b -> { b with B.i_peak = 2.0 *. b.B.i_peak }) blocks
  in
  let fp2 = { fp with FP.placements =
                        List.map2 (fun p b -> { p with FP.block = b }) fp.FP.placements double }
  in
  let design =
    { PG.pitch = 0.8e-3; strap_widths = Array.make 20 10e-6; n_vertical = 10; n_horizontal = 10 }
  in
  let m1 = PG.evaluate fp design and m2 = PG.evaluate fp2 design in
  check_close ~eps:0.05 "spike doubles" (2.0 *. m1.PG.spike) m2.PG.spike

(* digests of the five metrics [PG.evaluate] computed on the boxed LU, for
   floorplan seeds 1-3 x {uniform, graded} strap widths x AWE orders 1, 3, 5 *)
let power_grid_metrics =
  [ "d3cc3d089bc8af194a15d5565e46f420";
    "6f8f8a609336dd819dda6a6b94add8ab";
    "e18a658f98ab999f7e70730fd8770c7b";
    "0322d880b4c7fd87b843a092f711f908";
    "4d164ee02291955ef50ded80648c286a";
    "a9b8d9d1c8867880f7154ecd25c887c8";
    "d25f0b55899f86cf30d8dae13beb268f";
    "71433175d4235da5072f81e244bddf88";
    "0a07e279c6160f8451ba8bca0302dec7";
    "22b3ccff93049948f051890ad4a68e99";
    "dfcb303e0680c0e9284b25bd59ebc50e";
    "21b8da406fbcce551a52abae5af71071";
    "fe8aa940b9086757f0c5b87190275f0c";
    "cd60f59ed738f27fcc5d89b367b79279";
    "1b1f957068cd5675c37dde52a14ef737";
    "4368f7c7627cc7f0ad0016af9b5c3f0c";
    "2fbe4cc62eaa522efb44a0ef97603bb6";
    "f3bd46c764500af60b9b1ca1831aa4ed" ]

let test_powergrid_matches_capture () =
  let designs =
    [ Array.make 20 2e-6; Array.init 20 (fun i -> 2e-6 *. float_of_int (1 + (i mod 7))) ]
  in
  let got =
    List.concat_map
      (fun seed ->
        let fp = FP.floorplan ~seed blocks in
        List.concat_map
          (fun strap_widths ->
            List.map
              (fun awe_order ->
                let design =
                  { PG.pitch = 0.8e-3; strap_widths; n_vertical = 10; n_horizontal = 10 }
                in
                let m = PG.evaluate ~awe_order fp design in
                Fixtures.bits_digest
                  [ m.PG.ir_drop; m.PG.spike; m.PG.victim_bounce; m.PG.em_overload;
                    m.PG.metal_area ])
              [ 1; 3; 5 ])
          designs)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list string)) "metric bits" power_grid_metrics got

let () =
  Alcotest.run "assembly"
    [ ( "block",
        [ Alcotest.test_case "classes" `Quick test_block_classes;
          Alcotest.test_case "testbench shape" `Quick test_testbench_shape ] );
      ( "floorplan",
        [ Alcotest.test_case "no overlap" `Quick test_floorplan_no_overlap;
          Alcotest.test_case "area bound" `Quick test_floorplan_area_bound;
          Alcotest.test_case "blocks inside chip" `Quick test_floorplan_all_blocks_inside;
          Alcotest.test_case "noise-aware beats blind" `Quick test_noise_aware_beats_blind;
          Alcotest.test_case "victims reported" `Quick test_floorplan_victims_reported ] );
      ( "wren",
        [ Alcotest.test_case "blind routes all" `Quick test_wren_routes_everything_blind;
          Alcotest.test_case "mode ordering" `Quick test_wren_modes_ordering;
          Alcotest.test_case "segregated zero sharing" `Quick test_wren_segregated_zero_sharing;
          Alcotest.test_case "kind heuristic" `Quick test_wren_kind_heuristic;
          Alcotest.test_case "budget mapping" `Quick test_wren_budget_mapping ] );
      ( "detailed",
        [ Alcotest.test_case "hand-off" `Quick test_detailed_handoff;
          Alcotest.test_case "budgets" `Quick test_detailed_budgets_respected ] );
      ( "power-grid",
        [ Alcotest.test_case "synthesis meets" `Quick test_powergrid_synthesis_meets;
          Alcotest.test_case "costs metal" `Quick test_powergrid_costs_metal;
          Alcotest.test_case "monotone in width" `Quick test_powergrid_monotone_in_width;
          Alcotest.test_case "spike scales" `Quick test_powergrid_spike_scales_with_ipeak;
          Alcotest.test_case "evaluate matches capture" `Quick test_powergrid_matches_capture ] ) ]
