(* Backend tests: geometry, generators, stacking, placement, routing,
   channels, compaction, extraction, sensitivity. *)

module G = Mixsyn_layout.Geom
module Rules = Mixsyn_layout.Rules
module Cell = Mixsyn_layout.Cell
module Gen = Mixsyn_layout.Generator
module St = Mixsyn_layout.Stacker
module P = Mixsyn_layout.Placer
module MR = Mixsyn_layout.Maze_router
module CR = Mixsyn_layout.Channel_router
module Comp = Mixsyn_layout.Compactor
module Ex = Mixsyn_layout.Extract
module Sens = Mixsyn_layout.Sensitivity
module CF = Mixsyn_layout.Cell_flow
module N = Mixsyn_circuit.Netlist
module Tp = Mixsyn_circuit.Template

let tech = Mixsyn_circuit.Tech.generic_07um

let check_close ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps *. Float.max 1e-30 (Float.abs expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

let miller_netlist () =
  let x = [| 60e-6; 20e-6; 30e-6; 60e-6; 45e-6; 1e-6; 50e-6; 3e-12; 5e-12 |] in
  Mixsyn_circuit.Topology.miller_ota.Tp.build tech x

(* --- geometry ------------------------------------------------------------ *)

let test_rect_normalisation () =
  let r = G.rect G.Metal1 5.0 6.0 1.0 2.0 in
  check_close "x0" 1.0 r.G.x0;
  check_close "y1" 6.0 r.G.y1;
  check_close "area" 16.0 (G.area r)

let test_overlap () =
  let a = G.rect G.Metal1 0.0 0.0 2.0 2.0 in
  let b = G.rect G.Metal1 1.0 1.0 3.0 3.0 in
  let c = G.rect G.Metal1 2.0 0.0 4.0 2.0 in
  Alcotest.(check bool) "overlapping" true (G.overlaps a b);
  Alcotest.(check bool) "edge-sharing is not overlap" false (G.overlaps a c);
  check_close "intersection" 1.0 (G.intersection_area a b)

let test_bbox () =
  match G.bbox [ G.rect G.Metal1 0.0 0.0 1.0 1.0; G.rect G.Poly 3.0 (-1.0) 4.0 2.0 ] with
  | Some bb ->
    check_close "x0" 0.0 bb.G.x0;
    check_close "y0" (-1.0) bb.G.y0;
    check_close "x1" 4.0 bb.G.x1
  | None -> Alcotest.fail "bbox of non-empty list"

let prop_transform_preserves_area =
  QCheck.Test.make ~name:"orientation transforms preserve area" ~count:300
    QCheck.(pair (int_range 0 7) (quad (float_range 0. 10.) (float_range 0. 10.)
                                    (float_range 0.1 5.) (float_range 0.1 5.)))
    (fun (oi, (x, y, w, h)) ->
      let r = G.rect G.Metal1 x y (x +. w) (y +. h) in
      let orient = G.all_orientations.(oi) in
      let r' = G.transform orient ~w:20.0 ~h:20.0 r in
      Float.abs (G.area r -. G.area r') < 1e-9)

let test_transform_r90_swaps_dims () =
  let r = G.rect G.Metal1 0.0 0.0 4.0 1.0 in
  let r' = G.transform G.R90 ~w:4.0 ~h:1.0 r in
  check_close "width" 1.0 (G.width r');
  check_close "height" 4.0 (G.height r')

(* --- cells / generators ---------------------------------------------------- *)

let test_cell_normalised_to_origin () =
  let rects = [ G.rect G.Metal1 5.0 5.0 7.0 8.0 ] in
  let c = Cell.make "c" rects [] in
  check_close "width" 2.0 c.Cell.cw;
  check_close "height" 3.0 c.Cell.ch;
  match c.Cell.rects with
  | [ r ] -> check_close "anchored" 0.0 r.G.x0
  | _ -> Alcotest.fail "rect lost"

let test_mos_cell_pins () =
  let c =
    Gen.mos ~name:"m1" ~polarity:N.Nmos ~w:20e-6 ~l:1e-6 ~folds:2 ~drain_net:"d"
      ~gate_net:"g" ~source_net:"s" ()
  in
  let nets = List.sort_uniq compare (List.map (fun p -> p.Cell.pin_net) c.Cell.pins) in
  Alcotest.(check (list string)) "terminal nets" [ "d"; "g"; "s" ] nets;
  if Cell.area c <= 0.0 then Alcotest.fail "degenerate cell"

let test_mos_folding_shrinks_height () =
  let tall =
    Gen.mos ~name:"m" ~polarity:N.Nmos ~w:40e-6 ~l:1e-6 ~folds:1 ~drain_net:"d"
      ~gate_net:"g" ~source_net:"s" ()
  in
  let folded =
    Gen.mos ~name:"m" ~polarity:N.Nmos ~w:40e-6 ~l:1e-6 ~folds:4 ~drain_net:"d"
      ~gate_net:"g" ~source_net:"s" ()
  in
  if folded.Cell.ch >= tall.Cell.ch then Alcotest.fail "folding should reduce height"

let test_pmos_cell_has_well () =
  let c =
    Gen.mos ~name:"m" ~polarity:N.Pmos ~w:10e-6 ~l:1e-6 ~folds:1 ~drain_net:"d"
      ~gate_net:"g" ~source_net:"s" ()
  in
  Alcotest.(check bool) "nwell present" true
    (List.exists (fun r -> r.G.layer = G.Nwell) c.Cell.rects)

let test_stack_cell_nodes () =
  let c =
    Gen.stack ~name:"st" ~polarity:N.Nmos ~w:10e-6 ~l:1e-6
      ~gates:[ ("m1", "g1"); ("m2", "g2") ] ~nodes:[ "a"; "b"; "c" ] ()
  in
  let nets = List.sort_uniq compare (List.map (fun p -> p.Cell.pin_net) c.Cell.pins) in
  Alcotest.(check (list string)) "all nets pinned" [ "a"; "b"; "c"; "g1"; "g2" ] nets

let test_capacitor_area_scales () =
  let small = Gen.capacitor ~name:"c1" ~farads:1e-12 ~net_a:"a" ~net_b:"b" () in
  let big = Gen.capacitor ~name:"c2" ~farads:4e-12 ~net_a:"a" ~net_b:"b" () in
  check_close ~eps:0.05 "4x capacitance = 4x area" 4.0 (Cell.area big /. Cell.area small)

let test_resistor_squares () =
  let r = Gen.resistor ~name:"r1" ~ohms:10e3 ~net_a:"a" ~net_b:"b" () in
  if Cell.area r <= 0.0 then Alcotest.fail "degenerate resistor";
  Alcotest.(check int) "two pins" 2 (List.length r.Cell.pins)

(* --- stacking ----------------------------------------------------------------- *)

let test_stacker_covers_all_devices () =
  let nl = miller_netlist () in
  let devices = N.mos_list nl in
  let s = St.linear devices in
  let stacked = List.concat_map (fun st -> st.St.devices) s.St.stacks in
  Alcotest.(check int) "every device stacked once" (List.length devices)
    (List.length stacked);
  Alcotest.(check int) "no duplicates" (List.length stacked)
    (List.length (List.sort_uniq compare stacked))

let test_stacker_merges_diff_pair () =
  (* the miller input pair shares its source: must merge *)
  let nl = miller_netlist () in
  let s = St.linear (N.mos_list nl) in
  if s.St.merged_junctions < 2 then
    Alcotest.failf "expected >= 2 merges, got %d" s.St.merged_junctions

let test_exact_matches_linear_optimum () =
  let nl = miller_netlist () in
  let devices = N.mos_list nl in
  let lin = St.linear devices in
  let ex = St.exact devices in
  Alcotest.(check int) "same merge count" lin.St.merged_junctions
    ex.St.best.St.merged_junctions;
  if ex.St.optimal_count < 1 then Alcotest.fail "no optimal stacking counted"

let test_junction_capacitance_improves () =
  let nl = miller_netlist () in
  let devices = N.mos_list nl in
  let merged = St.linear devices in
  let unstacked = { St.stacks = []; merged_junctions = 0 } in
  let c_merged = St.junction_capacitance tech devices merged in
  let c_flat = St.junction_capacitance tech devices unstacked in
  if c_merged >= c_flat then Alcotest.fail "stacking should reduce junction capacitance"

let test_stacker_respects_polarity () =
  let nl = miller_netlist () in
  let s = St.linear (N.mos_list nl) in
  List.iter
    (fun st ->
      List.iter
        (fun d ->
          let m = N.find_mos nl d in
          if m.N.polarity <> st.St.polarity then Alcotest.fail "mixed-polarity stack")
        st.St.devices)
    s.St.stacks

(* --- placement ------------------------------------------------------------------ *)

let items () =
  let nl = miller_netlist () in
  CF.items_of_netlist nl

let test_placer_overlap_free () =
  let its, _, sym = items () in
  let placement = P.place ~seed:23 its sym in
  Alcotest.(check bool) "no overlaps" true (P.overlap_free its placement)

let test_placer_beats_initial_wirelength () =
  let its, _, sym = items () in
  let placement = P.place ~seed:23 its sym in
  (* a naive far-apart lineup for comparison *)
  let spread =
    Array.mapi
      (fun i _ ->
        { P.variant = 0; orient = G.R0; x = float_of_int i *. 150e-6; y = 0.0 })
      its
  in
  if P.wirelength its placement >= P.wirelength its spread then
    Alcotest.fail "annealing did not improve on the spread lineup"

let test_placer_cost_parts_nonnegative () =
  let its, _, sym = items () in
  let placement = P.place ~seed:23 its sym in
  let overlap, area, wl, symv = P.cost_parts its sym placement in
  if overlap < 0.0 || area <= 0.0 || wl < 0.0 || symv < 0.0 then
    Alcotest.fail "nonsensical cost parts"

(* --- incremental evaluator ------------------------------------------------ *)

let lineup its =
  Array.mapi
    (fun i _ -> { P.variant = 0; orient = G.R0; x = float_of_int i *. 40e-6; y = 0.0 })
    its

(* drive [ev] through one random tentative move, returning after the
   delta; the caller decides commit/revert *)
let random_move rng its ev =
  let n = Array.length its in
  let i = Mixsyn_util.Rng.int rng n in
  if n > 1 && Mixsyn_util.Rng.int rng 10 >= 7 then
    let j = (i + 1 + Mixsyn_util.Rng.int rng (n - 1)) mod n in
    P.Eval.swap_positions ev i j
  else
    P.Eval.set_site ev i
      { P.variant = Mixsyn_util.Rng.int rng (Array.length its.(i).P.variants);
        orient = Mixsyn_util.Rng.choice rng G.all_orientations;
        x = Mixsyn_util.Rng.uniform rng (-200e-6) 200e-6;
        y = Mixsyn_util.Rng.uniform rng (-200e-6) 200e-6 }

(* the evaluator's contract: after ANY sequence of moves, commits, and
   reverts, its state is bit-equal to a fresh build of the same placement —
   exact float equality, no epsilon *)
let prop_eval_matches_full_recompute =
  QCheck.Test.make ~name:"incremental eval == full recompute, bit-exact" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let its, _, sym = items () in
      let rng = Mixsyn_util.Rng.create seed in
      let ev = P.Eval.create its sym (lineup its) in
      for _ = 1 to 120 do
        let (_ : float) = random_move rng its ev in
        if Mixsyn_util.Rng.bool rng then P.Eval.commit ev else P.Eval.revert ev
      done;
      let o1, a1, w1, s1 = P.Eval.cost_parts ev in
      let o2, a2, w2, s2 = P.cost_parts its sym (P.Eval.placement ev) in
      o1 = o2 && a1 = a2 && w1 = w2 && s1 = s2)

let prop_eval_revert_exact =
  QCheck.Test.make ~name:"revert restores cost_parts bit-exactly" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let its, _, sym = items () in
      let rng = Mixsyn_util.Rng.create seed in
      let ev = P.Eval.create its sym (lineup its) in
      (* wander to an arbitrary committed state first *)
      for _ = 1 to 40 do
        let (_ : float) = random_move rng its ev in
        P.Eval.commit ev
      done;
      let ok = ref true in
      for _ = 1 to 60 do
        let before = P.Eval.cost_parts ev in
        let (_ : float) = random_move rng its ev in
        P.Eval.revert ev;
        if P.Eval.cost_parts ev <> before then ok := false
      done;
      !ok)

let test_place_allocation_cap () =
  (* one annealing chain over the incremental evaluator (~87k moves on
     the Miller OTA) allocates ~7.9e6 minor words; a placer that rebuilds
     the geometry per move allocates ~8.9e8, a hundred times the cap.
     Placement never uses the pool, so every word lands on this domain. *)
  let its, _, sym = items () in
  let w0 = Gc.minor_words () in
  let (_ : P.placement) = P.place ~seed:23 its sym in
  let words = Gc.minor_words () -. w0 in
  if words > 8.9e6 then
    Alcotest.failf "one placement chain allocated %.3g minor words (cap 8.9e6)" words

(* --- maze routing ------------------------------------------------------------------ *)

let test_route_miller_complete () =
  let nl = miller_netlist () in
  let r = CF.koan ~seed:23 nl in
  Alcotest.(check (list string)) "no failures" [] r.CF.route.MR.failed;
  if r.CF.wirelength_m <= 0.0 then Alcotest.fail "no wire laid"

let test_route_coupling_reported () =
  let nl = miller_netlist () in
  let r = CF.koan ~seed:23 nl in
  (* coupling entries must be symmetric-free and positive *)
  List.iter
    (fun (a, b, c) ->
      if a = b then Alcotest.fail "self coupling";
      if c <= 0.0 then Alcotest.fail "non-positive coupling")
    r.CF.route.MR.coupling

let test_net_class_compatibility () =
  Alcotest.(check bool) "sensitive vs noisy" false (MR.compatible MR.Sensitive MR.Noisy);
  Alcotest.(check bool) "sensitive vs sensitive" true (MR.compatible MR.Sensitive MR.Sensitive);
  Alcotest.(check bool) "neutral vs noisy" true (MR.compatible MR.Neutral MR.Noisy)

let test_parasitic_bound_reduces_coupling () =
  (* ROAD-style: a tight coupling budget on o1 must not increase its
     coupling exposure *)
  let nl = miller_netlist () in
  let plain = CF.koan ~seed:23 nl in
  let bounded = CF.koan ~seed:23 ~coupling_budgets:[ ("o1", 1e-18) ] nl in
  let c_plain = MR.coupling_on plain.CF.route "o1" in
  let c_bounded = MR.coupling_on bounded.CF.route "o1" in
  if c_bounded > c_plain +. 1e-18 then
    Alcotest.failf "budgeted routing coupled more: %g > %g" c_bounded c_plain

(* the Miller OTA's cells as [test_route_miller_complete]'s first
   placement attempt leaves them, and its nets *)
let miller_placed () =
  let its, nets, sym = items () in
  (P.realized its (P.place ~seed:23 its sym), nets)

let test_route_allocation_cap () =
  (* one search workspace per route and a flat heap: this route (72,343
     expansions, no rip-up) allocates 0.131e6 words, mostly grid-sized
     arrays made once per route and once per pass.  Grid-sized dist, prev
     and target arrays per search and a boxed heap entry per push took
     ~6.4e6; even one word per expansion would add ~0.07e6.  The
     grid-sized arrays go straight to the major heap, so count both
     heaps. *)
  let cells, nets = miller_placed () in
  let r, w =
    Fixtures.allocated_words (fun () ->
        MR.route ~symmetric_pairs:[ ("inp", "inn") ] ~cells ~nets ())
  in
  Alcotest.(check (list string)) "routes completely" [] r.MR.failed;
  if w > 1.5e5 then Alcotest.failf "one route allocated %.3g words (cap 1.5e5)" w

let test_route_polls_deadline () =
  let cells, nets = miller_placed () in
  let token = Mixsyn_util.Cancel.create ~timeout_s:0.0 () in
  match Mixsyn_util.Cancel.with_token token (fun () -> MR.route ~cells ~nets ()) with
  | exception Mixsyn_util.Cancel.Cancelled -> ()
  | (_ : MR.result) -> Alcotest.fail "an expired deadline did not stop the router"

(* --- route bits pinned at the closure-based search -------------------------- *)

(* every bit a route reports: each wire's net, rectangles, length and via
   count, the failed nets, the totals, the coupling entries and the mirror
   count *)
let route_bits (r : MR.result) =
  let f x = Int64.to_string (Int64.bits_of_float x) in
  let rect (q : G.rect) =
    String.concat " " [ G.layer_name q.G.layer; f q.G.x0; f q.G.y0; f q.G.x1; f q.G.y1 ]
  in
  String.concat "\n"
    (List.map
       (fun (w : MR.wire) ->
         String.concat "|"
           (w.MR.w_net :: f w.MR.length :: string_of_int w.MR.vias :: List.map rect w.MR.rects))
       r.MR.wires
    @ [ String.concat " " r.MR.failed;
        f r.MR.total_length;
        string_of_int r.MR.total_vias;
        String.concat " " (List.map (fun (a, b, c) -> a ^ "/" ^ b ^ "/" ^ f c) r.MR.coupling);
        string_of_int r.MR.symmetric_ok ])

(* MD5 of [route ()]'s bits and of the grid expansions and rip-up passes
   it counted *)
let route_digest route =
  let module T = Mixsyn_util.Telemetry in
  let e0 = T.counter "router.grid_expansions" and p0 = T.counter "router.ripup_passes" in
  let (r : MR.result) = route () in
  let e = T.counter "router.grid_expansions" - e0 and p = T.counter "router.ripup_passes" - p0 in
  (r, Digest.to_hex (Digest.string (Printf.sprintf "%s\n%d %d" (route_bits r) e p)))

(* a differential pair laid out symmetrically about x = 20 um with nothing
   in the way: [inn] is the mirror image of [inp]'s route *)
let mirrored_pair () =
  let um = 1e-6 in
  let pin name net x y =
    let r = G.rect G.Metal1 ((x -. 0.5) *. um) ((y -. 0.5) *. um) in
    { Cell.pin_name = name; pin_net = net; pin_rect = r ((x +. 0.5) *. um) ((y +. 0.5) *. um) }
  in
  let well =
    Cell.make "well"
      [ G.rect G.Nwell 0.0 0.0 (40.0 *. um) (20.0 *. um) ]
      [ pin "p1" "inp" 10.0 5.0; pin "p2" "inp" 12.0 15.0; pin "n1" "inn" 30.0 5.0;
        pin "n2" "inn" 28.0 15.0 ]
  in
  let net name = { MR.net = name; n_class = MR.Sensitive; coupling_budget = None } in
  MR.route ~symmetric_pairs:[ ("inp", "inn") ] ~cells:[ well ] ~nets:[ net "inp"; net "inn" ] ()

(* MD5 digests captured from the router this library had before its search
   workspace: the closure-taking Dijkstra over a boxed binary heap.  Each
   case pins a route's every result field plus its expansion and rip-up
   counts; they must not move. *)
let test_route_digests () =
  let koan ?coupling_budgets seed nl () = (CF.koan ~seed ?coupling_budgets nl).CF.route in
  List.iter
    (fun (t, expected) ->
      let nl = List.hd (Fixtures.topology_sizings t ~count:1) in
      let routes = List.map (fun seed -> route_digest (koan seed nl)) [ 13; 14; 15; 16 ] in
      Alcotest.(check string) t.Mixsyn_circuit.Template.t_name expected
        (Fixtures.combine_digests (List.map snd routes));
      (* the folded cascode at KOAN seed 16 keeps a net no placement routes *)
      if t == Mixsyn_circuit.Topology.folded_cascode then
        Alcotest.(check int) "failed nets at seed 16" 1
          (List.length (fst (List.nth routes 3)).MR.failed))
    Mixsyn_circuit.Topology.
      [ (ota_5t, "fd2fd092045b43523502babad973b2bf");
        (miller_ota, "a5f6fa20c51e89ea9cfe5e53f3cd6e2f");
        (folded_cascode, "972c4ebbb8ddecf5c0f52aa1ae588631");
        (comparator, "2a188eb72b8d7d8742fbf4f80c6c3729") ];
  (* a coupling budget scales the adjacency penalty by 8 *)
  Alcotest.(check string) "coupling budget" "33a4cccd04fe628c5a64901967edb35a"
    (snd (route_digest (koan ~coupling_budgets:[ ("o1", 1e-18) ] 23 (miller_netlist ()))));
  let r, d = route_digest mirrored_pair in
  Alcotest.(check int) "pair mirrored" 1 r.MR.symmetric_ok;
  Alcotest.(check string) "mirrored pair" "682c284da232cc7602e4c1ce4e3b8b57" d

(* --- channel routing --------------------------------------------------------------- *)

let channel_pins =
  [ { CR.column = 0; edge = CR.Top; cp_net = "a" };
    { CR.column = 4; edge = CR.Bottom; cp_net = "a" };
    { CR.column = 2; edge = CR.Top; cp_net = "b" };
    { CR.column = 6; edge = CR.Bottom; cp_net = "b" };
    { CR.column = 5; edge = CR.Top; cp_net = "c" };
    { CR.column = 8; edge = CR.Bottom; cp_net = "c" } ]

let test_channel_density () =
  Alcotest.(check int) "density" 2 (CR.density ~pins:channel_pins)

let test_channel_routes_all () =
  let r = CR.route ~pins:channel_pins ~styles:[] () in
  Alcotest.(check int) "all nets" 3 (List.length r.CR.routed);
  (* trunks span their pin columns *)
  List.iter
    (fun rn ->
      let pins = List.filter (fun p -> p.CR.cp_net = rn.CR.rn_net) channel_pins in
      List.iter
        (fun p ->
          if p.CR.column < rn.CR.left || p.CR.column > rn.CR.right then
            Alcotest.fail "trunk misses a pin column")
        pins)
    r.CR.routed

let test_channel_vertical_constraints () =
  (* at column 3, net t is on top and net b on bottom: t must be above b *)
  let pins =
    [ { CR.column = 0; edge = CR.Top; cp_net = "t" };
      { CR.column = 3; edge = CR.Top; cp_net = "t" };
      { CR.column = 3; edge = CR.Bottom; cp_net = "b" };
      { CR.column = 6; edge = CR.Bottom; cp_net = "b" } ]
  in
  let r = CR.route ~pins ~styles:[] () in
  let track n = (List.find (fun x -> x.CR.rn_net = n) r.CR.routed).CR.track in
  if track "t" <= track "b" then Alcotest.fail "vertical constraint violated"

let test_channel_shield_between_incompatible () =
  (* column-overlapping trunks so the coupling term is live *)
  let pins =
    [ { CR.column = 0; edge = CR.Top; cp_net = "quiet" };
      { CR.column = 4; edge = CR.Top; cp_net = "quiet" };
      { CR.column = 2; edge = CR.Bottom; cp_net = "loud" };
      { CR.column = 6; edge = CR.Bottom; cp_net = "loud" } ]
  in
  let styles =
    [ { CR.cn_net = "quiet"; cn_class = MR.Sensitive; track_width = 1 };
      { CR.cn_net = "loud"; cn_class = MR.Noisy; track_width = 1 } ]
  in
  let shielded = CR.route ~shielding:true ~pins ~styles () in
  let bare = CR.route ~shielding:false ~pins ~styles () in
  if List.length shielded.CR.shields = 0 then Alcotest.fail "no shield inserted";
  let total r =
    List.fold_left (fun acc (_, _, c) -> acc +. c) 0.0 r.CR.channel_coupling
  in
  if total shielded >= total bare then Alcotest.fail "shield did not reduce coupling"

let test_channel_cycle_detected () =
  (* t above b at column 0, b above t at column 3: a cycle *)
  let pins =
    [ { CR.column = 0; edge = CR.Top; cp_net = "t" };
      { CR.column = 0; edge = CR.Bottom; cp_net = "b" };
      { CR.column = 3; edge = CR.Top; cp_net = "b" };
      { CR.column = 3; edge = CR.Bottom; cp_net = "t" } ]
  in
  match CR.route ~pins ~styles:[] () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected cycle failure"

let test_channel_wide_nets () =
  let styles = [ { CR.cn_net = "a"; cn_class = MR.Neutral; track_width = 3 } ] in
  let r = CR.route ~pins:channel_pins ~styles () in
  let plain = CR.route ~pins:channel_pins ~styles:[] () in
  if r.CR.tracks_used <= plain.CR.tracks_used then
    Alcotest.fail "wide trunk should consume extra tracks"

let prop_channel_router_covers_pins =
  QCheck.Test.make ~name:"channel trunks span their pins" ~count:100
    QCheck.(pair (int_range 0 10000) (int_range 2 8))
    (fun (seed, n_nets) ->
      let rng = Mixsyn_util.Rng.create seed in
      let pins =
        List.concat
          (List.init n_nets (fun i ->
               let net = Printf.sprintf "n%d" i in
               let n_pins = 2 + Mixsyn_util.Rng.int rng 3 in
               List.init n_pins (fun _ ->
                   { CR.column = Mixsyn_util.Rng.int rng 30;
                     edge = (if Mixsyn_util.Rng.bool rng then CR.Top else CR.Bottom);
                     cp_net = net })))
      in
      match CR.route ~pins ~styles:[] () with
      | exception Failure _ -> true (* vertical-constraint cycle: allowed *)
      | r ->
        List.length r.CR.routed = n_nets
        && List.for_all
             (fun rn ->
               List.for_all
                 (fun p ->
                   p.CR.cp_net <> rn.CR.rn_net
                   || (p.CR.column >= rn.CR.left && p.CR.column <= rn.CR.right))
                 pins)
             r.CR.routed)

(* --- compaction --------------------------------------------------------------------- *)

let test_compaction_shrinks () =
  let far_apart =
    [ Cell.translate 0.0 0.0 (Gen.capacitor ~name:"c1" ~farads:1e-12 ~net_a:"a" ~net_b:"b" ());
      Cell.translate 500e-6 0.0 (Gen.capacitor ~name:"c2" ~farads:1e-12 ~net_a:"c" ~net_b:"d" ());
      Cell.translate 0.0 400e-6 (Gen.capacitor ~name:"c3" ~farads:1e-12 ~net_a:"e" ~net_b:"f" ()) ]
  in
  let before = Comp.bounding_area far_apart in
  let after = Comp.bounding_area (Comp.compact far_apart) in
  if after >= before then Alcotest.fail "compaction did not shrink the layout"

let test_compaction_no_overlap () =
  let cells =
    [ Cell.translate 0.0 0.0 (Gen.capacitor ~name:"c1" ~farads:1e-12 ~net_a:"a" ~net_b:"b" ());
      Cell.translate 300e-6 10e-6 (Gen.capacitor ~name:"c2" ~farads:2e-12 ~net_a:"c" ~net_b:"d" ()) ]
  in
  let compacted = Comp.compact cells in
  match compacted with
  | [ a; b ] ->
    let box c =
      Option.get (G.bbox (c.Cell.rects @ List.map (fun p -> p.Cell.pin_rect) c.Cell.pins))
    in
    if G.overlaps (box a) (box b) then Alcotest.fail "compaction created an overlap"
  | _ -> Alcotest.fail "cell count changed"

(* --- extraction ----------------------------------------------------------------------- *)

let test_extract_and_annotate () =
  let nl = miller_netlist () in
  let r = CF.koan ~seed:23 nl in
  let parasitics = r.CF.parasitics in
  if Ex.total_wiring_cap parasitics <= 0.0 then Alcotest.fail "no wiring capacitance";
  let annotated = Ex.annotate nl parasitics in
  if N.device_count annotated <= N.device_count nl then
    Alcotest.fail "annotation added no parasitics";
  (* the annotated netlist still solves *)
  (match Mixsyn_engine.Dc.solve ~tech annotated with
   | exception Mixsyn_engine.Dc.No_convergence _ -> Alcotest.fail "annotated netlist diverges"
   | _ -> ())

let test_extraction_degrades_bandwidth () =
  let nl = miller_netlist () in
  let r = CF.koan ~seed:23 nl in
  let annotated = Ex.annotate nl r.CF.parasitics in
  let ugf netlist =
    let op = Mixsyn_engine.Dc.solve ~tech netlist in
    let out = N.find_net netlist "out" in
    let freqs = Mixsyn_engine.Ac.log_sweep ~decades_from:0.0 ~decades_to:9.5 ~points_per_decade:8 in
    let ac = Mixsyn_engine.Ac.solve ~tech netlist op ~freqs in
    Option.value (Mixsyn_engine.Measure.unity_gain_freq (Mixsyn_engine.Measure.bode ac ~out))
      ~default:0.0
  in
  let before = ugf nl and after = ugf annotated in
  if after > before *. 1.001 then Alcotest.fail "parasitics cannot speed the circuit up"

(* --- cif export --------------------------------------------------------------- *)

let test_cif_export () =
  let nl = miller_netlist () in
  let r = CF.koan ~seed:23 nl in
  let cif =
    Mixsyn_layout.Cif.of_layout ~cells:r.CF.placed ~wires:r.CF.route.MR.wires ()
  in
  List.iter
    (fun needle ->
      let found =
        let nl_ = String.length needle and sl = String.length cif in
        let rec scan i = i + nl_ <= sl && (String.sub cif i nl_ = needle || scan (i + 1)) in
        scan 0
      in
      if not found then Alcotest.failf "CIF lacks %s" needle)
    [ "DS 1 1 1;"; "L CMF;"; "L CPG;"; "B "; "DF;"; "E" ];
  (* write/read roundtrip *)
  let path = Filename.temp_file "mixsyn" ".cif" in
  Mixsyn_layout.Cif.write_file ~path ~cells:r.CF.placed ~wires:r.CF.route.MR.wires ();
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check int) "file matches string" (String.length cif) len

let test_cif_layer_names_distinct () =
  let names = List.map Mixsyn_layout.Cif.layer_name G.all_layers in
  Alcotest.(check int) "distinct codes" (List.length names)
    (List.length (List.sort_uniq compare names))

(* --- sensitivity ------------------------------------------------------------------------- *)

let test_matching_pairs_found () =
  let nl = miller_netlist () in
  let pairs = Sens.matching_pairs nl in
  let has a b =
    List.exists (fun (x, y) -> (x = a && y = b) || (x = b && y = a)) pairs
  in
  Alcotest.(check bool) "diff pair" true (has "m1" "m2");
  Alcotest.(check bool) "mirror legs" true (has "m3" "m4")

let test_sensitivity_and_constraints () =
  let nl = miller_netlist () in
  let measure netlist =
    match Mixsyn_engine.Dc.solve ~tech netlist with
    | exception Mixsyn_engine.Dc.No_convergence _ -> None
    | op ->
      let out = N.find_net netlist "out" in
      let freqs = Mixsyn_engine.Ac.log_sweep ~decades_from:0.0 ~decades_to:9.5 ~points_per_decade:6 in
      let ac = Mixsyn_engine.Ac.solve ~tech netlist op ~freqs in
      let bode = Mixsyn_engine.Measure.bode ac ~out in
      Some [ ("ugf_hz", Option.value (Mixsyn_engine.Measure.unity_gain_freq bode) ~default:0.0) ]
  in
  let sens = Sens.analyze ~nets:[ "o1"; "out"; "nbias" ] nl ~measure in
  Alcotest.(check int) "three nets" 3 (List.length sens);
  (* o1 carries the miller node: adding capacitance there must move ugf *)
  let o1 = List.find (fun s -> s.Sens.sn_net = "o1") sens in
  (match List.assoc_opt "ugf_hz" o1.Sens.dperf_dcap with
   | Some slope -> if Float.abs slope <= 0.0 then Alcotest.fail "o1 insensitive?"
   | None -> Alcotest.fail "no ugf sensitivity");
  let bounds = Sens.map_constraints sens ~budgets:[ ("ugf_hz", 1e6) ] in
  List.iter
    (fun (_, b) -> if b <= 0.0 then Alcotest.fail "nonpositive capacitance bound")
    bounds

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "layout"
    [ ( "geometry",
        [ Alcotest.test_case "rect normalisation" `Quick test_rect_normalisation;
          Alcotest.test_case "overlap" `Quick test_overlap;
          Alcotest.test_case "bbox" `Quick test_bbox;
          Alcotest.test_case "r90 swaps dims" `Quick test_transform_r90_swaps_dims;
          qt prop_transform_preserves_area ] );
      ( "generator",
        [ Alcotest.test_case "cell anchoring" `Quick test_cell_normalised_to_origin;
          Alcotest.test_case "mos pins" `Quick test_mos_cell_pins;
          Alcotest.test_case "folding" `Quick test_mos_folding_shrinks_height;
          Alcotest.test_case "pmos well" `Quick test_pmos_cell_has_well;
          Alcotest.test_case "stack nodes" `Quick test_stack_cell_nodes;
          Alcotest.test_case "capacitor area" `Quick test_capacitor_area_scales;
          Alcotest.test_case "resistor" `Quick test_resistor_squares ] );
      ( "stacker",
        [ Alcotest.test_case "covers all devices" `Quick test_stacker_covers_all_devices;
          Alcotest.test_case "merges diff pair" `Quick test_stacker_merges_diff_pair;
          Alcotest.test_case "exact = linear optimum" `Quick test_exact_matches_linear_optimum;
          Alcotest.test_case "junction cap saved" `Quick test_junction_capacitance_improves;
          Alcotest.test_case "polarity respected" `Quick test_stacker_respects_polarity ] );
      ( "placer",
        [ Alcotest.test_case "overlap free" `Quick test_placer_overlap_free;
          Alcotest.test_case "beats spread lineup" `Quick test_placer_beats_initial_wirelength;
          Alcotest.test_case "cost parts sane" `Quick test_placer_cost_parts_nonnegative;
          qt prop_eval_matches_full_recompute;
          qt prop_eval_revert_exact;
          Alcotest.test_case "one chain allocation cap" `Quick test_place_allocation_cap ] );
      ( "maze-router",
        [ Alcotest.test_case "miller complete" `Quick test_route_miller_complete;
          Alcotest.test_case "coupling reported" `Quick test_route_coupling_reported;
          Alcotest.test_case "class compatibility" `Quick test_net_class_compatibility;
          Alcotest.test_case "parasitic bounds" `Quick test_parasitic_bound_reduces_coupling;
          Alcotest.test_case "route allocation cap" `Quick test_route_allocation_cap;
          Alcotest.test_case "route polls its deadline" `Quick test_route_polls_deadline ] );
      ("bit-identity", [ Alcotest.test_case "route digests" `Quick test_route_digests ]);
      ( "channel-router",
        [ Alcotest.test_case "density" `Quick test_channel_density;
          Alcotest.test_case "routes all" `Quick test_channel_routes_all;
          Alcotest.test_case "vertical constraints" `Quick test_channel_vertical_constraints;
          Alcotest.test_case "shields" `Quick test_channel_shield_between_incompatible;
          Alcotest.test_case "cycle detection" `Quick test_channel_cycle_detected;
          Alcotest.test_case "wide nets" `Quick test_channel_wide_nets ] );
      ( "channel-properties",
        [ QCheck_alcotest.to_alcotest prop_channel_router_covers_pins ] );
      ( "compactor",
        [ Alcotest.test_case "shrinks" `Quick test_compaction_shrinks;
          Alcotest.test_case "no overlap" `Quick test_compaction_no_overlap ] );
      ( "extract",
        [ Alcotest.test_case "annotate" `Quick test_extract_and_annotate;
          Alcotest.test_case "bandwidth degrades" `Quick test_extraction_degrades_bandwidth ] );
      ( "cif",
        [ Alcotest.test_case "export" `Quick test_cif_export;
          Alcotest.test_case "layer names" `Quick test_cif_layer_names_distinct ] );
      ( "sensitivity",
        [ Alcotest.test_case "matching pairs" `Quick test_matching_pairs_found;
          Alcotest.test_case "constraint mapping" `Quick test_sensitivity_and_constraints ] ) ]
