(* Static-verification tests: diagnostics, ERC, DRC, constraint audit and
   the lint gate.  Each rule id gets a deliberately broken fixture; clean
   designs must produce zero diagnostics. *)

module D = Mixsyn_check.Diagnostic
module Erc = Mixsyn_check.Erc
module Drc = Mixsyn_check.Drc
module Audit = Mixsyn_check.Audit
module Lint = Mixsyn_check.Lint
module N = Mixsyn_circuit.Netlist
module Tp = Mixsyn_circuit.Template
module G = Mixsyn_layout.Geom
module Cell = Mixsyn_layout.Cell
module MR = Mixsyn_layout.Maze_router
module CF = Mixsyn_layout.Cell_flow

let tech = Mixsyn_circuit.Tech.generic_07um

let miller_netlist () =
  let x = [| 60e-6; 20e-6; 30e-6; 60e-6; 45e-6; 1e-6; 50e-6; 3e-12; 5e-12 |] in
  Mixsyn_circuit.Topology.miller_ota.Tp.build tech x

let rules ds = List.sort_uniq compare (List.map (fun (d : D.t) -> d.D.rule) ds)
let has rule ds = List.exists (fun (d : D.t) -> d.D.rule = rule) ds

let assert_fires rule ds =
  if not (has rule ds) then
    Alcotest.failf "expected %s among [%s]" rule (String.concat "; " (rules ds))

let assert_severity rule sev ds =
  match List.find_opt (fun (d : D.t) -> d.D.rule = rule) ds with
  | Some d ->
    Alcotest.(check string)
      (rule ^ " severity") (D.severity_name sev) (D.severity_name d.D.severity)
  | None -> Alcotest.failf "%s did not fire" rule

(* --- diagnostic plumbing ------------------------------------------------- *)

let diag_ordering () =
  let ds =
    [ D.info ~rule:"z" ~loc:"a" "i"; D.error ~rule:"b" ~loc:"a" "e";
      D.warning ~rule:"a" ~loc:"a" "w"; D.error ~rule:"a" ~loc:"a" "e" ]
  in
  let sorted = List.sort D.compare ds in
  Alcotest.(check (list string))
    "severity then rule"
    [ "a"; "b"; "a"; "z" ]
    (List.map (fun (d : D.t) -> d.D.rule) sorted);
  Alcotest.(check int) "errors" 2 (List.length (D.errors ds));
  Alcotest.(check int) "warnings" 1 (List.length (D.warnings ds))

let diag_suppress () =
  let ds =
    [ D.error ~rule:"x.err" ~loc:"l" "e"; D.warning ~rule:"x.warn" ~loc:"l" "w";
      D.info ~rule:"x.info" ~loc:"l" "i" ]
  in
  let kept = D.suppress ~rules:[ "x.warn"; "x.info"; "x.err" ] ds in
  (* warnings and infos drop; errors are never suppressed *)
  Alcotest.(check (list string)) "errors survive" [ "x.err" ] (rules kept)

let diag_render_json () =
  Alcotest.(check string) "empty render" "clean: no diagnostics" (D.render []);
  Alcotest.(check string) "empty json" "[]" (D.to_json []);
  let ds = [ D.error ~rule:"r.a" ~loc:"spot \"q\"" "broke" ] in
  Alcotest.(check string) "escaped object"
    "[{\"severity\":\"error\",\"rule\":\"r.a\",\"loc\":\"spot \\\"q\\\"\",\"msg\":\"broke\"}]"
    (D.to_json ds);
  let rendered = D.render ds in
  let tail = "1 error(s), 0 warning(s), 0 info" in
  Alcotest.(check string) "summary line" tail
    (String.sub rendered (String.length rendered - String.length tail) (String.length tail))

(* --- ERC ------------------------------------------------------------------ *)

(* minimal live scaffold: vdd rail with a resistor load keeps every node
   DC-connected, so fixtures only trip the rule under test *)
let scaffold () =
  let nl = N.create () in
  let vdd = N.new_net ~name:"vdd" nl in
  N.add nl (N.Vsource { v_name = "v1"; p = vdd; n = N.gnd; dc = 3.0; ac = 0.0; v_wave = N.Dc_wave });
  (nl, vdd)

let erc_clean () =
  let nl = miller_netlist () in
  Alcotest.(check (list string)) "clean topology" [] (rules (Erc.check nl));
  List.iter
    (fun (t : Tp.t) ->
      let nl = t.Tp.build tech (Tp.midpoint t) in
      Alcotest.(check (list string)) (t.Tp.t_name ^ " clean") [] (rules (Erc.check nl)))
    Mixsyn_circuit.Topology.all

let erc_floating_gate () =
  let nl, vdd = scaffold () in
  let d = N.new_net ~name:"d" nl in
  let g = N.new_net ~name:"g" nl in
  N.add nl (N.Resistor { r_name = "r1"; a = vdd; b = d; ohms = 1e4 });
  N.add nl
    (N.Mos { m_name = "m1"; drain = d; gate = g; source = N.gnd; bulk = N.gnd;
             w = 10e-6; l = 1e-6; polarity = N.Nmos });
  let ds = Erc.check nl in
  assert_fires "erc.floating-gate" ds;
  assert_severity "erc.floating-gate" D.Error ds;
  Alcotest.(check int) "lint gate trips" 1 (Lint.exit_code ds)

let erc_floating_bulk () =
  let nl, vdd = scaffold () in
  let d = N.new_net ~name:"d" nl in
  let b = N.new_net ~name:"b" nl in
  N.add nl (N.Resistor { r_name = "r1"; a = vdd; b = d; ohms = 1e4 });
  N.add nl
    (N.Mos { m_name = "m1"; drain = d; gate = vdd; source = N.gnd; bulk = b;
             w = 10e-6; l = 1e-6; polarity = N.Nmos });
  assert_fires "erc.floating-bulk" (Erc.check nl)

let erc_dangling_net () =
  let nl, vdd = scaffold () in
  let stub = N.new_net ~name:"stub" nl in
  N.add nl (N.Resistor { r_name = "r1"; a = vdd; b = stub; ohms = 1e4 });
  let ds = Erc.check nl in
  assert_fires "erc.dangling-net" ds;
  assert_severity "erc.dangling-net" D.Error ds

let erc_unused_net () =
  let nl, _ = scaffold () in
  let _orphan = N.new_net ~name:"orphan" nl in
  let ds = Erc.check nl in
  assert_fires "erc.unused-net" ds;
  assert_severity "erc.unused-net" D.Warning ds

let erc_no_dc_path () =
  let nl, _ = scaffold () in
  let x = N.new_net ~name:"x" nl in
  N.add nl (N.Capacitor { c_name = "c1"; a = x; b = N.gnd; farads = 1e-12 });
  N.add nl (N.Isource { i_name = "i1"; p = x; n = N.gnd; dc = 1e-6; ac = 0.0; i_wave = N.Dc_wave });
  let ds = Erc.check nl in
  assert_fires "erc.no-dc-path" ds;
  (* a resistor to ground heals it *)
  N.add nl (N.Resistor { r_name = "r1"; a = x; b = N.gnd; ohms = 1e6 });
  Alcotest.(check bool) "healed" false (has "erc.no-dc-path" (Erc.check nl))

let erc_shorted_vsource () =
  let nl, vdd = scaffold () in
  N.add nl
    (N.Vsource { v_name = "vshort"; p = vdd; n = vdd; dc = 1.0; ac = 0.0; v_wave = N.Dc_wave });
  assert_fires "erc.shorted-vsource" (Erc.check nl)

let erc_parallel_vsources () =
  let nl, vdd = scaffold () in
  N.add nl
    (N.Vsource { v_name = "v2"; p = vdd; n = N.gnd; dc = 2.5; ac = 0.0; v_wave = N.Dc_wave });
  assert_fires "erc.parallel-vsources" (Erc.check nl)

let erc_values () =
  let nl, vdd = scaffold () in
  N.add nl (N.Resistor { r_name = "rbad"; a = vdd; b = N.gnd; ohms = -50.0 });
  N.add nl (N.Capacitor { c_name = "chuge"; a = vdd; b = N.gnd; farads = 1.0 });
  let ds = Erc.check nl in
  assert_fires "erc.nonpositive-value" ds;
  assert_severity "erc.nonpositive-value" D.Error ds;
  assert_fires "erc.suspicious-value" ds;
  assert_severity "erc.suspicious-value" D.Warning ds

let erc_structural () =
  let nl, vdd = scaffold () in
  N.add nl (N.Resistor { r_name = "r1"; a = vdd; b = N.gnd; ohms = 1e3 });
  N.add nl (N.Resistor { r_name = "r1"; a = vdd; b = N.gnd; ohms = 2e3 });
  N.add nl (N.Capacitor { c_name = "c1"; a = vdd; b = 99; farads = 1e-12 });
  let ds = Erc.check nl in
  assert_fires "erc.duplicate-name" ds;
  assert_fires "erc.bad-net-id" ds

(* --- DRC ------------------------------------------------------------------ *)

let lambda = 0.35e-6

let drc_clean () =
  (* an isolated exactly-minimum-width wire breaks nothing *)
  let ds = Drc.check [ ("a", G.rect G.Metal1 0.0 0.0 (3.0 *. lambda) (30.0 *. lambda)) ] in
  Alcotest.(check (list string)) "clean" [] (rules ds)

let drc_min_width () =
  let ds = Drc.check [ ("a", G.rect G.Metal1 0.0 0.0 (2.0 *. lambda) (30.0 *. lambda)) ] in
  assert_fires "drc.min-width" ds;
  assert_severity "drc.min-width" D.Error ds

let drc_min_spacing () =
  let bar owner x = (owner, G.rect G.Metal1 x 0.0 (x +. (3.0 *. lambda)) (30.0 *. lambda)) in
  (* one lambda apart: violates the 3-lambda metal1 spacing *)
  let ds = Drc.check [ bar "a" 0.0; bar "b" (4.0 *. lambda) ] in
  assert_fires "drc.min-spacing" ds;
  assert_severity "drc.min-spacing" D.Error ds;
  (* same owner at the same distance is internal geometry: fine *)
  Alcotest.(check (list string)) "same owner ok" []
    (rules (Drc.check [ bar "a" 0.0; bar "a" (4.0 *. lambda) ]));
  (* far enough apart: fine *)
  Alcotest.(check (list string)) "spaced ok" []
    (rules (Drc.check [ bar "a" 0.0; bar "b" (6.0 *. lambda) ]))

let drc_route_spacing () =
  let bar owner x = (owner, G.rect G.Metal1 x 0.0 (x +. (3.0 *. lambda)) (30.0 *. lambda)) in
  let ds = Drc.check [ bar "a" 0.0; bar "net:sig" (4.0 *. lambda) ] in
  (* wire-involved proximity is reported but demoted to a warning *)
  assert_fires "drc.route-spacing" ds;
  assert_severity "drc.route-spacing" D.Warning ds;
  Alcotest.(check bool) "not an error" false (has "drc.min-spacing" ds)

let drc_contact_size () =
  let ds = Drc.check [ ("a", G.rect G.Contact 0.0 0.0 (3.0 *. lambda) (2.0 *. lambda)) ] in
  assert_fires "drc.contact-size" ds

let drc_contact_enclosure () =
  let cut = G.rect G.Contact 0.0 0.0 (2.0 *. lambda) (2.0 *. lambda) in
  (* bare cut: no diffusion, no metal *)
  assert_fires "drc.contact-enclosure" (Drc.check [ ("a", cut) ]);
  (* properly nested cut passes *)
  let diff = G.rect G.Ndiff (-.lambda) (-.lambda) (3.0 *. lambda) (3.0 *. lambda) in
  let m1 = G.rect G.Metal1 (-.lambda) (-.lambda) (3.0 *. lambda) (3.0 *. lambda) in
  Alcotest.(check bool) "enclosed ok" false
    (has "drc.contact-enclosure" (Drc.check [ ("a", cut); ("a", diff); ("a", m1) ]))

let drc_gate_extension () =
  let diff = G.rect G.Ndiff 0.0 0.0 (20.0 *. lambda) (10.0 *. lambda) in
  (* poly strip crossing the diffusion but stopping flush with its edge *)
  let short_poly = G.rect G.Poly (8.0 *. lambda) 0.0 (10.0 *. lambda) (10.0 *. lambda) in
  assert_fires "drc.gate-extension" (Drc.check [ ("a", diff); ("a", short_poly) ]);
  let good_poly =
    G.rect G.Poly (8.0 *. lambda) (-2.0 *. lambda) (10.0 *. lambda) (12.0 *. lambda)
  in
  Alcotest.(check bool) "endcapped ok" false
    (has "drc.gate-extension" (Drc.check [ ("a", diff); ("a", good_poly) ]))

let drc_well_enclosure () =
  let pdiff = G.rect G.Pdiff 0.0 0.0 (10.0 *. lambda) (10.0 *. lambda) in
  assert_fires "drc.well-enclosure" (Drc.check [ ("a", pdiff) ]);
  let well =
    G.rect G.Nwell (-5.0 *. lambda) (-5.0 *. lambda) (15.0 *. lambda) (15.0 *. lambda)
  in
  Alcotest.(check bool) "in well ok" false
    (has "drc.well-enclosure" (Drc.check [ ("a", pdiff); ("a", well) ]))

let drc_layout_clean () =
  (* a real generated layout carries zero DRC errors (route-spacing and
     well-spacing warnings are expected artifacts) *)
  let nl = miller_netlist () in
  let r = CF.koan ~seed:23 nl in
  let ds = Drc.check (CF.tagged_geometry r) in
  Alcotest.(check (list string)) "no errors" [] (rules (D.errors ds))

(* --- audit ---------------------------------------------------------------- *)

(* the miller pair (m1, m2) merges into one stack; nudging m2's L by 0.5 %
   keeps the pair matched (1 % tolerance) but splits the stack, so the
   audit checks the mirror geometry *)
let split_pair_netlist () =
  let nl = miller_netlist () in
  N.map_elements nl (function
    | N.Mos m when m.N.m_name = "m2" -> N.Mos { m with N.l = m.N.l *. 1.005 }
    | e -> e)

let audit_clean () =
  let nl = miller_netlist () in
  let r = CF.koan ~seed:23 nl in
  let ds = Audit.check nl r in
  Alcotest.(check (list string)) "no errors" [] (rules (D.errors ds));
  (* merged pairs are narrated, not flagged *)
  assert_fires "audit.pair-merged" ds;
  assert_severity "audit.pair-merged" D.Info ds

let audit_symmetry_broken () =
  let nl = split_pair_netlist () in
  let r = CF.koan ~seed:23 nl in
  let displaced =
    { r with
      CF.placed =
        List.map
          (fun (c : Cell.t) ->
            if c.Cell.cell_name = "m2" then Cell.translate 0.0 9e-6 c else c)
          r.CF.placed }
  in
  let ds = Audit.check nl displaced in
  assert_fires "audit.symmetry-broken" ds;
  assert_severity "audit.symmetry-broken" D.Error ds

let audit_symmetry_missing () =
  let nl = split_pair_netlist () in
  let r = CF.koan ~seed:23 nl in
  let gutted =
    { r with
      CF.placed = List.filter (fun (c : Cell.t) -> c.Cell.cell_name <> "m2") r.CF.placed }
  in
  assert_fires "audit.symmetry-missing" (Audit.check nl gutted)

let audit_unrouted_net () =
  let nl = miller_netlist () in
  let r = CF.koan ~seed:23 nl in
  let broken = { r with CF.route = { r.CF.route with MR.failed = [ "o1" ] } } in
  assert_fires "audit.unrouted-net" (Audit.check nl broken)

let audit_open_net () =
  let nl = miller_netlist () in
  let r = CF.koan ~seed:23 nl in
  (* erase the routed geometry of a multi-cell net *)
  let victim = "o1" in
  let broken =
    { r with
      CF.route =
        { r.CF.route with
          MR.wires =
            List.filter (fun (w : MR.wire) -> w.MR.w_net <> victim) r.CF.route.MR.wires } }
  in
  assert_fires "audit.open-net" (Audit.check nl broken)

(* --- certified bounds ----------------------------------------------------- *)

module B = Mixsyn_check.Bounds
module Registry = Mixsyn_check.Registry
module I = Mixsyn_util.Interval
module Spec = Mixsyn_synth.Spec
module Eq = Mixsyn_synth.Equations
module Topo = Mixsyn_circuit.Topology

let modelled () = List.filter Eq.supported Topo.all

let find_template name = List.find (fun (t : Tp.t) -> t.Tp.t_name = name) Topo.all

let pp_iv iv = Format.asprintf "%a" I.pp iv

let bounds_certify_midpoint () =
  List.iter
    (fun (t : Tp.t) ->
      let certified = B.certify ~tech t in
      Alcotest.(check bool) (t.Tp.t_name ^ " modelled") true (certified <> []);
      match Eq.evaluate ~tech t (Tp.midpoint t) with
      | None -> Alcotest.failf "%s: no concrete equations" t.Tp.t_name
      | Some perf ->
        List.iter
          (fun (name, v) ->
            match List.assoc_opt name certified with
            | None -> Alcotest.failf "%s: metric %s not certified" t.Tp.t_name name
            | Some iv ->
              if not (I.contains iv v) then
                Alcotest.failf "%s/%s: midpoint value %g outside certified %s"
                  t.Tp.t_name name v (pp_iv iv))
          perf)
    (modelled ())

let bounds_context_pins () =
  (* pinning a parameter is a sub-box, so by inclusion isotonicity every
     certified enclosure can only narrow; unknown names must be ignored *)
  let t = find_template "ota-5t" in
  let free = B.certify ~tech t in
  let pinned = B.certify ~tech ~context:[ ("cl", 5e-12); ("no_such_param", 1.0) ] t in
  Alcotest.(check int) "same metric set" (List.length free) (List.length pinned);
  List.iter
    (fun (name, iv) ->
      let iv0 = List.assoc name free in
      if not (I.subset iv iv0) then
        Alcotest.failf "%s: pinned %s escapes free %s" name (pp_iv iv) (pp_iv iv0))
    pinned

let bounds_infeasible_spec () =
  let impossible = Spec.spec "gain_db" (Spec.At_least 500.0) in
  let unknown = Spec.spec "no_such_metric" (Spec.At_least 1.0) in
  List.iter
    (fun (t : Tp.t) ->
      (match B.infeasible_specs ~tech [ impossible; unknown ] t with
       | [ (s, iv) ] ->
         Alcotest.(check string) (t.Tp.t_name ^ " flags gain") "gain_db" s.Spec.s_name;
         Alcotest.(check bool) (t.Tp.t_name ^ " enclosure excludes 500") true
           (I.hi iv < 500.0)
       | l ->
         Alcotest.failf "%s: expected exactly the gain spec, got %d infeasible"
           t.Tp.t_name (List.length l));
      Alcotest.(check bool) (t.Tp.t_name ^ " infeasible") false
        (B.feasible ~tech [ impossible ] t))
    (modelled ())

let bounds_annotation_drift () =
  (* the hand-written feasibility tables carry exactly three optimistic
     claims; anything else appearing here is a regression in the tables or
     a hole torn in the certified enclosures *)
  let drifts = List.concat_map (fun t -> B.annotation_drift ~tech t) Topo.all in
  List.iter
    (fun (d : D.t) ->
      Alcotest.(check string) "rule" "feas.annotation-drift" d.D.rule;
      Alcotest.(check string) "severity" (D.severity_name D.Warning)
        (D.severity_name d.D.severity))
    drifts;
  Alcotest.(check (list string)) "exactly the known drifts"
    [ "comparator/power_w"; "comparator/ugf_hz"; "folded-cascode/power_w" ]
    (List.sort compare (List.map (fun (d : D.t) -> d.D.loc) drifts))

let contract_specs =
  [ Spec.spec "gain_db" (Spec.At_least 70.0); Spec.spec "ugf_hz" (Spec.At_least 1e7) ]

let bounds_contract_prunes () =
  let t = find_template "ota-5t" in
  let c = B.contract ~tech ~context:[ ("cl", 5e-12) ] contract_specs t in
  Alcotest.(check bool) "pruned boxes" true (c.B.pruned > 0);
  Alcotest.(check bool) "not hopeless" false c.B.c_infeasible;
  Alcotest.(check bool) "explored more than pruned" true (c.B.explored > c.B.pruned);
  (* soundness: the contracted box never grows past the original *)
  Array.iteri
    (fun i (p : Tp.param) ->
      let p' = c.B.c_template.Tp.params.(i) in
      if p'.Tp.lo < p.Tp.lo || p'.Tp.hi > p.Tp.hi then
        Alcotest.failf "%s: contracted [%g, %g] escapes [%g, %g]" p.Tp.p_name
          p'.Tp.lo p'.Tp.hi p.Tp.lo p.Tp.hi)
    t.Tp.params

let bounds_contract_identity () =
  (* nothing prunes on the miller OTA under these specs, so the contractor
     must hand back the physically identical template value — that is what
     keeps the downstream anneal trajectory bit-identical *)
  let t = Mixsyn_circuit.Topology.miller_ota in
  let c = B.contract ~tech ~context:[ ("cl", 5e-12) ] contract_specs t in
  Alcotest.(check int) "nothing pruned" 0 c.B.pruned;
  Alcotest.(check bool) "identical template value" true (c.B.c_template == t)

let bounds_contract_hopeless () =
  let t = find_template "ota-5t" in
  let c = B.contract ~tech [ Spec.spec "gain_db" (Spec.At_least 500.0) ] t in
  Alcotest.(check bool) "provably hopeless" true c.B.c_infeasible;
  Alcotest.(check bool) "template unchanged" true (c.B.c_template == t);
  (* the root box already violates: one evaluation, no splitting *)
  Alcotest.(check int) "root box pruned" 1 c.B.explored;
  Alcotest.(check int) "pruned count" 1 c.B.pruned

(* the acceptance criterion for the whole pass: certified enclosures contain
   every concrete evaluation at >= 1000 random in-box points per topology
   (Template.random_point samples log-scaled parameters geometrically) *)
let bounds_soundness () =
  let samples = 1000 in
  let ln10_over_20 = Float.log 10.0 /. 20.0 in
  List.iter
    (fun (t : Tp.t) ->
      let certified = B.certify ~tech t in
      let rng = Mixsyn_util.Rng.create (42 + Hashtbl.hash t.Tp.t_name) in
      for _ = 1 to samples do
        let x = Tp.random_point t rng in
        match Eq.evaluate ~tech t x with
        | None -> Alcotest.failf "%s: evaluate returned None" t.Tp.t_name
        | Some perf ->
          List.iter
            (fun (name, v) ->
              match List.assoc_opt name certified with
              | None -> Alcotest.failf "%s: metric %s not certified" t.Tp.t_name name
              | Some iv ->
                if Float.is_nan v || not (I.contains iv v) then
                  Alcotest.failf "%s/%s: concrete %g escapes certified %s"
                    t.Tp.t_name name v (pp_iv iv))
            perf;
          (* the derived single-pole position, same formula as the certifier *)
          (match (Spec.lookup perf "gain_db", Spec.lookup perf "ugf_hz") with
           | Some gain, Some ugf ->
             let fp = ugf /. Float.exp (gain *. ln10_over_20) in
             let iv = List.assoc "dominant_pole_hz" certified in
             if not (I.contains iv fp) then
               Alcotest.failf "%s/dominant_pole_hz: concrete %g escapes certified %s"
                 t.Tp.t_name fp (pp_iv iv)
           | _ -> ())
      done)
    (modelled ())

(* --- rule registry --------------------------------------------------------- *)

(* registered last: by the time this runs, every pass exercised above has
   pushed its rule ids through the Diagnostic constructors.  Fixture ids
   the plumbing tests invent ("z", "x.warn", ...) carry no real prefix and
   are skipped; every production-prefixed id must be documented in the
   registry [msyn lint --list-rules] prints. *)
let registry_closed () =
  let production r =
    List.exists (fun p -> String.starts_with ~prefix:p r)
      [ "erc."; "drc."; "audit."; "feas." ]
  in
  let emitted = List.filter production (D.emitted_rules ()) in
  Alcotest.(check bool) "passes emitted rules" true (List.length emitted > 10);
  Alcotest.(check bool) "feas rules exercised" true
    (List.mem "feas.annotation-drift" emitted);
  List.iter
    (fun r ->
      if not (Registry.known r) then
        Alcotest.failf "rule %s was emitted but is missing from Registry.all" r)
    emitted;
  List.iter
    (fun (r, doc) ->
      if String.trim doc = "" then Alcotest.failf "rule %s has an empty doc" r)
    Registry.all

(* --- lint gate ------------------------------------------------------------ *)

let lint_gate () =
  Mixsyn_util.Telemetry.reset ();
  let warn = [ D.warning ~rule:"w" ~loc:"l" "w" ] in
  Alcotest.(check int) "clean passes" 1 (List.length (Lint.gate ~stage:"t" warn));
  Alcotest.(check int) "warning counted" 1 (Mixsyn_util.Telemetry.counter "check.t.warnings");
  (match Lint.gate ~stage:"t" [ D.error ~rule:"e" ~loc:"l" "e" ] with
   | _ -> Alcotest.fail "gate must raise on error"
   | exception Lint.Check_failed [ d ] -> Alcotest.(check string) "carried" "e" d.D.rule
   | exception Lint.Check_failed _ -> Alcotest.fail "diagnostic list shape");
  Alcotest.(check int) "error counted" 1 (Mixsyn_util.Telemetry.counter "check.t.errors")

let lint_full_clean () =
  let nl = miller_netlist () in
  let r = CF.koan ~seed:23 nl in
  let ds = Lint.full nl r in
  Alcotest.(check (list string)) "no errors" [] (rules (D.errors ds));
  Alcotest.(check int) "exit 0" 0 (Lint.exit_code ds)

let () =
  Alcotest.run "check"
    [ ( "diagnostic",
        [ Alcotest.test_case "ordering" `Quick diag_ordering;
          Alcotest.test_case "suppress" `Quick diag_suppress;
          Alcotest.test_case "render json" `Quick diag_render_json ] );
      ( "erc",
        [ Alcotest.test_case "clean topologies" `Quick erc_clean;
          Alcotest.test_case "floating gate" `Quick erc_floating_gate;
          Alcotest.test_case "floating bulk" `Quick erc_floating_bulk;
          Alcotest.test_case "dangling net" `Quick erc_dangling_net;
          Alcotest.test_case "unused net" `Quick erc_unused_net;
          Alcotest.test_case "no dc path" `Quick erc_no_dc_path;
          Alcotest.test_case "shorted vsource" `Quick erc_shorted_vsource;
          Alcotest.test_case "parallel vsources" `Quick erc_parallel_vsources;
          Alcotest.test_case "value sanity" `Quick erc_values;
          Alcotest.test_case "structural" `Quick erc_structural ] );
      ( "drc",
        [ Alcotest.test_case "clean wire" `Quick drc_clean;
          Alcotest.test_case "min width" `Quick drc_min_width;
          Alcotest.test_case "min spacing" `Quick drc_min_spacing;
          Alcotest.test_case "route spacing" `Quick drc_route_spacing;
          Alcotest.test_case "contact size" `Quick drc_contact_size;
          Alcotest.test_case "contact enclosure" `Quick drc_contact_enclosure;
          Alcotest.test_case "gate extension" `Quick drc_gate_extension;
          Alcotest.test_case "well enclosure" `Quick drc_well_enclosure;
          Alcotest.test_case "real layout has no errors" `Slow drc_layout_clean ] );
      ( "audit",
        [ Alcotest.test_case "clean layout" `Slow audit_clean;
          Alcotest.test_case "symmetry broken" `Slow audit_symmetry_broken;
          Alcotest.test_case "symmetry missing" `Slow audit_symmetry_missing;
          Alcotest.test_case "unrouted net" `Slow audit_unrouted_net;
          Alcotest.test_case "open net" `Slow audit_open_net ] );
      ( "lint",
        [ Alcotest.test_case "gate telemetry" `Quick lint_gate;
          Alcotest.test_case "full clean" `Slow lint_full_clean ] );
      ( "bounds",
        [ Alcotest.test_case "midpoint enclosed" `Quick bounds_certify_midpoint;
          Alcotest.test_case "context pins narrow" `Quick bounds_context_pins;
          Alcotest.test_case "impossible spec flagged" `Quick bounds_infeasible_spec;
          Alcotest.test_case "annotation drift" `Quick bounds_annotation_drift;
          Alcotest.test_case "contract prunes" `Quick bounds_contract_prunes;
          Alcotest.test_case "contract identity" `Quick bounds_contract_identity;
          Alcotest.test_case "contract hopeless" `Quick bounds_contract_hopeless;
          Alcotest.test_case "soundness 1000 samples" `Slow bounds_soundness ] );
      (* must stay the last suite: it audits every rule id the preceding
         suites pushed through the Diagnostic constructors *)
      ( "registry",
        [ Alcotest.test_case "emitted rules documented" `Quick registry_closed ] ) ]
