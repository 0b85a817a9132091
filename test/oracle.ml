(* Boxed reference implementations of the kernels the library now runs on
   flat, allocation-free storage: the record-building MOS model, the
   transient Newton loop and AWE's moment recursion on the boxed {!Matrix}
   LU, and Durand–Kerner on [Complex.t] values.  Each is the earlier
   library code kept as it was, stdlib [Float.max] included, so the tests
   can hold the ported kernels to bit-for-bit equality. *)

module Netlist = Mixsyn_circuit.Netlist
module Tech = Mixsyn_circuit.Tech
module Mna = Mixsyn_engine.Mna
module Mos_model = Mixsyn_engine.Mos_model
module Real = Matrix.Real

(* --- MOS model ------------------------------------------------------------ *)

open Mos_model

let subthreshold_slope = 1.5

(* softplus-smoothed overdrive: veff -> vov for strong inversion, decays
   exponentially below threshold; sigma is its derivative. *)
let effective_overdrive tech vov =
  let vt = Mixsyn_util.Units.boltzmann *. tech.Tech.temp /. Mixsyn_util.Units.electron_charge in
  let nvt = subthreshold_slope *. vt in
  let x = vov /. nvt in
  if x > 40.0 then (vov, 1.0)
  else if x < -40.0 then (nvt *. exp (-40.0), 0.0)
  else begin
    let veff = nvt *. log (1.0 +. exp x) in
    let sigma = 1.0 /. (1.0 +. exp (-.x)) in
    (veff, sigma)
  end

(* Core NMOS-oriented evaluation assuming vds >= 0.  Returns (ids, jacobian
   w.r.t. (vd, vg, vs, vb)) together with reporting values. *)
let eval_core tech ~vth0 ~kp m ~vd ~vg ~vs ~vb =
  let vgs = vg -. vs and vds = vd -. vs in
  let vsb = vs -. vb in
  let phi = tech.Tech.phi in
  let sq_arg = Float.max (phi +. vsb) 0.025 in
  let vth = vth0 +. (tech.Tech.gamma *. (sqrt sq_arg -. sqrt phi)) in
  let dvth_dvsb = tech.Tech.gamma /. (2.0 *. sqrt sq_arg) in
  let vov = vgs -. vth in
  let veff, sigma = effective_overdrive tech vov in
  let beta = kp *. m.Netlist.w /. m.Netlist.l in
  let lambda = tech.Tech.lambda_factor /. m.Netlist.l in
  let clm = 1.0 +. (lambda *. vds) in
  let saturated = vds >= veff in
  let ids, gm_raw, gds_raw =
    if saturated then begin
      let i0 = 0.5 *. beta *. veff *. veff in
      (i0 *. clm, beta *. veff *. clm *. sigma, i0 *. lambda)
    end
    else begin
      let i0 = beta *. ((veff *. vds) -. (0.5 *. vds *. vds)) in
      ( i0 *. clm,
        beta *. vds *. clm *. sigma,
        (beta *. (veff -. vds) *. clm) +. (i0 *. lambda) )
    end
  in
  let region = if sigma < 0.5 then Cutoff else if saturated then Saturation else Triode in
  (* dvov/dvb = +dvth_dvsb (raising vb reduces vsb, lowers vth, raises vov) *)
  let gmb = gm_raw *. dvth_dvsb in
  (* Jacobian in terms of terminal voltages:
       ids = f(vgs, vds, vsb)
       did/dvg = gm ; did/dvd = gds ; did/dvb = gmb ;
       did/dvs = -(gm + gds + gmb). *)
  { ids;
    did_dvd = gds_raw;
    did_dvg = gm_raw;
    did_dvs = -.(gm_raw +. gds_raw +. gmb);
    did_dvb = gmb;
    region;
    vgs;
    vds;
    vth;
    vdsat = veff;
    gm = gm_raw;
    gds = gds_raw;
    gmb }

let mos_evaluate tech m ~vd ~vg ~vs ~vb =
  match m.Netlist.polarity with
  | Netlist.Nmos ->
    if vd >= vs then eval_core tech ~vth0:tech.Tech.vth0_n ~kp:tech.Tech.kp_n m ~vd ~vg ~vs ~vb
    else begin
      (* source/drain swap: the device conducts the other way *)
      let e = eval_core tech ~vth0:tech.Tech.vth0_n ~kp:tech.Tech.kp_n m ~vd:vs ~vg ~vs:vd ~vb in
      { e with
        ids = -.e.ids;
        did_dvd = -.e.did_dvs;
        did_dvg = -.e.did_dvg;
        did_dvs = -.e.did_dvd;
        did_dvb = -.e.did_dvb;
        vds = vd -. vs;
        vgs = vg -. vs }
    end
  | Netlist.Pmos ->
    (* mirror all voltages and reuse the NMOS equations:
       id_p(v) = -id_n(-v); d id_p/dvx = d id_n/dvx' at mirrored point *)
    let e =
      let vd' = -.vd and vg' = -.vg and vs' = -.vs and vb' = -.vb in
      if vd' >= vs' then eval_core tech ~vth0:tech.Tech.vth0_p ~kp:tech.Tech.kp_p m ~vd:vd' ~vg:vg' ~vs:vs' ~vb:vb'
      else begin
        let i = eval_core tech ~vth0:tech.Tech.vth0_p ~kp:tech.Tech.kp_p m ~vd:vs' ~vg:vg' ~vs:vd' ~vb:vb' in
        { i with
          ids = -.i.ids;
          did_dvd = -.i.did_dvs;
          did_dvg = -.i.did_dvg;
          did_dvs = -.i.did_dvd;
          did_dvb = -.i.did_dvb;
          vds = vd' -. vs';
          vgs = vg' -. vs' }
      end
    in
    { e with
      ids = -.e.ids;
      (* derivatives survive double sign flip *)
      vgs = vg -. vs;
      vds = vd -. vs;
      vth = -.e.vth;
      vdsat = -.e.vdsat }

(* --- transient --------------------------------------------------------- *)

let tran_assemble tech nl (layout : Mna.layout) x ~time ~caps ~geq =
  let n = layout.Mna.size in
  let a = Real.create n n in
  let b = Array.make n 0.0 in
  let v net = if net = Netlist.gnd then 0.0 else x.(Mna.node_index net) in
  let stamp i j v = if i >= 0 && j >= 0 then a.(i).(j) <- a.(i).(j) +. v in
  let rhs i v = if i >= 0 then b.(i) <- b.(i) +. v in
  let branch = ref (layout.Mna.nets - 1) in
  let each = function
    | Netlist.Resistor { a = na; b = nb; ohms; _ } ->
      let g = 1.0 /. ohms in
      let ia = Mna.node_index na and ib = Mna.node_index nb in
      stamp ia ia g;
      stamp ib ib g;
      stamp ia ib (-.g);
      stamp ib ia (-.g)
    | Netlist.Capacitor _ -> ()
    | Netlist.Vccs { p; n = nn; cp; cn; gm; _ } ->
      let ip = Mna.node_index p and inn = Mna.node_index nn in
      let icp = Mna.node_index cp and icn = Mna.node_index cn in
      stamp ip icp gm;
      stamp ip icn (-.gm);
      stamp inn icp (-.gm);
      stamp inn icn gm
    | Netlist.Isource { p; n = nn; dc; i_wave; _ } ->
      let value = Netlist.wave_value i_wave ~dc time in
      rhs (Mna.node_index p) value;
      rhs (Mna.node_index nn) (-.value)
    | Netlist.Vsource { p; n = nn; dc; v_wave; _ } ->
      let row = !branch in
      incr branch;
      let value = Netlist.wave_value v_wave ~dc time in
      let ip = Mna.node_index p and inn = Mna.node_index nn in
      stamp ip row 1.0;
      stamp inn row (-1.0);
      stamp row ip 1.0;
      stamp row inn (-1.0);
      rhs row value
    | Netlist.Mos m ->
      let e =
        mos_evaluate tech m ~vd:(v m.Netlist.drain) ~vg:(v m.Netlist.gate)
          ~vs:(v m.Netlist.source) ~vb:(v m.Netlist.bulk)
      in
      let id = Mna.node_index m.Netlist.drain
      and ig = Mna.node_index m.Netlist.gate
      and is = Mna.node_index m.Netlist.source
      and ib = Mna.node_index m.Netlist.bulk in
      let open Mos_model in
      stamp id id e.did_dvd;
      stamp id ig e.did_dvg;
      stamp id is e.did_dvs;
      stamp id ib e.did_dvb;
      stamp is id (-.e.did_dvd);
      stamp is ig (-.e.did_dvg);
      stamp is is (-.e.did_dvs);
      stamp is ib (-.e.did_dvb);
      let linear_at_op =
        (e.did_dvd *. v m.Netlist.drain)
        +. (e.did_dvg *. v m.Netlist.gate)
        +. (e.did_dvs *. v m.Netlist.source)
        +. (e.did_dvb *. v m.Netlist.bulk)
      in
      let const = e.ids -. linear_at_op in
      rhs id (-.const);
      rhs is const
  in
  List.iter each (Netlist.elements nl);
  Array.iteri
    (fun k (na, nb, _c, v_prev, i_prev) ->
      let ia = Mna.node_index na and ib = Mna.node_index nb in
      let g = geq.(k) in
      stamp ia ia g;
      stamp ib ib g;
      stamp ia ib (-.g);
      stamp ib ia (-.g);
      let ieq = (g *. v_prev) +. i_prev in
      rhs ia ieq;
      rhs ib (-.ieq))
    caps;
  for i = 0 to layout.Mna.nets - 2 do
    a.(i).(i) <- a.(i).(i) +. 1e-9
  done;
  (a, b)

(* the samples [Tran.solve] returns, computed on boxed matrices *)
let tran_samples ~tech nl op ~t_stop ~dt =
  let layout = op.Mna.op_layout in
  let n = layout.Mna.size in
  let cap_list =
    Mna.linear_capacitors tech nl op |> List.filter (fun (a, b, c) -> a <> b && c > 0.0)
  in
  let v_of x net = if net = Netlist.gnd then 0.0 else x.(Mna.node_index net) in
  let caps =
    Array.of_list
      (List.map
         (fun (a, b, c) -> (a, b, c, v_of op.Mna.x a -. v_of op.Mna.x b, 0.0))
         cap_list)
  in
  let geq = Array.map (fun (_, _, c, _, _) -> 2.0 *. c /. dt) caps in
  let steps = int_of_float (Float.ceil (t_stop /. dt)) in
  let times = Array.init (steps + 1) (fun k -> float_of_int k *. dt) in
  let samples = Array.make (steps + 1) [||] in
  samples.(0) <- Array.copy op.Mna.x;
  let x = Array.copy op.Mna.x in
  for k = 1 to steps do
    let time = times.(k) in
    let rec iterate count =
      let a, b = tran_assemble tech nl layout x ~time ~caps ~geq in
      let x_new = Real.solve a b in
      let max_delta = ref 0.0 in
      for i = 0 to n - 1 do
        max_delta := Float.max !max_delta (Float.abs (x_new.(i) -. x.(i)))
      done;
      let limit = 0.5 in
      let scale = if !max_delta > limit then limit /. !max_delta else 1.0 in
      for i = 0 to n - 1 do
        x.(i) <- x.(i) +. (scale *. (x_new.(i) -. x.(i)))
      done;
      if !max_delta > 1e-9 && count < 50 then iterate (count + 1)
    in
    iterate 0;
    Array.iteri
      (fun i (na, nb, c, v_prev, i_prev) ->
        let v_now = v_of x na -. v_of x nb in
        let i_now = (geq.(i) *. (v_now -. v_prev)) -. i_prev in
        caps.(i) <- (na, nb, c, v_now, i_now))
      caps;
    samples.(k) <- Array.copy x
  done;
  samples

(* --- AWE moments --------------------------------------------------------- *)

let moments ~g ~c ~b ~out ~count =
  let lu = Real.lu_factor g in
  let n = Array.length b in
  let ms = Array.make count 0.0 in
  let x = ref (Real.lu_solve lu b) in
  ms.(0) <- !x.(out);
  for k = 1 to count - 1 do
    let rhs = Array.make n 0.0 in
    for i = 0 to n - 1 do
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        acc := !acc +. (c.(i).(j) *. !x.(j))
      done;
      rhs.(i) <- -. !acc
    done;
    x := Real.lu_solve lu rhs;
    ms.(k) <- !x.(out)
  done;
  ms

(* --- Durand–Kerner on Complex.t ------------------------------------------ *)

let roots ?(iterations = 400) c =
  let c = Mixsyn_util.Poly.of_coeffs c in
  let n = Array.length c - 1 in
  if n <= 0 then [||]
  else begin
    let lead = c.(n) in
    let monic = Array.map (fun x -> x /. lead) c in
    let radius =
      1.0
      +. Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0
           (Array.sub monic 0 n)
    in
    let angle k = (2.0 *. Float.pi *. float_of_int k /. float_of_int n) +. 0.4 in
    let z =
      Array.init n (fun k ->
          Complex.polar
            (radius *. (0.5 +. (0.5 *. float_of_int (k + 1) /. float_of_int n)))
            (angle k))
    in
    let eval_monic w = Mixsyn_util.Poly.eval_complex monic w in
    let step () =
      let moved = ref 0.0 in
      for i = 0 to n - 1 do
        let zi = z.(i) in
        let denom = ref Complex.one in
        for j = 0 to n - 1 do
          if j <> i then denom := Complex.mul !denom (Complex.sub zi z.(j))
        done;
        if Complex.norm !denom > 1e-300 then begin
          let delta = Complex.div (eval_monic zi) !denom in
          z.(i) <- Complex.sub zi delta;
          moved := Float.max !moved (Complex.norm delta)
        end
      done;
      !moved
    in
    let rec iterate k =
      if k < iterations then
        let moved = step () in
        if moved > 1e-13 then iterate (k + 1)
    in
    iterate 0;
    z
  end
