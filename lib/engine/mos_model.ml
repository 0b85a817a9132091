module Tech = Mixsyn_circuit.Tech
module Netlist = Mixsyn_circuit.Netlist

type region = Cutoff | Triode | Saturation

type eval = {
  ids : float;
  did_dvd : float;
  did_dvg : float;
  did_dvs : float;
  did_dvb : float;
  region : region;
  vgs : float;
  vds : float;
  vth : float;
  vdsat : float;
  gm : float;
  gds : float;
  gmb : float;
}

let subthreshold_slope = 1.5

let eval_slots = 13

let volt (x : float array) i = if i < 0 then 0.0 else Array.unsafe_get x i

(* One evaluation, written to [out.(at) .. out.(at + 12)] in the order of
   the [eval] record's fields (region as 0 cutoff / 1 triode / 2
   saturation).  Everything stays in unboxed locals — no tuple, no record,
   no float crossing a function boundary — so a call allocates nothing.

   The NMOS equations assume vds >= 0.  A PMOS mirrors every voltage and
   reuses them (id_p(v) = -id_n(-v); the derivatives survive the double
   sign flip); a device with vd < vs is evaluated with drain and source
   exchanged and its current and Jacobian swapped back. *)
let eval_into tech m x ~d ~g ~s ~b out ~at =
  let vd = volt x d and vg = volt x g and vs = volt x s and vb = volt x b in
  let nmos = match m.Netlist.polarity with Netlist.Nmos -> true | Netlist.Pmos -> false in
  let md = if nmos then vd else -.vd and mg = if nmos then vg else -.vg in
  let ms = if nmos then vs else -.vs and mb = if nmos then vb else -.vb in
  let forward = md >= ms in
  let cd = if forward then md else ms and cs = if forward then ms else md in
  let vth0 = if nmos then tech.Tech.vth0_n else tech.Tech.vth0_p in
  let kp = if nmos then tech.Tech.kp_n else tech.Tech.kp_p in
  let vgs = mg -. cs and vds = cd -. cs in
  let vsb = cs -. mb in
  let phi = tech.Tech.phi in
  (* [Float.max (phi +. vsb) 0.025], NaN included, without its C calls *)
  let arg = phi +. vsb in
  let sq_arg = if arg < 0.025 then 0.025 else arg in
  let vth = vth0 +. (tech.Tech.gamma *. (sqrt sq_arg -. sqrt phi)) in
  let dvth_dvsb = tech.Tech.gamma /. (2.0 *. sqrt sq_arg) in
  let vov = vgs -. vth in
  (* softplus-smoothed overdrive: veff -> vov for strong inversion, decays
     exponentially below threshold; sigma is its derivative *)
  let vt = Mixsyn_util.Units.boltzmann *. tech.Tech.temp /. Mixsyn_util.Units.electron_charge in
  let nvt = subthreshold_slope *. vt in
  let xv = vov /. nvt in
  let veff = ref 0.0 and sigma = ref 0.0 in
  if xv > 40.0 then begin
    veff := vov;
    sigma := 1.0
  end
  else if xv < -40.0 then begin
    veff := nvt *. exp (-40.0);
    sigma := 0.0
  end
  else begin
    veff := nvt *. log (1.0 +. exp xv);
    sigma := 1.0 /. (1.0 +. exp (-.xv))
  end;
  let veff = !veff and sigma = !sigma in
  let beta = kp *. m.Netlist.w /. m.Netlist.l in
  let lambda = tech.Tech.lambda_factor /. m.Netlist.l in
  let clm = 1.0 +. (lambda *. vds) in
  let saturated = vds >= veff in
  let ids = ref 0.0 and gm = ref 0.0 and gds = ref 0.0 in
  if saturated then begin
    let i0 = 0.5 *. beta *. veff *. veff in
    ids := i0 *. clm;
    gm := beta *. veff *. clm *. sigma;
    gds := i0 *. lambda
  end
  else begin
    let i0 = beta *. ((veff *. vds) -. (0.5 *. vds *. vds)) in
    ids := i0 *. clm;
    gm := beta *. vds *. clm *. sigma;
    gds := (beta *. (veff -. vds) *. clm) +. (i0 *. lambda)
  end;
  let ids = !ids and gm = !gm and gds = !gds in
  (* dvov/dvb = +dvth_dvsb (raising vb reduces vsb, lowers vth, raises vov) *)
  let gmb = gm *. dvth_dvsb in
  (* Jacobian in terms of terminal voltages:
       ids = f(vgs, vds, vsb)
       did/dvg = gm ; did/dvd = gds ; did/dvb = gmb ;
       did/dvs = -(gm + gds + gmb). *)
  let dvs = -.(gm +. gds +. gmb) in
  let ids = if forward then ids else -.ids in
  Float.Array.set out at (if nmos then ids else -.ids);
  Float.Array.set out (at + 1) (if forward then gds else -.dvs);
  Float.Array.set out (at + 2) (if forward then gm else -.gm);
  Float.Array.set out (at + 3) (if forward then dvs else -.gds);
  Float.Array.set out (at + 4) (if forward then gmb else -.gmb);
  Float.Array.set out (at + 5) (if sigma < 0.5 then 0.0 else if saturated then 2.0 else 1.0);
  Float.Array.set out (at + 6) (vg -. vs);
  Float.Array.set out (at + 7) (vd -. vs);
  Float.Array.set out (at + 8) (if nmos then vth else -.vth);
  Float.Array.set out (at + 9) (if nmos then veff else -.veff);
  Float.Array.set out (at + 10) gm;
  Float.Array.set out (at + 11) gds;
  Float.Array.set out (at + 12) gmb

let eval_of_slots out ~at =
  let f k = Float.Array.get out (at + k) in
  { ids = f 0;
    did_dvd = f 1;
    did_dvg = f 2;
    did_dvs = f 3;
    did_dvb = f 4;
    region = (match f 5 with 0.0 -> Cutoff | 1.0 -> Triode | _ -> Saturation);
    vgs = f 6;
    vds = f 7;
    vth = f 8;
    vdsat = f 9;
    gm = f 10;
    gds = f 11;
    gmb = f 12 }

let evaluate tech m ~vd ~vg ~vs ~vb =
  let out = Float.Array.create eval_slots in
  eval_into tech m [| vd; vg; vs; vb |] ~d:0 ~g:1 ~s:2 ~b:3 out ~at:0;
  eval_of_slots out ~at:0

type caps = { cgs : float; cgd : float; cgb : float; cdb : float; csb : float }

let capacitances tech m region =
  let w = m.Netlist.w and l = m.Netlist.l in
  let cgate = tech.Tech.cox *. w *. l in
  let cover = tech.Tech.cov *. w in
  let cjunction =
    (tech.Tech.cj *. w *. tech.Tech.l_diff)
    +. (tech.Tech.cjsw *. 2.0 *. (w +. tech.Tech.l_diff))
  in
  match region with
  | Saturation ->
    { cgs = ((2.0 /. 3.0) *. cgate) +. cover; cgd = cover; cgb = 0.0;
      cdb = cjunction; csb = cjunction }
  | Triode ->
    { cgs = (0.5 *. cgate) +. cover; cgd = (0.5 *. cgate) +. cover; cgb = 0.0;
      cdb = cjunction; csb = cjunction }
  | Cutoff ->
    { cgs = cover; cgd = cover; cgb = cgate; cdb = cjunction; csb = cjunction }

let thermal_noise_psd tech ~gm =
  4.0 *. Mixsyn_util.Units.boltzmann *. tech.Tech.temp *. (2.0 /. 3.0) *. gm

let flicker_noise_psd tech m ~gm ~freq =
  let f = Float.max freq 1e-3 in
  tech.Tech.kf *. gm *. gm /. (tech.Tech.cox *. m.Netlist.w *. m.Netlist.l *. f)

let pp_region ppf r =
  Format.pp_print_string ppf
    (match r with Cutoff -> "cutoff" | Triode -> "triode" | Saturation -> "saturation")
