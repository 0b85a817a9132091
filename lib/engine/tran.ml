module Netlist = Mixsyn_circuit.Netlist
module Fmat = Mixsyn_util.Fmat

type result = {
  times : float array;
  samples : float array array;
  tr_layout : Mna.layout;
}

let value_at x i = if i < 0 then 0.0 else x.(i)

(* Stamp the Newton system for one trapezoidal step into the workspace.
   The linearised capacitances enter as companion models with their state
   (voltage and current at the previous accepted timepoint) in [v_prev] /
   [i_prev]; [cap_a]/[cap_b] are their plates' unknown indices. *)
let assemble tech elements (layout : Mna.layout) ws x ~time ~cap_a ~cap_b ~geq ~v_prev
    ~i_prev =
  Fmat.Real.clear ws;
  let v net = value_at x (Mna.node_index net) in
  let stamp = Fmat.Real.stamp ws and rhs = Fmat.Real.rhs ws in
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
        Mos_model.evaluate tech m ~vd:(v m.Netlist.drain) ~vg:(v m.Netlist.gate)
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
  List.iter each elements;
  (* trapezoidal companion models: g_eq between the plates plus a history
     current source  I_eq = g_eq * v_prev + i_prev *)
  for k = 0 to Array.length geq - 1 do
    let ia = cap_a.(k) and ib = cap_b.(k) in
    let g = geq.(k) in
    stamp ia ia g;
    stamp ib ib g;
    stamp ia ib (-.g);
    stamp ib ia (-.g);
    let ieq = (g *. v_prev.(k)) +. i_prev.(k) in
    rhs ia ieq;
    rhs ib (-.ieq)
  done;
  (* small gmin for numerical robustness *)
  for i = 0 to layout.Mna.nets - 2 do
    stamp i i 1e-9
  done

let solve ?(tech = Mixsyn_circuit.Tech.generic_07um) nl op ~t_stop ~dt =
  let layout = op.Mna.op_layout in
  let n = layout.Mna.size in
  let elements = Netlist.elements nl in
  let caps =
    Mna.linear_capacitors tech nl op
    |> List.filter (fun (a, b, c) -> a <> b && c > 0.0)
    |> Array.of_list
  in
  let cap_a = Array.map (fun (a, _, _) -> Mna.node_index a) caps in
  let cap_b = Array.map (fun (_, b, _) -> Mna.node_index b) caps in
  let geq = Array.map (fun (_, _, c) -> 2.0 *. c /. dt) caps in
  let v_prev =
    Array.init (Array.length caps) (fun k ->
        value_at op.Mna.x cap_a.(k) -. value_at op.Mna.x cap_b.(k))
  in
  let i_prev = Array.make (Array.length caps) 0.0 in
  let steps = int_of_float (Float.ceil (t_stop /. dt)) in
  let times = Array.init (steps + 1) (fun k -> float_of_int k *. dt) in
  let samples = Array.make (steps + 1) [||] in
  samples.(0) <- Array.copy op.Mna.x;
  let x = Array.copy op.Mna.x in
  let x_new = Array.make n 0.0 in
  (* one pooled workspace takes every Newton iteration of every timestep:
     stamped, factored and solved in place *)
  Fmat.with_real n @@ fun ws ->
  for k = 1 to steps do
    let time = times.(k) in
    let count = ref 0 and iterating = ref true in
    while !iterating do
      assemble tech elements layout ws x ~time ~cap_a ~cap_b ~geq ~v_prev ~i_prev;
      Fmat.Real.factor ws;
      Fmat.Real.solve ws x_new;
      let max_delta = ref 0.0 in
      for i = 0 to n - 1 do
        max_delta := Float.max !max_delta (Float.abs (x_new.(i) -. x.(i)))
      done;
      let limit = 0.5 in
      let scale = if !max_delta > limit then limit /. !max_delta else 1.0 in
      for i = 0 to n - 1 do
        x.(i) <- x.(i) +. (scale *. (x_new.(i) -. x.(i)))
      done;
      if !max_delta > 1e-9 && !count < 50 then incr count else iterating := false
    done;
    (* update companion state *)
    for i = 0 to Array.length geq - 1 do
      let v_now = value_at x cap_a.(i) -. value_at x cap_b.(i) in
      i_prev.(i) <- (geq.(i) *. (v_now -. v_prev.(i))) -. i_prev.(i);
      v_prev.(i) <- v_now
    done;
    samples.(k) <- Array.copy x
  done;
  { times; samples; tr_layout = layout }

let voltage r k net =
  if net = Netlist.gnd then 0.0 else r.samples.(k).(Mna.node_index net)

let waveform r net = Array.init (Array.length r.times) (fun k -> (r.times.(k), voltage r k net))

let peak w =
  Array.fold_left
    (fun ((_, best_v) as best) ((_, v) as sample) ->
      if Float.abs v > Float.abs best_v then sample else best)
    w.(0) w

let first_crossing w ~level =
  let n = Array.length w in
  let rec scan i =
    if i >= n then None
    else begin
      let t0, v0 = w.(i - 1) and t1, v1 = w.(i) in
      if (v0 -. level) *. (v1 -. level) <= 0.0 && v0 <> v1 then
        Some (t0 +. ((level -. v0) *. (t1 -. t0) /. (v1 -. v0)))
      else scan (i + 1)
    end
  in
  if n < 2 then None else scan 1

let settling_time w ~final ~tolerance =
  let last_out = ref None in
  Array.iter
    (fun (t, v) -> if Float.abs (v -. final) > tolerance then last_out := Some t)
    w;
  !last_out
