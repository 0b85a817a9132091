module Netlist = Mixsyn_circuit.Netlist
module Fmat = Mixsyn_util.Fmat
module FA = Float.Array

type t = {
  layout : Mna.layout;
  pos : int array;        (* row-major matrix position of each stamp, -1 on ground *)
  vals : FA.t;            (* the value each stamp adds *)
  rpos : int array;       (* right-hand-side row of each rhs stamp, -1 on ground *)
  rvals : FA.t;
  mos : Netlist.mos array;
  mos_node : int array;   (* drain, gate, source, bulk unknowns, four per device *)
  mos_at : int array;     (* first of the device's eight matrix stamps *)
  mos_rat : int array;    (* first of its two rhs stamps *)
  evals : FA.t;           (* each device's evaluation at the last assembly *)
  src_dc : FA.t;          (* independent sources, in element order *)
  src_wave : Netlist.wave array;
  src_current : bool array; (* a current source adds (+v, -v) at two rhs
                               stamps, a voltage source v at one *)
  src_rat : int array;
  gmin_at : int;          (* first of the diagonal gmin stamps *)
  cap_a : int array;      (* trapezoidal companions: plate unknowns, *)
  cap_b : int array;
  geq : FA.t;             (* conductance 2C/dt, *)
  v_prev : FA.t;          (* voltage and current at the last accepted step *)
  i_prev : FA.t;
  cap_rat : int;          (* first of the two rhs stamps per companion *)
}

let volt (x : float array) i = if i < 0 then 0.0 else Array.unsafe_get x i

let stamp_counts = function
  | Netlist.Resistor _ | Netlist.Vccs _ -> (4, 0)
  | Netlist.Capacitor _ -> (0, 0)
  | Netlist.Isource _ -> (0, 2)
  | Netlist.Vsource _ -> (4, 1)
  | Netlist.Mos _ -> (8, 2)

(* The stamp lists in element order, then the companions, then gmin on
   every node: each matrix entry receives the same additions in the same
   order as a walk over the netlist that stamps as it goes. *)
let compile nl (layout : Mna.layout) ~cap_a ~cap_b ~geq ~v_prev ~gmin =
  let n = layout.Mna.size and elements = Netlist.elements nl in
  let ncap = Array.length cap_a in
  let nstamps, nrstamps =
    List.fold_left
      (fun (ns, nr) e ->
        let s, r = stamp_counts e in
        (ns + s, nr + r))
      ((4 * ncap) + layout.Mna.nets - 1, 2 * ncap)
      elements
  in
  let pos = Array.make nstamps (-1) and vals = FA.make nstamps 0.0 in
  let rpos = Array.make nrstamps (-1) in
  let next = ref 0 and rnext = ref 0 in
  let stamp i j v =
    if i >= 0 && j >= 0 then pos.(!next) <- (i * n) + j;
    FA.set vals !next v;
    incr next
  in
  let rhs i =
    rpos.(!rnext) <- i;
    incr rnext
  in
  let mos = ref [] and srcs = ref [] in
  let branch = ref (layout.Mna.nets - 1) in
  let each = function
    | Netlist.Resistor { a; b; ohms; _ } ->
      let g = 1.0 /. ohms in
      let ia = Mna.node_index a and ib = Mna.node_index b in
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
      (* positive dc injects current into node p *)
      srcs := (true, dc, i_wave, !rnext) :: !srcs;
      rhs (Mna.node_index p);
      rhs (Mna.node_index nn)
    | Netlist.Vsource { p; n = nn; dc; v_wave; _ } ->
      let row = !branch in
      incr branch;
      let ip = Mna.node_index p and inn = Mna.node_index nn in
      stamp ip row 1.0;
      stamp inn row (-1.0);
      stamp row ip 1.0;
      stamp row inn (-1.0);
      srcs := (false, dc, v_wave, !rnext) :: !srcs;
      rhs row
    | Netlist.Mos m ->
      let id = Mna.node_index m.Netlist.drain
      and ig = Mna.node_index m.Netlist.gate
      and is = Mna.node_index m.Netlist.source
      and ib = Mna.node_index m.Netlist.bulk in
      mos := (m, [ id; ig; is; ib ], !next, !rnext) :: !mos;
      List.iter (fun row -> List.iter (fun col -> stamp row col 0.0) [ id; ig; is; ib ]) [ id; is ];
      rhs id;
      rhs is
  in
  List.iter each elements;
  let cap_rat = !rnext in
  Array.iteri
    (fun k ia ->
      let ib = cap_b.(k) and g = FA.get geq k in
      stamp ia ia g;
      stamp ib ib g;
      stamp ia ib (-.g);
      stamp ib ia (-.g);
      rhs ia;
      rhs ib)
    cap_a;
  (* gmin from every node to ground keeps floating gates solvable *)
  let gmin_at = !next in
  for i = 0 to layout.Mna.nets - 2 do
    stamp i i gmin
  done;
  let mos = Array.of_list (List.rev !mos) and srcs = Array.of_list (List.rev !srcs) in
  { layout;
    pos;
    vals;
    rpos;
    rvals = FA.make nrstamps 0.0;
    mos = Array.map (fun (m, _, _, _) -> m) mos;
    mos_node = Array.of_list (List.concat_map (fun (_, nodes, _, _) -> nodes) (Array.to_list mos));
    mos_at = Array.map (fun (_, _, at, _) -> at) mos;
    mos_rat = Array.map (fun (_, _, _, rat) -> rat) mos;
    evals = FA.make (Array.length mos * Mos_model.eval_slots) 0.0;
    src_dc = FA.map_from_array (fun (_, dc, _, _) -> dc) srcs;
    src_wave = Array.map (fun (_, _, w, _) -> w) srcs;
    src_current = Array.map (fun (c, _, _, _) -> c) srcs;
    src_rat = Array.map (fun (_, _, _, rat) -> rat) srcs;
    gmin_at;
    cap_a;
    cap_b;
    geq;
    v_prev;
    i_prev = FA.make ncap 0.0;
    cap_rat }

let dc nl layout =
  compile nl layout ~cap_a:[||] ~cap_b:[||] ~geq:(FA.create 0) ~v_prev:(FA.create 0) ~gmin:0.0

let transient tech nl op ~dt =
  let caps =
    Mna.linear_capacitors tech nl op
    |> List.filter (fun (a, b, c) -> a <> b && c > 0.0)
    |> Array.of_list
  in
  let cap_a = Array.map (fun (a, _, _) -> Mna.node_index a) caps in
  let cap_b = Array.map (fun (_, b, _) -> Mna.node_index b) caps in
  let geq = FA.map_from_array (fun (_, _, c) -> 2.0 *. c /. dt) caps in
  let x = op.Mna.x in
  let v_prev = FA.init (Array.length caps) (fun k -> volt x cap_a.(k) -. volt x cap_b.(k)) in
  compile nl op.Mna.op_layout ~cap_a ~cap_b ~geq ~v_prev ~gmin:1e-9

let set_source p k v =
  let r = p.src_rat.(k) in
  FA.set p.rvals r v;
  if p.src_current.(k) then FA.set p.rvals (r + 1) (-.v)

let scale_sources p alpha =
  for k = 0 to FA.length p.src_dc - 1 do
    set_source p k (alpha *. FA.get p.src_dc k)
  done

let set_gmin p gmin =
  for i = 0 to p.layout.Mna.nets - 2 do
    FA.set p.vals (p.gmin_at + i) gmin
  done

let at_time p time =
  for k = 0 to FA.length p.src_dc - 1 do
    set_source p k (Netlist.wave_value p.src_wave.(k) ~dc:(FA.get p.src_dc k) time)
  done;
  (* trapezoidal companion: g_eq between the plates plus a history current
     source I_eq = g_eq * v_prev + i_prev *)
  for k = 0 to Array.length p.cap_a - 1 do
    let ieq = (FA.get p.geq k *. FA.get p.v_prev k) +. FA.get p.i_prev k in
    FA.set p.rvals (p.cap_rat + (2 * k)) ieq;
    FA.set p.rvals (p.cap_rat + (2 * k) + 1) (-.ieq)
  done

let accept p x =
  for k = 0 to Array.length p.cap_a - 1 do
    let v_now = volt x p.cap_a.(k) -. volt x p.cap_b.(k) in
    FA.set p.i_prev k ((FA.get p.geq k *. (v_now -. FA.get p.v_prev k)) -. FA.get p.i_prev k);
    FA.set p.v_prev k v_now
  done

let iterate tech p ws x x_new =
  let ev = p.evals and vals = p.vals and rvals = p.rvals in
  for k = 0 to Array.length p.mos - 1 do
    let d = p.mos_node.(4 * k) and g = p.mos_node.((4 * k) + 1)
    and s = p.mos_node.((4 * k) + 2) and b = p.mos_node.((4 * k) + 3) in
    let at = k * Mos_model.eval_slots in
    Mos_model.eval_into tech p.mos.(k) x ~d ~g ~s ~b ev ~at;
    let ids = FA.get ev at and dvd = FA.get ev (at + 1) and dvg = FA.get ev (at + 2)
    and dvs = FA.get ev (at + 3) and dvb = FA.get ev (at + 4) in
    let j = p.mos_at.(k) in
    FA.set vals j dvd;
    FA.set vals (j + 1) dvg;
    FA.set vals (j + 2) dvs;
    FA.set vals (j + 3) dvb;
    FA.set vals (j + 4) (-.dvd);
    FA.set vals (j + 5) (-.dvg);
    FA.set vals (j + 6) (-.dvs);
    FA.set vals (j + 7) (-.dvb);
    (* residual correction: i_lin = ids + J.(v_new - v0), so the constant
       part (ids minus J.v at the expansion point) moves to the RHS *)
    let linear_at_op =
      (dvd *. volt x d) +. (dvg *. volt x g) +. (dvs *. volt x s) +. (dvb *. volt x b)
    in
    let const = ids -. linear_at_op in
    let r = p.mos_rat.(k) in
    FA.set rvals r (-.const);
    FA.set rvals (r + 1) const
  done;
  Fmat.Real.load_stamps ws ~pos:p.pos ~vals ~rpos:p.rpos ~rvals;
  Fmat.Real.factor ws;
  Fmat.Real.solve ws x_new;
  let n = p.layout.Mna.size in
  let max_delta = ref 0.0 in
  for i = 0 to n - 1 do
    (* [Float.max] on magnitudes, NaN included, without its C calls *)
    let m = Float.abs (x_new.(i) -. x.(i)) in
    if m > !max_delta || m <> m then max_delta := m
  done;
  (* damp: cap voltage updates at 0.5 V to avoid square-law overshoot *)
  let limit = 0.5 in
  let scale = if !max_delta > limit then limit /. !max_delta else 1.0 in
  for i = 0 to n - 1 do
    x.(i) <- x.(i) +. (scale *. (x_new.(i) -. x.(i)))
  done;
  !max_delta

let mos_evals p =
  List.init (Array.length p.mos) (fun k ->
      (p.mos.(k), Mos_model.eval_of_slots p.evals ~at:(k * Mos_model.eval_slots)))

let vsource_name p k =
  p.layout.Mna.branch_names.(p.rpos.(p.src_rat.(k)) - (p.layout.Mna.nets - 1))

let set_vsource_dc p name v =
  for k = 0 to FA.length p.src_dc - 1 do
    if (not p.src_current.(k)) && vsource_name p k = name then FA.set p.src_dc k v
  done

let power nl op =
  let layout = op.Mna.op_layout in
  let total = ref 0.0 in
  let v net = Mna.voltage op net in
  let each = function
    | Netlist.Vsource { v_name; dc; _ } ->
      (* branch current flows into the + terminal; delivered power = -dc*i *)
      let i = Mna.branch_current op ~layout v_name in
      total := !total +. (-.dc *. i)
    | Netlist.Isource { p; n; dc; _ } ->
      (* source pushes dc into p: delivered power = dc * (v_p - v_n) *)
      total := !total +. (dc *. (v p -. v n))
    | Netlist.Mos _ | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Vccs _ -> ()
  in
  List.iter each (Netlist.elements nl);
  !total
