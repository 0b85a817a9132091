module Netlist = Mixsyn_circuit.Netlist
module Fmat = Mixsyn_util.Fmat

type result = {
  times : float array;
  samples : float array array;
  tr_layout : Mna.layout;
}

let solve ?(tech = Mixsyn_circuit.Tech.generic_07um) nl op ~t_stop ~dt =
  let layout = op.Mna.op_layout in
  let n = layout.Mna.size in
  let p = Newton.transient tech nl op ~dt in
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
    Newton.at_time p times.(k);
    let count = ref 0 and iterating = ref true in
    while !iterating do
      let max_delta = Newton.iterate tech p ws x x_new in
      if max_delta > 1e-9 && !count < 50 then incr count else iterating := false
    done;
    Newton.accept p x;
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
