module Fmat = Mixsyn_util.Fmat

exception No_convergence of string

let newton tech p ws ~x0 ~alpha ~gmin ~max_iterations =
  Newton.scale_sources p alpha;
  Newton.set_gmin p gmin;
  let x = Array.copy x0 in
  let x_new = Array.make (Array.length x0) 0.0 in
  let iterations_run = ref 0 in
  let rec loop iter =
    incr iterations_run;
    if iter > max_iterations then None
    else
      match Newton.iterate tech p ws x x_new with
      | exception Fmat.Singular _ -> None
      | max_delta -> if max_delta < 1e-9 then Some (x, iter) else loop (iter + 1)
  in
  let r = loop 1 in
  Mixsyn_util.Telemetry.add "dc.newton_iterations" !iterations_run;
  (match r with None -> Mixsyn_util.Telemetry.count "dc.newton_failures" | Some _ -> ());
  r

let solve_compiled tech (layout : Mna.layout) p ~gmin ~max_iterations =
  Mixsyn_util.Telemetry.count "dc.solves";
  (* one flat workspace from this domain's pool serves every Newton
     iteration and every continuation step of this solve *)
  Fmat.with_real layout.Mna.size @@ fun ws ->
  let newton = newton tech p ws in
  let zeros = Array.make layout.Mna.size 0.0 in
  (* the device evaluations are those of the final assembly *)
  let finish (x, iterations) =
    { Mna.op_layout = layout; x; mos_evals = Newton.mos_evals p; iterations }
  in
  match newton ~x0:zeros ~alpha:1.0 ~gmin ~max_iterations with
  | Some result -> finish result
  | None ->
    (* source stepping with warm starts *)
    Mixsyn_util.Telemetry.count "dc.source_stepping_runs";
    let steps = [ 0.1; 0.25; 0.4; 0.55; 0.7; 0.85; 1.0 ] in
    let rec continue x0 = function
      | [] -> None
      | alpha :: rest ->
        (match newton ~x0 ~alpha ~gmin ~max_iterations with
         | Some (x, it) -> if rest = [] then Some (x, it) else continue x rest
         | None -> None)
    in
    (match continue zeros steps with
     | Some result -> finish result
     | None ->
       (* gmin stepping as a last resort *)
       Mixsyn_util.Telemetry.count "dc.gmin_stepping_runs";
       let rec gmin_steps x0 = function
         | [] -> None
         | g :: rest ->
           (match newton ~x0 ~alpha:1.0 ~gmin:g ~max_iterations with
            | Some (x, it) -> if rest = [] then Some (x, it) else gmin_steps x rest
            | None -> None)
       in
       (match gmin_steps zeros [ 1e-3; 1e-5; 1e-7; gmin ] with
        | Some result -> finish result
        | None ->
          Mixsyn_util.Telemetry.count "dc.no_convergence";
          raise (No_convergence "dc: newton, source and gmin stepping all failed")))

let solve ?(tech = Mixsyn_circuit.Tech.generic_07um) ?(gmin = 1e-9) ?(max_iterations = 200) nl =
  let layout = Mna.layout_of nl in
  solve_compiled tech layout (Newton.dc nl layout) ~gmin ~max_iterations

let power = Newton.power

let sweep ?(tech = Mixsyn_circuit.Tech.generic_07um) nl ~source ~values =
  let layout = Mna.layout_of nl in
  (* verify the source exists up front *)
  if not (Hashtbl.mem layout.Mna.branch_tbl source) then raise Not_found;
  let p = Newton.dc nl layout in
  Array.map
    (fun v ->
      Newton.set_vsource_dc p source v;
      (v, solve_compiled tech layout p ~gmin:1e-9 ~max_iterations:200))
    values
