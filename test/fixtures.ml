(* Inputs and helpers shared by the bit-identity tests. *)

let tech = Mixsyn_circuit.Tech.generic_07um

(* [count] random Table 1 front-end sizings whose operating point converges,
   drawn in a fixed order: netlists with their operating points *)
let detector_sizings ~count =
  let t = Mixsyn_circuit.Detector.template () in
  let rng = Mixsyn_util.Rng.create 1996 in
  let rec draw acc tries =
    if List.length acc = count then List.rev acc
    else if tries = 0 then failwith "detector_sizings: too few converging sizings"
    else begin
      let nl = t.Mixsyn_circuit.Template.build tech (Mixsyn_circuit.Template.random_point t rng) in
      match Mixsyn_engine.Dc.solve ~tech nl with
      | op -> draw ((nl, op) :: acc) (tries - 1)
      | exception Mixsyn_engine.Dc.No_convergence _ -> draw acc (tries - 1)
    end
  in
  draw [] (5 * count)

(* MD5 of the exact bit patterns of [floats] — compact enough to pin
   values captured from an earlier build in the test source *)
let bits_digest floats =
  Digest.to_hex
    (Digest.string
       (String.concat "," (List.map (fun f -> Int64.to_string (Int64.bits_of_float f)) floats)))
