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

(* [count] random sizings of topology [t], drawn in a fixed order; whether
   each one converges is part of what a DC digest pins *)
let topology_sizings (t : Mixsyn_circuit.Template.t) ~count =
  let rng = Mixsyn_util.Rng.create 1996 in
  let rec draw acc k =
    if k = count then List.rev acc
    else draw (t.Mixsyn_circuit.Template.build tech (Mixsyn_circuit.Template.random_point t rng) :: acc) (k + 1)
  in
  draw [] 0

(* one digest over a list of per-case digests *)
let combine_digests ds = Digest.to_hex (Digest.string (String.concat "," ds))

(* every bit a DC solve reports: the solution, the iteration count and each
   MOS evaluation (region as 0/1/2); a solve that does not converge hashes
   as [-1] *)
let dc_bits nl =
  let module Mos = Mixsyn_engine.Mos_model in
  match Mixsyn_engine.Dc.solve ~tech nl with
  | exception Mixsyn_engine.Dc.No_convergence _ -> bits_digest [ -1.0 ]
  | op ->
    let region = function Mos.Cutoff -> 0.0 | Mos.Triode -> 1.0 | Mos.Saturation -> 2.0 in
    bits_digest
      (Array.to_list op.Mixsyn_engine.Mna.x
      @ (float_of_int op.Mixsyn_engine.Mna.iterations
         :: List.concat_map
              (fun (_, (e : Mos.eval)) ->
                [ e.ids; e.did_dvd; e.did_dvg; e.did_dvs; e.did_dvb; region e.region; e.vgs;
                  e.vds; e.vth; e.vdsat; e.gm; e.gds; e.gmb ])
              op.Mixsyn_engine.Mna.mos_evals))

(* every sample of the Table 1 transient check on one detector sizing *)
let tran_bits (nl, op) =
  let r = Mixsyn_engine.Tran.solve ~tech nl op ~t_stop:12e-6 ~dt:6e-9 in
  bits_digest (List.concat_map Array.to_list (Array.to_list r.Mixsyn_engine.Tran.samples))

(* [f ()]'s result and the words it allocated on both heaps: minor plus
   major minus promoted, so a promoted word counts once.  [Gc.quick_stat]'s
   minor count only moves at a minor collection, so the minor heap is
   flushed before each reading.  The count is then exact, whatever the young
   heap held before the call, but for the few words a reading allocates *)
let allocated_words f =
  let words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = words () in
  let r = f () in
  let w = words () -. w0 in
  (r, w)
