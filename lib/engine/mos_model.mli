(** Square-law MOS model with smooth subthreshold transition.

    The model is the classic level-1 square law (the one behind every
    first-generation synthesis system surveyed in the paper: IDAC's design
    plans, OASYS, OPASYN and ISAAC's symbolic equations all reason in
    square-law terms), extended with:
    - body effect ([gamma], [phi]),
    - channel-length modulation (λ = lambda_factor / L),
    - a softplus-smoothed overdrive so that Newton iteration does not chatter
      at the cutoff boundary. *)

type region = Cutoff | Triode | Saturation

(** Full Jacobian row of the drain current w.r.t. the four terminal voltages,
    plus reporting quantities.  [ids] flows into the drain terminal. *)
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
  gm : float;   (** source-referenced transconductance magnitude *)
  gds : float;
  gmb : float;
}

val eval_into : Mixsyn_circuit.Tech.t -> Mixsyn_circuit.Netlist.mos -> float array ->
  d:int -> g:int -> s:int -> b:int -> Float.Array.t -> at:int -> unit
(** The model's one implementation, for the Newton loops: reads the
    terminal voltages [x.(d)], [x.(g)], [x.(s)], [x.(b)] (a negative index
    is ground, 0 V) and writes the {!eval} fields, in declaration order, to
    [out.(at)] .. [out.(at + eval_slots - 1)], [region] as 0 (cutoff),
    1 (triode) or 2 (saturation).  Allocates nothing. *)

val eval_slots : int
(** Floats one {!eval_into} writes: 13. *)

val eval_of_slots : Float.Array.t -> at:int -> eval
(** The record {!eval_into} wrote at [at]. *)

val evaluate : Mixsyn_circuit.Tech.t -> Mixsyn_circuit.Netlist.mos ->
  vd:float -> vg:float -> vs:float -> vb:float -> eval
(** Current and derivatives at the given terminal voltages: {!eval_into}
    on a fresh buffer, read back as a record.  Handles both polarities and
    source/drain inversion. *)

(** Small-signal capacitances at an operating point, in farads. *)
type caps = { cgs : float; cgd : float; cgb : float; cdb : float; csb : float }

val capacitances : Mixsyn_circuit.Tech.t -> Mixsyn_circuit.Netlist.mos -> region -> caps

val thermal_noise_psd : Mixsyn_circuit.Tech.t -> gm:float -> float
(** Channel thermal noise current PSD, A²/Hz: 4kT·(2/3)·gm. *)

val flicker_noise_psd : Mixsyn_circuit.Tech.t -> Mixsyn_circuit.Netlist.mos ->
  gm:float -> freq:float -> float
(** Flicker noise current PSD at [freq], A²/Hz: KF·gm²/(Cox·W·L·f). *)

val pp_region : Format.formatter -> region -> unit
