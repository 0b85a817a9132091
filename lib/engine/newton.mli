(** The one Newton assembler behind DC and transient analysis.

    A netlist is compiled once per solve into flat stamp lists: for every
    element, in element order, the row-major matrix position and value of
    each of its stamps and the row of each right-hand-side entry; then the
    transient's capacitor companions; then gmin on every node.  A Newton
    iteration evaluates each MOS device into a float buffer
    ({!Mos_model.eval_into}), writes its eight Jacobian stamps and two
    residual entries in place, and hands the lists to
    {!Mixsyn_util.Fmat.Real.load_stamps}.  Every matrix entry receives the
    same floating-point additions in the same order as a walk over the
    netlist would make, so results are bit-identical to one, and the
    iteration allocates nothing but its returned float.

    This is the one module that reads netlist elements for DC and
    transient analysis.  A compiled netlist is mutable scratch for one
    solve on one domain. *)

type t

val dc : Mixsyn_circuit.Netlist.t -> Mna.layout -> t
(** The DC system: elements, then a gmin conductance (see {!set_gmin}) from
    every node to ground.  Source values are set by {!scale_sources}. *)

val transient :
  Mixsyn_circuit.Tech.t -> Mixsyn_circuit.Netlist.t -> Mna.op -> dt:float -> t
(** The trapezoidal-step system: elements; one companion per linear
    capacitance at [op] ({!Mna.linear_capacitors}, between distinct nets,
    positive), of conductance [2C/dt] with its state starting at [op];
    then a fixed 1e-9 S gmin.  Source values are set by {!at_time}. *)

val scale_sources : t -> float -> unit
(** [scale_sources p alpha]: every independent source at [alpha] times its
    DC value — source-stepping continuation. *)

val set_gmin : t -> float -> unit
(** The node-to-ground conductance of a {!dc} system. *)

val set_vsource_dc : t -> string -> float -> unit
(** Replace the DC value of every voltage source of that name. *)

val at_time : t -> float -> unit
(** Source waveforms and companion history currents for the step ending at
    this time. *)

val iterate : Mixsyn_circuit.Tech.t -> t -> Mixsyn_util.Fmat.Real.ws -> float array -> float array -> float
(** [iterate tech p ws x x_new]: assemble at the iterate [x], factor and
    solve into [x_new], then move [x] toward it by the damped step (updates
    capped at 0.5 V).  Returns the undamped [max_i |x_new.(i) - x.(i)|]
    (NaN when the solve produced one).
    @raise Mixsyn_util.Fmat.Singular when the system is singular. *)

val accept : t -> float array -> unit
(** Advance the companion state to the accepted transient solution. *)

val mos_evals : t -> (Mixsyn_circuit.Netlist.mos * Mos_model.eval) list
(** Every device's evaluation at the iterate the last {!iterate}
    assembled, in element order. *)

val power : Mixsyn_circuit.Netlist.t -> Mna.op -> float
(** Total power the independent sources deliver at [op], at their DC
    values, watts. *)
