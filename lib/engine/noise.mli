(** Small-signal noise analysis by the adjoint method.

    One transposed solve per frequency yields the transfer function from
    every internal noise-current injection point to the designated output,
    so the cost is independent of the number of noise sources.  Sources
    modelled: resistor thermal noise, MOS channel thermal noise and MOS
    flicker noise. *)

type contribution = {
  source_name : string;
  kind : [ `Thermal | `Flicker ];
  psd : float;  (** contribution to the output noise PSD, V²/Hz *)
}

type point = {
  freq : float;
  total_psd : float;  (** output noise PSD, V²/Hz *)
  contributions : contribution list;
}

type result = {
  points : point array;
  integrated_rms : float;  (** sqrt of the PSD integrated over the sweep, V *)
}

val analyze :
  ?tech:Mixsyn_circuit.Tech.t ->
  ?jobs:int ->
  Mixsyn_circuit.Netlist.t ->
  Mna.op ->
  out:Mixsyn_circuit.Netlist.net ->
  freqs:float array ->
  result
(** Frequency points evaluate concurrently on the {!Mixsyn_util.Pool}
    ([jobs] defaults to [Pool.default_jobs ()]), each an in-place adjoint
    factor/solve in a per-domain {!Mixsyn_util.Fmat} workspace against the
    once-flattened [G]/[C] planes; workers claim contiguous frequency
    bands of at least 32 points ({!Mixsyn_util.Pool.parallel_banded}), so
    a sweep shorter than 64 points — the Table 1 detector's 49-point sweep
    — runs inline.  [points] is in frequency order regardless of [jobs]. *)

val integrate : (float * float) array -> float
(** Trapezoidal integration of a (frequency, PSD) series; returns the
    integral (not its square root). *)
