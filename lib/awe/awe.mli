(** Asymptotic Waveform Evaluation (Pillage & Rohrer [61]).

    Computes the first [2q] moments of a linear(ised) network by repeated
    back-substitution on a single LU factorisation of G, then matches them
    with a [q]-pole Padé approximant.  The result is a pole/residue transfer
    function that evaluates in O(q) — the fast electrical oracle behind
    ASTRX/OBLX's AC evaluation and RAIL's power-grid analysis.

    Moments are frequency-scaled before the Hankel solve to tame the
    notorious ill-conditioning; if the solve is still singular the order is
    reduced until it succeeds.

    Every linear solve runs in place on a pooled {!Mixsyn_util.Fmat}
    workspace.  A singular G is not a numerical accident the order fallback
    could cure — the network has no moments — so it surfaces as
    {!Mixsyn_util.Fmat.Singular} from {!moments}, {!of_network} and
    {!of_circuit}; evaluators treat it as "no AWE model" for that sizing. *)

type tf = {
  poles : Complex.t array;
  residues : Complex.t array;
  moments : float array;   (** the raw moments m_0 .. m_{2q-1} *)
  order : int;             (** the order actually achieved *)
}

val moments :
  g:float array array -> c:float array array -> b:float array -> out:int ->
  count:int -> float array
(** [moments ~g ~c ~b ~out ~count] returns m_0..m_{count-1} of the transfer
    from source vector [b] to unknown [out], where the network is
    [(G + sC) x = b].
    @raise Mixsyn_util.Fmat.Singular when G is singular. *)

val moments_at :
  g:float array array -> c:float array array -> b:float array -> outs:int array ->
  count:int -> float array array
(** [moments_at ~g ~c ~b ~outs ~count] is {!moments} for every unknown in
    [outs] from one factorization of G and one moment recursion:
    element [k] holds the moments of [outs.(k)], bit-identical to a
    separate {!moments} call.
    @raise Mixsyn_util.Fmat.Singular when G is singular. *)

val pade : float array -> order:int -> tf
(** Match the given moments with [order] poles (order reduced on numerical
    failure).  @raise Failure when even order 1 fails. *)

val of_network :
  g:float array array -> c:float array array -> b:float array -> out:int ->
  order:int -> tf
(** [pade] of the network's first [2 * order] moments.
    @raise Mixsyn_util.Fmat.Singular when G is singular.
    @raise Failure when even order 1 fails. *)

val of_circuit :
  ?tech:Mixsyn_circuit.Tech.t ->
  Mixsyn_circuit.Netlist.t ->
  Mixsyn_engine.Mna.op ->
  out:Mixsyn_circuit.Netlist.net ->
  order:int ->
  tf
(** AWE of the linearised circuit seen from its AC sources.
    @raise Mixsyn_util.Fmat.Singular when the circuit's G is singular.
    @raise Failure when even order 1 fails. *)

val eval : tf -> Complex.t -> Complex.t
(** H(s) = sum residues/(s - poles). *)

val magnitude : tf -> float -> float
(** |H(j 2 pi f)|. *)

val impulse_response : tf -> float -> float
(** h(t) = sum k_i exp(p_i t) (real part). *)

val step_response : tf -> float -> float
(** Integral of the impulse response from 0 to t. *)

val dominant_pole : tf -> Complex.t option
(** Stable pole with the smallest magnitude, if any. *)

val stable : tf -> bool
(** All poles strictly in the left half plane. *)

val stable_part : tf -> tf
(** Drop right-half-plane poles — the standard guard against the spurious
    unstable poles high-order Padé approximants produce.  Sound whenever the
    dropped residues are small; callers should validate the resulting
    response. *)
