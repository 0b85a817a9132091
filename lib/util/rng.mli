(** Deterministic pseudo-random number generation.

    All stochastic algorithms in mixsyn (simulated annealing, genetic search,
    Monte-Carlo corners) draw from an explicit [t] so that every experiment is
    reproducible from a seed.  The generator is splitmix64. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. *)

val copy : t -> t
(** Independent copy with identical future output. *)

val split : t -> t
(** [split rng] advances [rng] and returns a new independent generator. *)

val int : t -> int -> int
(** [int rng bound] is uniform in [0, bound). Requires [bound > 0]. *)

val float : t -> float -> float
(** [float rng bound] is uniform in [0, bound). *)

val uniform : t -> float -> float -> float
(** [uniform rng lo hi] is uniform in [lo, hi). *)

val bool : t -> bool

val gauss : t -> float
(** Standard normal deviate (Box–Muller). *)

val gaussian : t -> mean:float -> sigma:float -> float

val choice : t -> 'a array -> 'a
(** Uniformly chosen element. Requires a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
