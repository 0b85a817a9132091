(** Allocation-free dense linear-algebra kernels on flat [Bigarray] storage
    — the one LU in the library, behind every analysis (DC, AC, noise,
    transient, AWE and the RAIL power grid).

    A boxed solver allocates a matrix copy, a boxed intermediate per scalar
    operation and fresh result vectors on every factor/solve — three orders
    of magnitude more garbage than the answer needs.  Inside the evaluator
    hot loops (one complex solve per frequency point, one real solve per
    Newton iteration) that garbage serializes every domain on the
    stop-the-world minor collector and turns the pool's parallelism into a
    slowdown.

    [Fmat] keeps each linear system in caller-provided, reusable
    {e workspaces}: row-major [float64] bigarrays for the matrix (split
    re/im planes for the complex kernel), [Float.Array]s for the right-hand
    side and scratch vectors, and an [int array] permutation.  Factor and
    solve run fully in place; a steady-state factor+solve allocates nothing
    on the OCaml heap.

    Both kernels perform {e exactly} the scalar operations of a textbook
    functorized Doolittle LU with partial pivoting — same operation order,
    same pivot comparison ([Float.hypot] magnitudes for complex), same
    Smith's-algorithm complex division.  That boxed solver survives as the
    test suite's oracle ([test/matrix.ml]), and the property tests hold the
    two bit-for-bit equal, not within a tolerance. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

exception Singular of int
(** Raised by the factorizations when no acceptable pivot exists in some
    column [k].  The singularity test is {e scaled}: a pivot candidate is
    rejected when its magnitude is below [1e-14] times the largest
    magnitude of the column in the {e original} matrix (with an absolute
    floor of [1e-300]), so well-conditioned but tiny-valued systems (pF/nS
    stamps) factor fine while structurally singular ones are caught instead
    of producing roundoff garbage.  The boxed oracle applies the same test. *)

val pivot_threshold : float -> float
(** [pivot_threshold col_scale] — the smallest acceptable pivot magnitude
    for a column whose largest original-matrix magnitude is [col_scale]:
    [max 1e-300 (1e-14 *. col_scale)].  Shared with the boxed oracle so the
    two kernels classify singularity identically. *)

(** Real [n*n] systems: [A x = b]. *)
module Real : sig
  type ws
  (** A reusable workspace for systems of one fixed size: the matrix, the
      right-hand side, the permutation and the solve scratch. *)

  val create : int -> ws
  (** [create n] — a workspace for [n*n] systems, zero-initialized. *)

  val size : ws -> int

  val set_rhs : ws -> int -> float -> unit
  (** [set_rhs ws i v] overwrites [b.(i)].  Unlike {!load_stamps}, it
      leaves a factored matrix intact, so one factorization can be solved
      against many right-hand sides. *)

  val load_stamps :
    ws -> pos:int array -> vals:Float.Array.t -> rpos:int array -> rvals:Float.Array.t -> unit
  (** Zero the system, then add [vals.(k)] to the matrix entry at row-major
      position [pos.(k)] ([i * size + j]) and [rvals.(k)] to [b.(rpos.(k))],
      each list in index order; a negative position is skipped (the MNA
      convention that ground has index [-1]).  So every entry receives its
      stamps as additions from zero in list order, and an assembler that
      keeps its element order gets the same bits however it computes the
      values.  Allocates nothing.
      @raise Invalid_argument when a value list is shorter than its
      positions. *)

  val set : ws -> int -> int -> float -> unit
  (** [set ws i j v] overwrites [A.(i).(j)] (indices must be valid). *)

  val load : ws -> float array array -> unit
  (** [load ws m] overwrites the whole matrix with the square [m].
      @raise Invalid_argument unless [m] is [size ws * size ws]. *)

  val get : ws -> int -> int -> float

  val factor : ws -> unit
  (** LU-factor the matrix in place (destroys it).
      @raise Singular when a pivot column has no acceptable pivot. *)

  val solve : ws -> float array -> unit
  (** [solve ws x] writes the solution of the factored system against the
      workspace right-hand side into [x] (length [size ws]).  [factor] must
      have run since the matrix was last modified.  Allocates nothing. *)
end

(** Complex [n*n] systems [(G + jωC) x = b], stored as split re/im planes. *)
module Cplx : sig
  type ws

  val create : int -> ws
  val size : ws -> int

  val load_ac : ws -> g:buf -> c:buf -> omega:float -> unit
  (** Load the AC system matrix: [re <- G], [im <- omega * C], where [g]
      and [c] are row-major [n*n] bigarrays.  The whole per-frequency matrix
      refresh is these two in-place rescales — no allocation. *)

  val load_ac_transposed : ws -> g:buf -> c:buf -> omega:float -> unit
  (** As {!load_ac} but loads [Aᵀ] — the adjoint system of noise analysis. *)

  val set_rhs : ws -> re:Float.Array.t -> im:Float.Array.t -> unit
  (** Copy a right-hand side into the workspace (overwrites). *)

  val unit_rhs : ws -> int -> unit
  (** [unit_rhs ws k] sets the right-hand side to the unit vector [e_k]. *)

  val factor : ws -> unit
  (** In-place complex LU with partial pivoting on [Float.hypot] pivot
      magnitudes — bit-identical to the boxed oracle's complex LU.
      @raise Singular as {!Real.factor}. *)

  val solve : ws -> Complex.t array -> unit
  (** Solve against the workspace right-hand side, writing boxed complex
      results into [x] — the only allocation of a steady-state solve is the
      caller's result array. *)

  val solve_split : ws -> re:Float.Array.t -> im:Float.Array.t -> unit
  (** As {!solve} but writes into unboxed split re/im arrays, for callers
      that only consume magnitudes. *)
end

val flatten : float array array -> buf
(** [flatten m] copies a rectangular [float array array] into a fresh
    row-major bigarray — done once per sweep to set up the shared read-only
    [G]/[C] planes. *)

val with_real : int -> (Real.ws -> 'a) -> 'a
(** [with_real n f] runs [f] with a size-[n] real workspace drawn from this
    domain's workspace pool ([Domain.DLS], one pool per domain, keyed by
    size) so steady-state use allocates nothing and never contends on a
    lock.  Reentrant calls of the same size get a fresh workspace. *)

val with_cplx : int -> (Cplx.ws -> 'a) -> 'a
(** Complex counterpart of {!with_real}. *)
