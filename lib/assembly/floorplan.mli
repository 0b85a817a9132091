(** Substrate-aware macrocell floorplanning — WRIGHT ([57]).

    Slicing-tree floorplanning, annealed over Polish expressions with the
    classic Wong–Liu moves (though M3 checks only that the expression stays
    valid, not that it stays normalized), plus the WRIGHT ingredient: a fast
    substrate-coupling evaluator inside the cost so noisy digital blocks are
    pushed away from sensitive analog ones.

    The substrate model is the simplified single-layer resistive view: the
    noise an aggressor [i] couples into a victim [j] falls off as
    1/(d_ij + d0), scaled by the aggressor's peak switching current.

    The cost is one flat evaluator, built once per {!floorplan} call: a
    state is one int array (the postfix tokens, then the rotations), and
    each move's cost computes cut sizes bottom-up and corners top-down into
    preallocated float arrays, then the wirelength and the substrate noise
    from per-block arrays over nets interned once.  A move allocates little
    besides its copy of the state and the entries of the wirelength's
    ordering table.

    The results are pinned bit for bit, so every sum keeps one order:
    blocks are placed in operand order; each victim's noise sums its
    aggressors in that order; and the half-perimeter wirelength sums its
    nets in the order [Hashtbl.iter] visits a [Hashtbl.create 16] that met
    them in placement order.  Wirelength centres a block by its unrotated
    size, the noise and the returned placements by its rotated one. *)

type placement = {
  block : Block.t;
  x : float;
  y : float;
  rotated : bool;
}

type result = {
  placements : placement list;
  chip_w : float;
  chip_h : float;
  fp_area : float;
  fp_wirelength : float;   (** HPWL over block-centre net spans *)
  victim_noise : (string * float) list;
      (** per sensitive block: coupled substrate noise, V *)
}

val floorplan :
  ?seed:int ->
  ?noise_weight:float ->
  ?schedule:Mixsyn_opt.Anneal.schedule ->
  Block.t list ->
  result
(** [noise_weight = 0.0] disables the WRIGHT substrate term (the ablation
    of experiment E8). *)

val total_victim_noise : result -> float
