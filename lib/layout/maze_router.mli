(** ANAGRAM II-style analog area router ([35,36]), with the ANAGRAM III /
    ROAD parasitic-bounded cost extension ([39,40]).

    A two-metal-layer grid router over the placed cells:
    - Metal1 is blocked by cell geometry, Metal2 rides over the devices
      (over-the-device routing);
    - every net carries a {!net_class}; stepping adjacent to an
      incompatible net's wire costs extra (crosstalk avoidance), and
      sensitive nets can carry an explicit coupling budget that turns the
      soft cost into a near-hard constraint (parasitic bounds);
    - differential pairs are routed symmetrically: the partner net is laid
      as the mirror image when the mirrored cells are free.

    Multi-terminal nets are routed incrementally (each terminal connects to
    the net's existing tree) with Dijkstra search.  When a pass leaves
    nets unrouted, the whole layout is routed again with those nets first,
    for up to six more passes, and the earliest pass with the fewest
    failures wins.

    One {!route} call rasterizes the grid once, and every rip-up pass
    starts from a copy of it.  One search workspace serves every search of
    the call: distance and predecessor arrays that hold at a node only
    while the node's generation stamp is the current search's, and a flat
    binary heap of float keys beside node indices.  A search therefore
    allocates in proportion to the path it returns, not to the grid or to
    its expansions.  The heap pops the least key; it compares with a
    strict [<] and takes the left child before the right on equal keys, so
    equal-cost candidates pop in one fixed order.  That order decides
    between equal-cost paths, so routes are deterministic, and changing it
    moves them.  Each search polls {!Mixsyn_util.Cancel.guard}, so an
    expired job deadline stops a route between searches. *)

type net_class = Sensitive | Noisy | Neutral

val compatible : net_class -> net_class -> bool
(** Only [Sensitive]/[Noisy] adjacency is incompatible. *)

type net_spec = {
  net : string;
  n_class : net_class;
  coupling_budget : float option;
      (** max tolerated coupling capacitance, F (ROAD-style bound) *)
}

type config = {
  rules : Rules.t;
  extra_margin : float;   (** routing area margin around the placement, m *)
  adjacency_penalty : float;  (** cost per step adjacent to an incompatible wire *)
  via_cost : float;
}

val default_config : config

type wire = {
  w_net : string;
  rects : Geom.rect list;
  length : float;
  vias : int;
}

type result = {
  wires : wire list;
  failed : string list;          (** nets that could not be completed *)
  total_length : float;
  total_vias : int;
  coupling : (string * string * float) list;
      (** per incompatible pair: estimated coupling capacitance, F *)
  symmetric_ok : int;            (** pairs successfully mirror-routed *)
}

val route :
  ?config:config ->
  ?symmetric_pairs:(string * string) list ->
  cells:Cell.t list ->
  nets:net_spec list ->
  unit ->
  result
(** Route every listed net over the placed [cells].  Nets not listed in
    [nets] but present on pins are ignored (power routing is the power-grid
    subsystem's job). *)

val coupling_on : result -> string -> float
(** Total coupling capacitance involving the given net. *)
