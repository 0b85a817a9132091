type net_class = Sensitive | Noisy | Neutral

let compatible a b =
  match (a, b) with
  | Sensitive, Noisy | Noisy, Sensitive -> false
  | (Sensitive | Noisy | Neutral), (Sensitive | Noisy | Neutral) -> true

type net_spec = {
  net : string;
  n_class : net_class;
  coupling_budget : float option;
}

type config = {
  rules : Rules.t;
  extra_margin : float;
  adjacency_penalty : float;
  via_cost : float;
}

let default_config =
  { rules = Rules.generic_07um;
    extra_margin = 6e-6;
    adjacency_penalty = 12.0;
    via_cost = 4.0 }

type wire = {
  w_net : string;
  rects : Geom.rect list;
  length : float;
  vias : int;
}

type result = {
  wires : wire list;
  failed : string list;
  total_length : float;
  total_vias : int;
  coupling : (string * string * float) list;
  symmetric_ok : int;
}

(* grid encoding *)
let free_cell = -1
let obstacle = -2

type grid = {
  nx : int;
  ny : int;
  pitch : float;
  ox : float;  (** world x of grid (0,_) *)
  oy : float;
  state : int array;  (** 2 layers: metal1 = layer 0, metal2 = layer 1 *)
  via_base : float;
}

let index g layer x y = (((layer * g.ny) + y) * g.nx) + x

let in_bounds g x y = x >= 0 && x < g.nx && y >= 0 && y < g.ny

let world_of g x y = (g.ox +. (float_of_int x *. g.pitch), g.oy +. (float_of_int y *. g.pitch))

let grid_of g wx wy =
  (int_of_float (Float.round ((wx -. g.ox) /. g.pitch)),
   int_of_float (Float.round ((wy -. g.oy) /. g.pitch)))

let blocks_metal1 (layer : Geom.layer) =
  match layer with
  | Geom.Ndiff | Geom.Pdiff | Geom.Poly | Geom.Metal1 | Geom.Contact -> true
  | Geom.Metal2 | Geom.Via12 | Geom.Nwell -> false

let build_grid config cells =
  let rules = config.rules in
  (* route on half the wiring pitch so closely spaced stack contacts land on
     distinct nodes; wires still reserve a full pitch through the spacing
     cost *)
  let pitch = rules.Rules.route_pitch /. 2.0 in
  let all_rects = List.concat_map (fun (c : Cell.t) -> c.Cell.rects) cells in
  let bb =
    match Geom.bbox all_rects with
    | Some bb -> bb
    | None -> Geom.rect Geom.Metal1 0.0 0.0 1e-5 1e-5
  in
  let m = config.extra_margin in
  let ox = bb.Geom.x0 -. m and oy = bb.Geom.y0 -. m in
  let nx = int_of_float (Float.ceil ((Geom.width bb +. (2.0 *. m)) /. pitch)) + 1 in
  let ny = int_of_float (Float.ceil ((Geom.height bb +. (2.0 *. m)) /. pitch)) + 1 in
  let g =
    { nx; ny; pitch; ox; oy; state = Array.make (2 * nx * ny) free_cell;
      via_base = config.via_cost }
  in
  (* block metal1 under cell geometry *)
  List.iter
    (fun r ->
      if blocks_metal1 r.Geom.layer then begin
        let x0, y0 = grid_of g r.Geom.x0 r.Geom.y0 in
        let x1, y1 = grid_of g r.Geom.x1 r.Geom.y1 in
        for x = max 0 x0 to min (nx - 1) x1 do
          for y = max 0 y0 to min (ny - 1) y1 do
            g.state.(index g 0 x y) <- obstacle
          done
        done
      end)
    all_rects;
  g

(* The search workspace: [dist] and [prev] hold at a node only while its
   [stamp] equals the current search's generation [gen], so a search
   starts by bumping [gen], not by clearing the grid.  The heap is a
   binary min-heap laid flat: [keys.(i)] is the key of [nodes.(i)]. *)
type workspace = {
  dist : float array;
  prev : int array;
  stamp : int array;
  mutable gen : int;
  mutable keys : float array;
  mutable nodes : int array;
  mutable size : int;
}

(* what every rip-up pass of one [route] call shares: the grid rasterized
   once with every pin snapped to its node (a pass routes on a copy), the
   net tables, the mirror axis and the search workspace *)
type job = {
  config : config;
  base : grid;
  nets : net_spec array;
  class_of : net_class array;
  penalty : float array;
      (* per net: the adjacency penalty, x8 under a coupling budget *)
  pin_nodes : int list array;  (* per net *)
  symmetric_pairs : (string * string) list;
  axis_x : float;  (* the mirror axis, in grid columns *)
  ws : workspace;
}

let workspace n =
  { dist = Array.make n infinity;
    prev = Array.make n (-1);
    stamp = Array.make n 0;
    gen = 0;
    keys = Array.make 256 0.0;
    nodes = Array.make 256 0;
    size = 0 }

(* The heap compares keys with a strict [<] and prefers the left child to
   the right on ties, so equal keys pop in one fixed order; that order
   picks between equal-cost paths. *)

(* push [node] keyed by its distance *)
let push ws node =
  if ws.size = Array.length ws.keys then begin
    let keys = Array.make (2 * ws.size) 0.0 and nodes = Array.make (2 * ws.size) 0 in
    Array.blit ws.keys 0 keys 0 ws.size;
    Array.blit ws.nodes 0 nodes 0 ws.size;
    ws.keys <- keys;
    ws.nodes <- nodes
  end;
  let keys = ws.keys and nodes = ws.nodes in
  let key = ws.dist.(node) in
  let i = ref ws.size in
  while !i > 0 && key < keys.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    keys.(!i) <- keys.(parent);
    nodes.(!i) <- nodes.(parent);
    i := parent
  done;
  keys.(!i) <- key;
  nodes.(!i) <- node;
  ws.size <- ws.size + 1

(* drop the top entry, which the caller read at index 0: the last entry
   moves to the root and sifts down *)
let pop ws =
  let keys = ws.keys and nodes = ws.nodes in
  ws.size <- ws.size - 1;
  let n = ws.size in
  let key = keys.(n) and node = nodes.(n) in
  let i = ref 0 and settled = ref false in
  while not !settled do
    let left = (2 * !i) + 1 in
    let right = left + 1 in
    let c = if left < n && keys.(left) < key then left else !i in
    let c = if right < n && keys.(right) < (if c = !i then key else keys.(c)) then right else c in
    if c = !i then settled := true
    else begin
      keys.(!i) <- keys.(c);
      nodes.(!i) <- nodes.(c);
      i := c
    end
  done;
  keys.(!i) <- key;
  nodes.(!i) <- node

(* [g]'s node at [layer], [x], [y] holds a wire or pin of a net that net
   [id] must not run beside *)
let clashes j g id layer x y =
  in_bounds g x y
  &&
  let s = g.state.(index g layer x y) in
  s >= 0 && s <> id && not (compatible j.class_of.(s) j.class_of.(id))

(* relax the step from [node], settled at its distance, to the node at
   [layer], [x], [y]: a via when [via], else one track step.  Entering a
   node beside an incompatible net costs the net's penalty, and metal2
   costs 0.05 more (a mild preference for metal1). *)
let relax j g ~id node layer x y ~via =
  if in_bounds g x y then begin
    let ni = index g layer x y in
    let s = g.state.(ni) in
    if s <> obstacle && (s < 0 || s = id) then begin
      let near =
        clashes j g id layer (x + 1) y
        || clashes j g id layer (x - 1) y
        || clashes j g id layer x (y + 1)
        || clashes j g id layer x (y - 1)
      in
      let sc = (if near then j.penalty.(id) else 0.0) +. if layer = 1 then 0.05 else 0.0 in
      if sc < infinity then begin
        let ws = j.ws in
        let nd = ws.dist.(node) +. (if via then g.via_base else 1.0) +. sc in
        let known = if ws.stamp.(ni) = ws.gen then ws.dist.(ni) else infinity in
        if nd < known then begin
          ws.stamp.(ni) <- ws.gen;
          ws.dist.(ni) <- nd;
          ws.prev.(ni) <- node;
          push ws ni
        end
      end
    end
  end

(* Dijkstra for net [id] over the pass grid [g], from every node of
   [sources] to [target]: the path as node indices, source first *)
let search j g ~id ~sources ~target =
  Mixsyn_util.Cancel.guard ();
  let ws = j.ws in
  ws.gen <- ws.gen + 1;
  ws.size <- 0;
  List.iter
    (fun s ->
      ws.stamp.(s) <- ws.gen;
      ws.dist.(s) <- 0.0;
      ws.prev.(s) <- -1;
      push ws s)
    sources;
  let plane = g.nx * g.ny in
  let expansions = ref 0 and found = ref false in
  while (not !found) && ws.size > 0 do
    let d = ws.keys.(0) and node = ws.nodes.(0) in
    pop ws;
    incr expansions;
    if d > ws.dist.(node) then ()
    else if node = target then found := true
    else begin
      let layer = node / plane in
      let rest = node mod plane in
      let y = rest / g.nx and x = rest mod g.nx in
      relax j g ~id node layer (x + 1) y ~via:false;
      relax j g ~id node layer (x - 1) y ~via:false;
      relax j g ~id node layer x (y + 1) ~via:false;
      relax j g ~id node layer x (y - 1) ~via:false;
      relax j g ~id node (1 - layer) x y ~via:true
    end
  done;
  Mixsyn_util.Telemetry.add "router.grid_expansions" !expansions;
  if !found then begin
    let rec trace node acc = if node = -1 then acc else trace ws.prev.(node) (node :: acc) in
    Some (trace target [])
  end
  else None

let prepare config symmetric_pairs cells nets =
  let g = build_grid config cells in
  let nets = Array.of_list nets in
  let net_id = Hashtbl.create 16 in
  Array.iteri (fun i spec -> Hashtbl.replace net_id spec.net i) nets;
  let pin_nodes = Array.make (Array.length nets) [] in
  (* snap each pin to the nearest metal1 node that is free or already owned
     by the same net (pins of distinct nets can sit closer than the pitch) *)
  let assign_pin id gx gy =
    let try_node x y =
      if in_bounds g x y then begin
        let node = index g 0 x y in
        let s = g.state.(node) in
        if s = free_cell || s = obstacle || s = id then begin
          g.state.(node) <- id;
          pin_nodes.(id) <- node :: pin_nodes.(id);
          true
        end
        else false
      end
      else false
    in
    let rec ring r =
      if r > 4 then ()
      else begin
        let hit = ref false in
        for dx = -r to r do
          for dy = -r to r do
            if (not !hit) && max (abs dx) (abs dy) = r then
              if try_node (gx + dx) (gy + dy) then hit := true
          done
        done;
        if not !hit then ring (r + 1)
      end
    in
    ring 0
  in
  List.iter
    (fun (c : Cell.t) ->
      List.iter
        (fun (p : Cell.pin) ->
          match Hashtbl.find_opt net_id p.Cell.pin_net with
          | None -> ()
          | Some id ->
            let x, y = Cell.pin_center p in
            let gx, gy = grid_of g x y in
            assign_pin id gx gy)
        c.Cell.pins)
    cells;
  let axis_x =
    (* the global mirror axis: centroid of all pins of paired nets *)
    let xs = ref [] in
    List.iter
      (fun (a, b) ->
        List.iter
          (fun name ->
            match Hashtbl.find_opt net_id name with
            | None -> ()
            | Some id ->
              List.iter
                (fun node ->
                  let rest = node mod (g.nx * g.ny) in
                  xs := float_of_int (rest mod g.nx) :: !xs)
                pin_nodes.(id))
          [ a; b ])
      symmetric_pairs;
    match !xs with
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  { config;
    base = g;
    nets;
    class_of = Array.map (fun spec -> spec.n_class) nets;
    penalty =
      Array.map
        (fun spec ->
          config.adjacency_penalty
          *. match spec.coupling_budget with Some _ -> 8.0 | None -> 1.0)
        nets;
    pin_nodes;
    symmetric_pairs;
    axis_x;
    ws = workspace (Array.length g.state) }

let route_pass j ~priority ~salt =
  let g = { j.base with state = Array.copy j.base.state } in
  let nets = j.nets and pin_nodes = j.pin_nodes in
  let occupy id path =
    List.iter (fun node -> g.state.(node) <- id) path;
    (* vias: layer changes along the path *)
    let rec vias acc = function
      | a :: (b :: _ as rest) ->
        if a / (g.nx * g.ny) <> b / (g.nx * g.ny) then vias (acc + 1) rest else vias acc rest
      | [ _ ] | [] -> acc
    in
    vias 0 path
  in
  let rects_of_path path =
    let half = 0.5 *. j.config.rules.Rules.min_width Geom.Metal1 in
    List.map
      (fun node ->
        let layer_i = node / (g.nx * g.ny) in
        let rest = node mod (g.nx * g.ny) in
        let y = rest / g.nx and x = rest mod g.nx in
        let wx, wy = world_of g x y in
        let layer = if layer_i = 0 then Geom.Metal1 else Geom.Metal2 in
        Geom.rect layer (wx -. half) (wy -. half) (wx +. half) (wy +. half))
      path
  in
  (* net ordering: sensitive nets first (they get clean tracks), then by pin
     count *)
  let order =
    let ids = Array.to_list (Array.mapi (fun i _ -> i) nets) in
    let rank i =
      (* lower ranks route first: rip-up priority, then sensitivity, then
         pin count; the salt rotates ties so retry passes explore different
         orderings *)
      let prio = if List.mem nets.(i).net priority then 0 else 1 in
      let sens = if j.class_of.(i) = Sensitive then 0 else 1 in
      (prio, sens, (i + salt) mod max 1 (Array.length nets), -List.length pin_nodes.(i))
    in
    List.sort (fun a b -> compare (rank a) (rank b)) ids
  in
  let wires = ref [] and failed = ref [] in
  let symmetric_ok = ref 0 in
  let mirrored_paths : (string, int list) Hashtbl.t = Hashtbl.create 4 in
  (* symmetry: if net is the second of a pair and its partner routed, try the
     mirror image about the partner's pin-centroid axis *)
  let partner_of net =
    List.fold_left
      (fun acc (a, b) -> if b = net then Some a else acc)
      None j.symmetric_pairs
  in
  let mirror_node node =
    let layer = node / (g.nx * g.ny) in
    let rest = node mod (g.nx * g.ny) in
    let y = rest / g.nx and x = rest mod g.nx in
    let mx = int_of_float (Float.round ((2.0 *. j.axis_x) -. float_of_int x)) in
    if in_bounds g mx y then Some (index g layer mx y) else None
  in
  let route_net id =
    let spec = nets.(id) in
    match pin_nodes.(id) with
    | [] | [ _ ] -> () (* nothing to connect *)
    | first :: rest ->
      let try_mirror () =
        match partner_of spec.net with
        | None -> None
        | Some partner_name ->
          (match Hashtbl.find_opt mirrored_paths partner_name with
           | None -> None
           | Some partner_path ->
             let mirrored = List.filter_map mirror_node partner_path in
             if List.length mirrored <> List.length partner_path then None
             else if
               List.for_all
                 (fun node ->
                   let s = g.state.(node) in
                   s = free_cell || s = id)
                 mirrored
             then Some mirrored
             else None)
      in
      (match try_mirror () with
       | Some path ->
         incr symmetric_ok;
         let vias = occupy id path in
         let rects = rects_of_path path in
         let length = float_of_int (List.length path) *. g.pitch in
         wires := { w_net = spec.net; rects; length; vias } :: !wires
       | None ->
         let tree = ref [ first ] in
         let all_path = ref [] in
         let ok = ref true in
         List.iter
           (fun target ->
             if !ok then begin
               match search j g ~id ~sources:!tree ~target with
               | None -> ok := false
               | Some path ->
                 ignore (occupy id path);
                 all_path := path @ !all_path;
                 tree := path @ !tree
             end)
           rest;
         if !ok then begin
           let path = !all_path in
           Hashtbl.replace mirrored_paths spec.net path;
           let vias = occupy id path in
           let rects = rects_of_path path in
           let length = float_of_int (List.length path) *. g.pitch in
           wires := { w_net = spec.net; rects; length; vias } :: !wires
         end
         else failed := spec.net :: !failed)
  in
  List.iter route_net order;
  (* coupling: adjacent same-layer cells of incompatible nets *)
  let coupling_tbl : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  for layer = 0 to 1 do
    for y = 0 to g.ny - 1 do
      for x = 0 to g.nx - 2 do
        let a = g.state.(index g layer x y) and b = g.state.(index g layer (x + 1) y) in
        if a >= 0 && b >= 0 && a <> b then begin
          let key = (min a b, max a b) in
          let prev = try Hashtbl.find coupling_tbl key with Not_found -> 0.0 in
          Hashtbl.replace coupling_tbl key
            (prev +. (Rules.cap_coupling_per_length *. g.pitch))
        end
      done
    done;
    for x = 0 to g.nx - 1 do
      for y = 0 to g.ny - 2 do
        let a = g.state.(index g layer x y) and b = g.state.(index g layer x (y + 1)) in
        if a >= 0 && b >= 0 && a <> b then begin
          let key = (min a b, max a b) in
          let prev = try Hashtbl.find coupling_tbl key with Not_found -> 0.0 in
          Hashtbl.replace coupling_tbl key
            (prev +. (Rules.cap_coupling_per_length *. g.pitch))
        end
      done
    done
  done;
  let coupling =
    Hashtbl.fold (fun (a, b) c acc -> (nets.(a).net, nets.(b).net, c) :: acc) coupling_tbl []
  in
  let wires = !wires in
  { wires;
    failed = !failed;
    total_length = List.fold_left (fun acc w -> acc +. w.length) 0.0 wires;
    total_vias = List.fold_left (fun acc w -> acc + w.vias) 0 wires;
    coupling;
    symmetric_ok = !symmetric_ok }

let coupling_on result net =
  List.fold_left
    (fun acc (a, b, c) -> if a = net || b = net then acc +. c else acc)
    0.0 result.coupling

let route ?(config = default_config) ?(symmetric_pairs = []) ~cells ~nets () =
  let j = prepare config symmetric_pairs cells nets in
  (* rip-up and re-route: nets that failed a pass go first in the next,
     and the tie-break ordering is rotated; keep the best pass seen *)
  let rec attempt k salt priority best =
    let result = route_pass j ~priority ~salt in
    let best =
      match best with
      | Some b when List.length b.failed <= List.length result.failed -> Some b
      | Some _ | None -> Some result
    in
    if result.failed = [] || k = 0 then begin
      let final = Option.get best in
      Mixsyn_util.Telemetry.add "router.failed_nets" (List.length final.failed);
      final
    end
    else begin
      Mixsyn_util.Telemetry.count "router.ripup_passes";
      attempt (k - 1) (salt + 1) (result.failed @ priority) best
    end
  in
  Mixsyn_util.Telemetry.count "router.routes";
  attempt 6 0 [] None
