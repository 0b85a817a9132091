module Rng = Mixsyn_util.Rng

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
  fp_wirelength : float;
  victim_noise : (string * float) list;
}

(* --- substrate coupling model --------------------------------------- *)

let coupling_constant = 0.12 (* V per A at zero distance, empirical scale *)
let coupling_d0 = 0.3e-3     (* m: softening distance *)

(* --- slicing tree / Polish expression ------------------------------- *)

(* An annealing state is one int array: the 2n-1 tokens of a postfix
   (Polish) expression, where a token [i >= 0] is block [i] and [h_cut] /
   [v_cut] are the cuts, then the n blocks' rotations (1 rotated, 0 not). *)
let h_cut = -1
let v_cut = -2

(* [Float.max] and [Float.min] on operands that are never NaN or -0.0, as
   block sizes and centres are not: the same results, without the C calls
   [Float.sign_bit] makes in every one of theirs *)
let[@inline] fmax (a : float) b = if b > a then b else a
let[@inline] fmin (a : float) b = if b < a then b else a

(* The flat evaluator of one [floorplan] call: every buffer a cost
   evaluation writes, allocated once.  Arrays indexed by token describe
   the sub-floorplan that token closes; arrays indexed by net hold the
   nets of [blocks], interned once. *)
type evaluator = {
  blocks : Block.t array;
  injection : Float.Array.t;  (* per block: its peak switching current *)
  block_nets : int array array;  (* per block: its net ids, in [Block.nets] order *)
  net_names : string array;
  w : Float.Array.t;  (* per token: the sub-floorplan's width and height *)
  h : Float.Array.t;
  x : Float.Array.t;  (* per token: the sub-floorplan's lower-left corner *)
  y : Float.Array.t;
  first : int array;  (* per cut: the token closing its first operand *)
  stack : int array;  (* the bottom-up pass's finished sub-floorplans *)
  victims : int array;     (* the victims' tokens, in placement order *)
  aggressors : int array;  (* the aggressors' tokens, in placement order *)
  seen : bool array;  (* per net: met in this evaluation *)
  x0 : Float.Array.t; (* per net: the box around its blocks' centres *)
  y0 : Float.Array.t;
  x1 : Float.Array.t;
  y1 : Float.Array.t;
  sight : (string, int) Hashtbl.t;  (* this evaluation's nets, added on first sight *)
  add_span : string -> int -> unit;  (* adds one net's span to [sums.(0)] *)
  sums : Float.Array.t;  (* the wirelength, then the total victim noise *)
  noise : Float.Array.t; (* per victim block: the noise coupled into it *)
}

let evaluator blocks =
  let n = Array.length blocks and len = (2 * Array.length blocks) - 1 in
  let ids = Hashtbl.create 16 in
  let block_nets =
    Array.map
      (fun b ->
        Array.of_list
          (List.map
             (fun net ->
               match Hashtbl.find_opt ids net with
               | Some id -> id
               | None ->
                 let id = Hashtbl.length ids in
                 Hashtbl.add ids net id;
                 id)
             b.Block.nets))
      blocks
  in
  let nets = Hashtbl.length ids in
  let net_names = Array.make nets "" in
  Hashtbl.iter (fun net id -> net_names.(id) <- net) ids;
  let floats k = Float.Array.make k 0.0 in
  let x0 = floats nets and y0 = floats nets and x1 = floats nets and y1 = floats nets in
  let sums = floats 2 in
  let count kind = Array.fold_left (fun k b -> if kind b then k + 1 else k) 0 blocks in
  let add_span _ id =
    Float.Array.set sums 0
      (Float.Array.get sums 0
      +. (Float.Array.get x1 id -. Float.Array.get x0 id)
      +. (Float.Array.get y1 id -. Float.Array.get y0 id))
  in
  { blocks;
    injection = Float.Array.map_from_array Block.noise_injection blocks;
    block_nets;
    net_names;
    w = floats len;
    h = floats len;
    x = floats len;
    y = floats len;
    first = Array.make len 0;
    stack = Array.make n 0;
    victims = Array.make (count Block.is_victim) 0;
    aggressors = Array.make (count Block.is_aggressor) 0;
    seen = Array.make nets false;
    x0;
    y0;
    x1;
    y1;
    sight = Hashtbl.create 16;
    add_span;
    sums;
    noise = floats n }

(* Evaluate state [s]: cut sizes bottom-up, corners top-down, then the
   wirelength into [sums.(0)] and, when [with_noise], each victim's noise
   into [noise] and their total into [sums.(1)] (else 0). *)
let evaluate ev s ~with_noise =
  let module F = Float.Array in
  let len = Array.length ev.first in
  let sp = ref 0 in
  for p = 0 to len - 1 do
    let t = s.(p) in
    if t >= 0 then begin
      let b = ev.blocks.(t) in
      let rotated = s.(len + t) = 1 in
      F.set ev.w p (if rotated then b.Block.bh else b.Block.bw);
      F.set ev.h p (if rotated then b.Block.bw else b.Block.bh);
      ev.stack.(!sp) <- p;
      incr sp
    end
    else begin
      let l = ev.stack.(!sp - 2) and r = ev.stack.(!sp - 1) in
      if t = h_cut then begin
        (* the second operand stacked on top of the first *)
        F.set ev.w p (fmax (F.get ev.w l) (F.get ev.w r));
        F.set ev.h p (F.get ev.h l +. F.get ev.h r)
      end
      else begin
        F.set ev.w p (F.get ev.w l +. F.get ev.w r);
        F.set ev.h p (fmax (F.get ev.h l) (F.get ev.h r))
      end;
      ev.first.(p) <- l;
      decr sp;
      ev.stack.(!sp - 1) <- p
    end
  done;
  (* corners top-down: walking the postfix backwards meets each cut before
     its operands, and the second operand closes just before the cut *)
  F.set ev.x (len - 1) 0.0;
  F.set ev.y (len - 1) 0.0;
  for p = len - 1 downto 0 do
    let t = s.(p) in
    if t < 0 then begin
      let l = ev.first.(p) and r = p - 1 in
      let x = F.get ev.x p and y = F.get ev.y p in
      F.set ev.x l x;
      F.set ev.y l y;
      if t = h_cut then begin
        F.set ev.x r x;
        F.set ev.y r (y +. F.get ev.h l)
      end
      else begin
        F.set ev.x r (x +. F.get ev.w l);
        F.set ev.y r y
      end
    end
  done;
  (* HPWL over block centres, by unrotated size.  Float addition does not
     associate, so the order of the nets' sum is part of its bits: it is
     the order [Hashtbl.iter] visits a [Hashtbl.create 16] that met the
     nets in placement order.  Clearing [sight] keeps its bucket count,
     which every evaluation grows to the same size as a fresh table, so
     the order is that one. *)
  Hashtbl.clear ev.sight;
  Array.fill ev.seen 0 (Array.length ev.seen) false;
  let nv = ref 0 and na = ref 0 in
  for p = 0 to len - 1 do
    let i = s.(p) in
    if i >= 0 then begin
      let b = ev.blocks.(i) in
      if Block.is_victim b then begin
        ev.victims.(!nv) <- p;
        incr nv
      end;
      if Block.is_aggressor b then begin
        ev.aggressors.(!na) <- p;
        incr na
      end;
      let cx = F.get ev.x p +. (b.Block.bw /. 2.0)
      and cy = F.get ev.y p +. (b.Block.bh /. 2.0) in
      let nets = ev.block_nets.(i) in
      for m = 0 to Array.length nets - 1 do
        let id = nets.(m) in
        if ev.seen.(id) then begin
          F.set ev.x0 id (fmin (F.get ev.x0 id) cx);
          F.set ev.y0 id (fmin (F.get ev.y0 id) cy);
          F.set ev.x1 id (fmax (F.get ev.x1 id) cx);
          F.set ev.y1 id (fmax (F.get ev.y1 id) cy)
        end
        else begin
          ev.seen.(id) <- true;
          Hashtbl.add ev.sight ev.net_names.(id) id;
          F.set ev.x0 id cx;
          F.set ev.y0 id cy;
          F.set ev.x1 id cx;
          F.set ev.y1 id cy
        end
      done
    end
  done;
  F.set ev.sums 0 0.0;
  Hashtbl.iter ev.add_span ev.sight;
  (* substrate noise: each victim's coupling from the aggressors, in
     placement order, between centres by rotated size *)
  F.set ev.sums 1 0.0;
  if with_noise then
    for a = 0 to Array.length ev.victims - 1 do
      let p = ev.victims.(a) in
      let px = F.get ev.x p +. (F.get ev.w p /. 2.0)
      and py = F.get ev.y p +. (F.get ev.h p /. 2.0) in
      let acc = ref 0.0 in
      for b = 0 to Array.length ev.aggressors - 1 do
        let q = ev.aggressors.(b) in
        let ax = F.get ev.x q +. (F.get ev.w q /. 2.0)
        and ay = F.get ev.y q +. (F.get ev.h q /. 2.0) in
        let d = sqrt (((ax -. px) ** 2.0) +. ((ay -. py) ** 2.0)) in
        acc :=
          !acc +. (coupling_constant *. F.get ev.injection s.(q) /. ((d /. coupling_d0) +. 1.0))
      done;
      F.set ev.noise s.(p) !acc;
      F.set ev.sums 1 (F.get ev.sums 1 +. !acc)
    done

(* position of the [k]-th (from 0) operand token of [s] at or after [p],
   or of the [k]-th cut when [not operand] *)
let rec nth_token s ~operand k p =
  if (s.(p) >= 0) = operand then if k = 0 then p else nth_token s ~operand (k - 1) (p + 1)
  else nth_token s ~operand k (p + 1)

(* every prefix of the [len] tokens has more operands than cuts, and the
   whole expression one more *)
let valid s len =
  let balance = ref 0 and ok = ref true in
  for p = 0 to len - 1 do
    if s.(p) >= 0 then incr balance else decr balance;
    if !balance < 1 then ok := false
  done;
  !ok && !balance = 1

let floorplan ?(seed = 5) ?(noise_weight = 1.0) ?schedule blocks_list =
  let blocks = Array.of_list blocks_list in
  let n = Array.length blocks in
  assert (n >= 2);
  let len = (2 * n) - 1 in
  let rng = Rng.create seed in
  let initial =
    (* chain: b0 b1 V b2 H b3 V ... alternating cuts, nothing rotated *)
    let s = Array.make (len + n) 0 in
    for i = 1 to n - 1 do
      s.((2 * i) - 1) <- i;
      s.(2 * i) <- (if i mod 2 = 0 then h_cut else v_cut)
    done;
    s
  in
  let scale = Array.fold_left (fun acc b -> acc +. (b.Block.bw *. b.Block.bh)) 0.0 blocks in
  let ev = evaluator blocks in
  let cost s =
    evaluate ev s ~with_noise:(noise_weight > 0.0);
    let w = Float.Array.get ev.w (len - 1) and h = Float.Array.get ev.h (len - 1) in
    let area = w *. h in
    let wl = Float.Array.get ev.sums 0 and noise = Float.Array.get ev.sums 1 in
    (area /. scale)
    +. (0.15 *. wl /. sqrt scale)
    +. (noise_weight *. noise *. 10.0)
    +. (0.2 *. Float.abs (log (w /. h)))  (* keep the chip roughly square *)
  in
  let neighbor rng ~temp01:_ state =
    let s = Array.copy state in
    let choice = Rng.int rng 4 in
    if choice = 0 then begin
      (* M1: swap two adjacent operands *)
      let i = nth_token s ~operand:true (Rng.int rng (n - 1)) 0 in
      let j = nth_token s ~operand:true 0 (i + 1) in
      let tmp = s.(i) in
      s.(i) <- s.(j);
      s.(j) <- tmp
    end
    else if choice = 1 then begin
      (* M2: complement a cut *)
      let i = nth_token s ~operand:false (Rng.int rng (n - 1)) 0 in
      s.(i) <- (if s.(i) = h_cut then v_cut else h_cut)
    end
    else if choice = 2 then begin
      (* M3: swap adjacent operand/cut when still valid *)
      let i = Rng.int rng (len - 1) in
      let a = s.(i) and b = s.(i + 1) in
      if (a < 0) <> (b < 0) then begin
        s.(i) <- b;
        s.(i + 1) <- a;
        if not (valid s len) then begin
          s.(i) <- a;
          s.(i + 1) <- b
        end
      end
    end
    else begin
      (* rotate a block *)
      let i = Rng.int rng n in
      s.(len + i) <- 1 - s.(len + i)
    end;
    s
  in
  let schedule =
    match schedule with
    | Some s -> s
    | None -> { Mixsyn_opt.Anneal.t_start = 2.0; t_end = 1e-4; cooling = 0.92; moves_per_stage = 80 * n }
  in
  let outcome =
    Mixsyn_opt.Anneal.minimize ~schedule ~rng { Mixsyn_opt.Anneal.initial; cost; neighbor }
  in
  let best = outcome.Mixsyn_opt.Anneal.best in
  evaluate ev best ~with_noise:true;
  let placements = ref [] and victim_noise = ref [] in
  for p = len - 1 downto 0 do
    let i = best.(p) in
    if i >= 0 then begin
      let block = blocks.(i) in
      let x = Float.Array.get ev.x p and y = Float.Array.get ev.y p in
      placements := { block; x; y; rotated = best.(len + i) = 1 } :: !placements;
      if Block.is_victim block then
        victim_noise := (block.Block.b_name, Float.Array.get ev.noise i) :: !victim_noise
    end
  done;
  let w = Float.Array.get ev.w (len - 1) and h = Float.Array.get ev.h (len - 1) in
  { placements = !placements;
    chip_w = w;
    chip_h = h;
    fp_area = w *. h;
    fp_wirelength = Float.Array.get ev.sums 0;
    victim_noise = !victim_noise }

let total_victim_noise r = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 r.victim_noise
