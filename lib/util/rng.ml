(* The splitmix64 state lives unboxed in 8 bytes, read and written in
   place, so a draw allocates nothing: a mutable [int64] field would box
   every new state. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

(* splitmix64 core step: advance by the golden ratio and mix. *)
let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next_int64 t)

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (next_int64 t) land max_int in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  (* 53 significant bits, exactly representable in a float mantissa *)
  v /. 9007199254740992.0 *. bound

let uniform t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let gauss t =
  let rec draw () =
    let u = float t 1.0 in
    if u = 0.0 then draw () else u
  in
  let u1 = draw () and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let gaussian t ~mean ~sigma = mean +. (sigma *. gauss t)

let choice t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
