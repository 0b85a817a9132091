(* Order statistics matching Python's statistics module, so the figures
   this benchmark prints agree with any script recomputing them. *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* statistics.quantiles(xs, n=4), default 'exclusive' method *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld < 2 then (nan, nan, nan)
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* nearest-rank percentile, p in [0, 100] *)
let percentile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
