type t = float array

let trim c =
  let n = ref (Array.length c) in
  while !n > 1 && Float.abs c.(!n - 1) = 0.0 do
    decr n
  done;
  Array.sub c 0 !n

let of_coeffs c = trim (Array.copy c)

let degree c = Array.length c - 1

let eval c x =
  let acc = ref 0.0 in
  for k = Array.length c - 1 downto 0 do
    acc := (!acc *. x) +. c.(k)
  done;
  !acc

let eval_complex c z =
  let acc = ref Complex.zero in
  for k = Array.length c - 1 downto 0 do
    acc := Complex.add (Complex.mul !acc z) { Complex.re = c.(k); im = 0.0 }
  done;
  !acc

let add a b =
  let n = max (Array.length a) (Array.length b) in
  let get c k = if k < Array.length c then c.(k) else 0.0 in
  trim (Array.init n (fun k -> get a k +. get b k))

let scale s c = trim (Array.map (( *. ) s) c)

let sub a b = add a (scale (-1.0) b)

let mul a b =
  let n = Array.length a + Array.length b - 1 in
  let r = Array.make n 0.0 in
  Array.iteri (fun i ai -> Array.iteri (fun j bj -> r.(i + j) <- r.(i + j) +. (ai *. bj)) b) a;
  trim r

let derivative c =
  if Array.length c <= 1 then [| 0.0 |]
  else trim (Array.init (Array.length c - 1) (fun k -> float_of_int (k + 1) *. c.(k + 1)))

(* Durand–Kerner: simultaneous iteration on all roots of the monic polynomial.
   The initial guesses lie on a circle of radius based on the coefficient
   bound, rotated off the real axis so real-rooted polynomials converge.

   The iterates live in unboxed re/im float arrays and every step is
   stdlib [Complex] arithmetic written out on scalars — [sub], [mul], the
   Horner [add (mul acc z) c], Smith's [div] and [norm] as [Float.hypot],
   operand for operand — so the roots are bit-identical to iterating on
   [Complex.t] values while no step allocates.  AWE's Padé fallbacks call
   this at every order they try, so it sits on the evaluator hot path. *)
let roots ?(iterations = 400) c =
  let c = trim c in
  let n = degree c in
  if n <= 0 then [||]
  else begin
    let lead = c.(n) in
    let monic = Array.map (fun x -> x /. lead) c in
    let radius =
      1.0
      +. Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0
           (Array.sub monic 0 n)
    in
    let zre = Array.make n 0.0 and zim = Array.make n 0.0 in
    for k = 0 to n - 1 do
      (* Complex.polar r a *)
      let r = radius *. (0.5 +. (0.5 *. float_of_int (k + 1) /. float_of_int n)) in
      let a = (2.0 *. Float.pi *. float_of_int k /. float_of_int n) +. 0.4 in
      zre.(k) <- cos a *. r;
      zim.(k) <- sin a *. r
    done;
    let step = ref 0 and moving = ref true in
    while !moving && !step < iterations do
      let moved = ref 0.0 in
      for i = 0 to n - 1 do
        let zr = zre.(i) and zi = zim.(i) in
        (* denom = prod_{j <> i} (z_i - z_j), in j order *)
        let dr = ref 1.0 and di = ref 0.0 in
        for j = 0 to n - 1 do
          if j <> i then begin
            let sr = zr -. zre.(j) and si = zi -. zim.(j) in
            let pr = (!dr *. sr) -. (!di *. si) and pi = (!dr *. si) +. (!di *. sr) in
            dr := pr;
            di := pi
          end
        done;
        if Float.hypot !dr !di > 1e-300 then begin
          (* the monic polynomial at z_i, by Horner *)
          let hr = ref 0.0 and hi = ref 0.0 in
          for k = n downto 0 do
            let pr = (!hr *. zr) -. (!hi *. zi) and pi = (!hr *. zi) +. (!hi *. zr) in
            hr := pr +. monic.(k);
            hi := pi +. 0.0
          done;
          (* delta = p(z_i) / denom *)
          let xr = !hr and xi = !hi and yr = !dr and yi = !di in
          let delta_r = ref 0.0 and delta_i = ref 0.0 in
          if abs_float yr >= abs_float yi then begin
            let r = yi /. yr in
            let d = yr +. (r *. yi) in
            delta_r := (xr +. (r *. xi)) /. d;
            delta_i := (xi -. (r *. xr)) /. d
          end
          else begin
            let r = yr /. yi in
            let d = yi +. (r *. yr) in
            delta_r := ((r *. xr) +. xi) /. d;
            delta_i := ((r *. xi) -. xr) /. d
          end;
          zre.(i) <- zr -. !delta_r;
          zim.(i) <- zi -. !delta_i;
          moved := Float.max !moved (Float.hypot !delta_r !delta_i)
        end
      done;
      if !moved > 1e-13 then incr step else moving := false
    done;
    Array.init n (fun k -> { Complex.re = zre.(k); im = zim.(k) })
  end

let from_roots rs =
  let p = ref [| 1.0 |] in
  (* multiply (x - r) factors pairwise; conjugate pairs combine to real
     quadratics, so accumulate in complex then drop the imaginary part. *)
  let cp = ref [| Complex.one |] in
  Array.iter
    (fun r ->
      let old = !cp in
      let n = Array.length old in
      let next = Array.make (n + 1) Complex.zero in
      for k = 0 to n - 1 do
        next.(k + 1) <- Complex.add next.(k + 1) old.(k);
        next.(k) <- Complex.sub next.(k) (Complex.mul r old.(k))
      done;
      cp := next)
    rs;
  p := Array.map (fun z -> z.Complex.re) !cp;
  trim !p

let pp ppf c =
  Array.iteri
    (fun k v ->
      if k = 0 then Format.fprintf ppf "%g" v else Format.fprintf ppf " %+g s^%d" v k)
    c
