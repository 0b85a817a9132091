(* Output checks: properties the program's results must have, computed by
   the benchmark itself from the raw outputs.  Each returns the list of
   problems found; [] means the output passed.  They take plain data so the
   tests can hand them deliberately broken outputs. *)

module Json = Mixsyn_util.Json

type bound = At_least of float | At_most of float | Between of float * float

let holds b v =
  match b with
  | At_least x -> v >= x
  | At_most x -> v <= x
  | Between (lo, hi) -> v >= lo && v <= hi

let bound_text = function
  | At_least x -> Printf.sprintf ">= %g" x
  | At_most x -> Printf.sprintf "<= %g" x
  | Between (lo, hi) -> Printf.sprintf "in [%g, %g]" lo hi

(* A result that claims its specs are met must satisfy every bound whose
   metric it reports. *)
let met_claim ~id ~claims_met ~(specs : (string * bound) list) (perf : (string * float) list) =
  if not claims_met then []
  else
    List.filter_map
      (fun (name, b) ->
        match List.assoc_opt name perf with
        | Some v when not (holds b v) ->
          Some (Printf.sprintf "%s: claims met but %s = %g is not %s" id name v (bound_text b))
        | _ -> None)
      specs

(* Every synthesis must report every spec metric it was sized against. *)
let all_specs_met ~id ~(specs : (string * bound) list) (perf : (string * float) list) =
  List.filter_map
    (fun (name, b) ->
      match List.assoc_opt name perf with
      | None -> Some (Printf.sprintf "%s: %s missing" id name)
      | Some v when not (holds b v) ->
        Some (Printf.sprintf "%s: %s = %g is not %s" id name v (bound_text b))
      | Some _ -> None)
    specs

let in_box ~id ~(box : (string * float * float) array) (x : float array) =
  if Array.length box <> Array.length x then
    [ Printf.sprintf "%s: %d parameters for a %d-parameter template" id (Array.length x)
        (Array.length box) ]
  else
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i (name, lo, hi) ->
              if x.(i) >= lo && x.(i) <= hi then []
              else [ Printf.sprintf "%s: %s = %g outside [%g, %g]" id name x.(i) lo hi ])
            box))

type rect = { name : string; x0 : float; y0 : float; x1 : float; y1 : float }

(* Every pair of rectangles that overlap, with the overlap's width and
   height.  Interiors must not intersect; abutting edges are fine.  A
   tolerance of 1 nm keeps rounding in abutment from reading as overlap. *)
let overlaps (rs : rect list) =
  let eps = 1e-9 in
  let arr = Array.of_list rs in
  let out = ref [] in
  Array.iteri
    (fun i a ->
      for j = i + 1 to Array.length arr - 1 do
        let b = arr.(j) in
        if a.x0 < b.x1 -. eps && b.x0 < a.x1 -. eps && a.y0 < b.y1 -. eps && b.y0 < a.y1 -. eps then
          out := (a, b, Float.min a.x1 b.x1 -. Float.max a.x0 b.x0, Float.min a.y1 b.y1 -. Float.max a.y0 b.y0) :: !out
      done)
    arr;
  List.rev !out

let overlap_message ~id (a, b, w, h) = Printf.sprintf "%s: %s overlaps %s by %.3g x %.3g" id a.name b.name w h

let no_overlap ~id rs = List.map (overlap_message ~id) (overlaps rs)

(* ---- journals ---------------------------------------------------------- *)

(* exactly one record per expected id, in the expected order *)
let one_per_id_in_order ~what ~(expected : string list) (got : string list) =
  if expected = got then []
  else
    let missing = List.filter (fun id -> not (List.mem id got)) expected in
    let extra = List.filter (fun id -> not (List.mem id expected)) got in
    let dups =
      List.filter (fun id -> List.length (List.filter (( = ) id) got) > 1) (List.sort_uniq compare got)
    in
    [ Printf.sprintf "%s: %d records for %d ids (missing [%s], unexpected [%s], duplicated [%s]%s)"
        what (List.length got) (List.length expected) (String.concat " " missing)
        (String.concat " " extra) (String.concat " " dups)
        (if missing = [] && extra = [] && dups = [] then ", order differs" else "") ]

(* a record's JSON with its id blanked: what two identical-input jobs must
   share byte for byte *)
let without_id (j : Json.t) =
  match j with
  | Json.Obj fields -> Json.to_string (Json.Obj (List.remove_assoc "id" fields))
  | other -> Json.to_string other

let identical_pairs ~(pairs : (string * string) list) (records : (string * Json.t) list) =
  List.filter_map
    (fun (a, b) ->
      match (List.assoc_opt a records, List.assoc_opt b records) with
      | Some ra, Some rb ->
        if without_id ra = without_id rb then None
        else Some (Printf.sprintf "%s and %s have identical inputs but different records" a b)
      | _ -> Some (Printf.sprintf "%s/%s: record missing for an identical-input pair" a b))
    pairs

(* Refusals: exactly the jobs built to be infeasible are refused, and each
   refusal's certified range lies wholly below the gain bound it refuses
   (every infeasible job is built with one unreachable at-least bound). *)
let refusals ~(expected : (string * float) list) (records : (string * Json.t) list) =
  let status r = Option.bind (Json.member "status" r) Json.to_str in
  let refused = List.filter (fun (_, r) -> status r = Some "infeasible") records in
  let wrong =
    List.filter_map
      (fun (id, _) ->
        if List.mem_assoc id expected then None
        else Some (Printf.sprintf "%s: refused as infeasible but was built feasible" id))
      refused
  in
  let checked =
    List.filter_map
      (fun (id, bound) ->
        match List.assoc_opt id refused with
        | None -> Some (Printf.sprintf "%s: built infeasible but not refused" id)
        | Some r ->
          let num k = Option.bind (Json.member k r) Json.to_float in
          (match (num "certified_lo", num "certified_hi") with
           | Some lo, Some h when lo <= h && h < bound -> None
           | Some lo, Some h ->
             Some
               (Printf.sprintf "%s: certified range [%g, %g] does not exclude its bound %g" id lo h
                  bound)
           | _ -> Some (Printf.sprintf "%s: refusal carries no certified range" id)))
      expected
  in
  wrong @ checked

(* Completed records that claim their post-layout specs met satisfy them. *)
let record_met_claims ~(specs_of : string -> (string * bound) list) (records : (string * Json.t) list) =
  List.concat_map
    (fun (id, r) ->
      match Option.bind (Json.member "status" r) Json.to_str with
      | Some "completed" ->
        let res = Option.value (Json.member "result" r) ~default:Json.Null in
        let claims_met = Option.value (Option.bind (Json.member "meets" res) Json.to_bool) ~default:false in
        let perf =
          match Option.bind (Json.member "post_layout" res) Json.to_obj with
          | Some kv -> List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v)) kv
          | None -> []
        in
        met_claim ~id ~claims_met ~specs:(specs_of id) perf
      | _ -> [])
    records
