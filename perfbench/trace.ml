(* In-memory spans recorded around the benchmark's own calls into the
   program, written out as Chrome trace-event JSON (Perfetto and
   chrome://tracing open it) when the run ends.  Off unless [enable] is
   called, so untraced runs pay one boolean test per span. *)

type span = {
  id : int;
  name : string;
  job : string;
  parent : int;  (* 0: none *)
  tid : int;     (* domain *)
  start : float;
  stop : float;
}

let on = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = Atomic.make 1

(* parent for spans opened on a domain with no open span of its own: the
   batch workers' job spans hang under the Batch.run span this way *)
let fallback_parent = Atomic.make 0
let stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let enable () = on := true
let enabled () = !on

let with_span ?(job = "") name f =
  if not !on then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let st = Domain.DLS.get stack in
    let parent = match st with p :: _ -> p | [] -> Atomic.get fallback_parent in
    Domain.DLS.set stack (id :: st);
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      Domain.DLS.set stack st;
      let s = { id; name; job; parent; tid = (Domain.self () :> int); start; stop } in
      Mutex.lock lock;
      spans := s :: !spans;
      Mutex.unlock lock
    in
    Fun.protect ~finally:finish f
  end

(* A span known only after the fact, such as a serve job that lives across
   many requests: it adopts the parentless spans already recorded for
   [job]. *)
let add_span ~job name ~start ~stop =
  if !on then begin
    let id = Atomic.fetch_and_add next_id 1 in
    Mutex.lock lock;
    spans :=
      { id; name; job; parent = 0; tid = (Domain.self () :> int); start; stop }
      :: List.map (fun s -> if s.job = job && s.parent = 0 then { s with parent = id } else s) !spans;
    Mutex.unlock lock
  end

(* innermost open span on this domain, 0 when none *)
let current () = match Domain.DLS.get stack with p :: _ -> p | [] -> 0

let all () = List.rev !spans

(* length of the union of [intervals] clipped to [lo, hi] *)
let covered lo hi intervals =
  let iv =
    List.sort compare
      (List.filter_map
         (fun (a, b) ->
           let a = Float.max lo a and b = Float.min hi b in
           if b > a then Some (a, b) else None)
         intervals)
  in
  let total, last =
    List.fold_left
      (fun (acc, (ca, cb)) (a, b) ->
        if a > cb then (acc +. (cb -. ca), (a, b)) else (acc, (ca, Float.max cb b)))
      (0.0, (0.0, 0.0))
      iv
  in
  total +. (snd last -. fst last)

(* self time: duration minus the part of it the span's children cover *)
let self_seconds all s =
  let kids = List.filter_map (fun c -> if c.parent = s.id then Some (c.start, c.stop) else None) all in
  (s.stop -. s.start) -. covered s.start s.stop kids

(* (name, calls, total s, self s), by name *)
let summary () =
  let all = all () in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let c, t, st = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0) in
      Hashtbl.replace tbl s.name (c + 1, t +. (s.stop -. s.start), st +. self_seconds all s))
    all;
  List.sort compare (Hashtbl.fold (fun n (c, t, st) acc -> (n, c, t, st) :: acc) tbl [])

let write path =
  let all = all () in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity all in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d,\"job\":%S}}"
        s.name s.tid
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent s.job)
    all;
  output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
