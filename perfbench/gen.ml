(* Seeded input generation for every workload.

   The synthesis problems come from fixed catalogues; the seed decides
   everything around them: job order, ids, which jobs repeat an earlier
   job's sizing inputs, the infeasible bounds, the serve arrival schedule
   and resubmissions, and the assembly floorplan seeds.  Per-job cost and
   design quality differ by up to 4x between spec sets, so a run of a few
   jobs can only be steady from seed to seed when the set of problems is
   the same; what the seed varies is what a scheduler, a cache or a queue
   would react to.  See README.md for how the catalogues were chosen. *)

(* splitmix64, kept here so the inputs never depend on the program's own
   generator *)
type rng = { mutable s : int64 }

let rng seed = { s = Int64.(add (of_int seed) 0x2545F4914F6CDD1DL) }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let int r n = Int64.(to_int (unsigned_rem (next r) (of_int n)))
let unit_float r = Int64.(to_float (shift_right_logical (next r) 11)) /. 9007199254740992.0

let shuffle r a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---- synthesis problems ------------------------------------------------ *)

type problem = {
  topology : string option;  (* None: the flow picks among all four *)
  gain_db : float;
  ugf_hz : float option;
  pm_deg : float option;
  cl_f : float;
  fseed : int;               (* the synthesis seed the job carries *)
}

type role =
  | Fresh                    (* a distinct problem from the catalogue *)
  | Repeat of string         (* same sizing inputs as this earlier id *)
  | Infeasible               (* gain bound no topology can reach *)
  | Fault_probe              (* fixed reproducer of a known fault *)

type job = { id : string; role : role; problem : problem }

let p ?topology ?ugf ?pm gain cl fseed =
  { topology; gain_db = gain; ugf_hz = ugf; pm_deg = pm; cl_f = cl; fseed }

(* flow-interactive: spec sets drawn once from gain 60-80 dB, UGF 5-20 MHz,
   PM 50-65 deg, load 1-5 pF (around the msyn flow default and Fig. 1's
   Miller spec), of near-equal cost (3-7 s each).  11 of the 20 draws that
   completed put the load capacitor on top of a transistor stack at this
   commit; that fault stays in the workload as the one fixed overlap probe
   below, so that every seed fails the same share of jobs, and these four
   are draws that did not overlap (see README.md) *)
let flow_catalogue =
  [| p 69. 1.5e-12 13 ~ugf:13e6 ~pm:57.;
     p 64. 2.5e-12 13 ~ugf:16e6 ~pm:62.;
     p 69. 1e-12 13 ~ugf:20e6 ~pm:60.;
     p 74. 1e-12 13 ~ugf:9e6 ~pm:51. |]

(* msyn flow --gain 80 --ugf 8e6 --pm 60 --seed 11 (load 5 pF): fails
   drc.contact-enclosure on every run at this commit *)
let flow_probe = p 80. 5e-12 11 ~ugf:8e6 ~pm:60.

(* msyn flow --gain 80 --ugf 11e6 --pm 57 --cl 3.5e-12 --seed 13: completes,
   but its finished layout places cell stack2 over cl on every run at this
   commit *)
let overlap_probe = p 80. 3.5e-12 13 ~ugf:11e6 ~pm:57.

(* batch-sweep and serve-openloop: spec sweeps on three templates, kept
   where the flow completes; 0.6-1.8 s each *)
let sweep_catalogue =
  [| p 43. 1e-12 19 ~topology:"ota-5t" ~ugf:4e6 ~pm:50.;
     p 42. 2e-12 19 ~topology:"ota-5t" ~ugf:3e6 ~pm:50.;
     p 40. 5e-13 36 ~topology:"ota-5t" ~ugf:4e6 ~pm:50.;
     p 45. 1e-12 3 ~topology:"ota-5t" ~ugf:6e6;
     p 66. 1e-12 12 ~topology:"miller-ota" ~ugf:12e6 ~pm:54.;
     p 73. 4e-12 26 ~topology:"miller-ota" ~ugf:15e6 ~pm:59.;
     p 63. 2.5e-12 18 ~topology:"miller-ota" ~ugf:10e6 ~pm:51.;
     p 35. 1e-12 33 ~topology:"comparator";
     p 40. 1e-12 35 ~topology:"comparator" |]

(* comp-a of examples/batch_manifest.jsonl: fails drc.contact-enclosure *)
let sweep_probe = p 40. 1e-12 13 ~topology:"comparator"

let sweep_topologies = [| "ota-5t"; "miller-ota"; "comparator" |]

let infeasible_problem r =
  let topology = sweep_topologies.(int r 3) in
  p (float_of_int (1000 + int r 4000)) 1e-12 (1 + int r 50) ~topology

let tag_of seed = Printf.sprintf "s%x" (seed land 0xffffff)

let flow_jobs seed =
  let r = rng seed in
  let tag = tag_of seed in
  let base =
    Array.append
      (Array.mapi (fun i pr -> { id = Printf.sprintf "%s-f%d" tag i; role = Fresh; problem = pr }) flow_catalogue)
      [| { id = tag ^ "-probe"; role = Fault_probe; problem = flow_probe };
         { id = tag ^ "-overlap"; role = Fault_probe; problem = overlap_probe } |]
  in
  shuffle r base

(* A sweep manifest follows a fixed pattern of slots, one per job: a
   catalogue template class, a refusal, the fault probe, or a repeat of the
   job in an earlier slot.  The seed shuffles each class's catalogue
   problems among that class's slots -- so it decides which problem runs
   where and which ones are repeated -- and draws the infeasible bounds.
   Keeping the pattern fixed keeps the work per manifest, and how it packs
   onto two workers, the same from seed to seed; a free choice would let
   one seed repeat three miller-ota jobs and another three comparators. *)
type slot = Class of string | Refusal | Probe | Repeat_of of int

let class_members c =
  Array.of_list (List.filter (fun pr -> pr.topology = Some c) (Array.to_list sweep_catalogue))

let sweep_jobs pattern seed =
  let r = rng seed in
  let tag = tag_of seed in
  let decks = Hashtbl.create 3 in
  Array.iter (fun c -> Hashtbl.replace decks c (ref (Array.to_list (shuffle r (class_members c))))) sweep_topologies;
  let jobs = Array.make (Array.length pattern) { id = ""; role = Fresh; problem = sweep_probe } in
  let n_inf = ref 0 and n_rep = ref 0 in
  Array.iteri
    (fun i slot ->
      jobs.(i) <-
        (match slot with
         | Class c ->
           let deck = Hashtbl.find decks c in
           let pr = List.hd !deck in
           deck := List.tl !deck;
           { id = Printf.sprintf "%s-j%d" tag i; role = Fresh; problem = pr }
         | Refusal ->
           incr n_inf;
           { id = Printf.sprintf "%s-inf%d" tag !n_inf; role = Infeasible; problem = infeasible_problem r }
         | Probe -> { id = tag ^ "-probe"; role = Fault_probe; problem = sweep_probe }
         | Repeat_of k ->
           incr n_rep;
           { id = Printf.sprintf "%s-rep%d" tag !n_rep; role = Repeat jobs.(k).id; problem = jobs.(k).problem }))
    pattern;
  jobs

let o = Class "ota-5t"
let m = Class "miller-ota"
let c = Class "comparator"

(* 16 jobs: the 9 catalogue problems, a quarter repeats, an eighth refusals *)
let batch_pattern =
  [| m; o; c; o; m; Refusal; o; Repeat_of 1; m; Probe; o; Repeat_of 0; c; Refusal; Repeat_of 3; Repeat_of 2 |]

(* 13 jobs: the 9 catalogue problems, 2 repeats, 1 refusal, the probe *)
let serve_pattern = [| m; o; c; o; m; Refusal; o; Repeat_of 1; m; Probe; o; c; Repeat_of 0 |]

let batch_jobs seed = sweep_jobs batch_pattern seed

(* ---- serve schedule ---------------------------------------------------- *)

type schedule = {
  submits : (float * job) array;   (* offset from start, s; in send order *)
  resubmits : (float * string) array;
      (* offset, id: resubmit a job whose result the client has seen *)
}

let serve_rate_per_s = 0.75

(* open loop: one submission per 1/rate seconds with a seeded +-30 %
   jitter, so arrivals never depend on how fast the server answers *)
let serve_schedule seed =
  let jobs = sweep_jobs serve_pattern (seed + 1) in
  let r = rng seed in
  let gap = 1.0 /. serve_rate_per_s in
  let submits =
    Array.mapi
      (fun i j -> ((float_of_int i *. gap) +. ((unit_float r -. 0.5) *. 0.6 *. gap) +. (0.3 *. gap), j))
      jobs
  in
  let n = Array.length jobs in
  let last = fst submits.(n - 1) in
  (* two resubmissions of jobs sent in the first half, after the last submit *)
  let firsts = shuffle r (Array.init (n / 2) Fun.id) in
  let resubmits =
    Array.init 2 (fun k -> (last +. (0.5 *. float_of_int (k + 1)), (snd submits.(firsts.(k))).id))
  in
  { submits; resubmits }

(* ---- detector-assembly ------------------------------------------------- *)

type detector_job = {
  d_id : string;
  det_seed : int;      (* Pulse_detector.synthesize seed *)
  fp_seed : int;       (* Floorplan.floorplan seed *)
}

(* annealing moves per temperature stage: Table 1 uses 40; 5 keeps one job
   near 7 s on 2 cores *)
let detector_moves = 5

(* synthesis seeds that meet every Table 1 spec at [detector_moves] with
   less power than the manual design (8 of 15 seeds tried do), picked with
   near-equal cost: 6.5-7.4 s each *)
let detector_seeds = [| 1; 4; 6; 12 |]

let detector_jobs seed =
  let r = rng seed in
  let tag = tag_of seed in
  shuffle r
    (Array.mapi
       (fun i s -> { d_id = Printf.sprintf "%s-d%d" tag i; det_seed = s; fp_seed = 1 + int r 1000 })
       detector_seeds)

(* ---- manifest lines ---------------------------------------------------- *)

let spec_json name v = Printf.sprintf "{\"name\": %S, \"at_least\": %s}" name (Mixsyn_util.Json.float_repr v)

let manifest_line j =
  let pr = j.problem in
  let specs =
    List.filter_map Fun.id
      [ Some (spec_json "gain_db" pr.gain_db);
        Option.map (spec_json "ugf_hz") pr.ugf_hz;
        Option.map (spec_json "phase_margin_deg") pr.pm_deg ]
  in
  Printf.sprintf
    "{\"id\": %S, \"seed\": %d, \"specs\": [%s], \"objectives\": [{\"minimize\": \"power_w\"}], \
     \"context\": {\"cl\": %s}%s}"
    j.id pr.fseed (String.concat ", " specs) (Mixsyn_util.Json.float_repr pr.cl_f)
    (match pr.topology with Some t -> Printf.sprintf ", \"topology\": %S" t | None -> "")

let manifest jobs = String.concat "" (Array.to_list (Array.map (fun j -> manifest_line j ^ "\n") jobs))
