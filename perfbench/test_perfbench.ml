(* The benchmark's own tests: its inputs are a pure function of the seed,
   and every output check rejects a hand-made bad output. *)

open Perfbench
module Json = Mixsyn_util.Json

let schedule_text (s : Gen.schedule) =
  String.concat ";"
    (Array.to_list (Array.map (fun (t, j) -> Printf.sprintf "%h %s" t (Gen.manifest_line j)) s.Gen.submits)
    @ Array.to_list (Array.map (fun (t, id) -> Printf.sprintf "%h %s" t id) s.Gen.resubmits))

let detector_text js =
  String.concat ";"
    (Array.to_list (Array.map (fun (j : Gen.detector_job) -> Printf.sprintf "%s %d %d" j.Gen.d_id j.Gen.det_seed j.Gen.fp_seed) js))

let inputs seed =
  [ Gen.manifest (Gen.flow_jobs seed);
    Gen.manifest (Gen.batch_jobs seed);
    schedule_text (Gen.serve_schedule seed);
    detector_text (Gen.detector_jobs seed) ]

let test_same_seed () =
  List.iter
    (fun seed -> Alcotest.(check (list string)) "byte-identical inputs" (inputs seed) (inputs seed))
    [ 1; 2; 12345 ]

let test_different_seeds () =
  List.iter2
    (fun a b -> Alcotest.(check bool) "inputs differ" true (a <> b))
    (inputs 1) (inputs 2)

let count role jobs = Array.fold_left (fun n j -> if j.Gen.role = role then n + 1 else n) 0 jobs

let test_batch_shape () =
  List.iter
    (fun seed ->
      let jobs = Gen.batch_jobs seed in
      let n = Array.length jobs in
      Alcotest.(check int) "16 jobs" 16 n;
      Alcotest.(check int) "an eighth infeasible" 2 (count Gen.Infeasible jobs);
      Alcotest.(check int) "one fault probe" 1 (count Gen.Fault_probe jobs);
      let repeats =
        Array.to_list (Array.mapi (fun i j -> (i, j)) jobs)
        |> List.filter_map (fun (i, j) -> match j.Gen.role with Gen.Repeat src -> Some (i, src, j) | _ -> None)
      in
      Alcotest.(check int) "a quarter repeat" 4 (List.length repeats);
      List.iter
        (fun (i, src, j) ->
          let k = ref (-1) in
          Array.iteri (fun x s -> if s.Gen.id = src then k := x) jobs;
          Alcotest.(check bool) "repeat follows its original" true (!k >= 0 && !k < i);
          Alcotest.(check bool) "same problem" true (jobs.(!k).Gen.problem = j.Gen.problem))
        repeats;
      match Mixsyn_flow.Batch.manifest_of_string (Gen.manifest jobs) with
      | Ok parsed -> Alcotest.(check int) "manifest parses" n (List.length parsed)
      | Error e -> Alcotest.fail e)
    [ 1; 7; 99 ]

(* every seed runs the same problems, both fault probes among them *)
let test_flow_shape () =
  let problems seed = List.sort compare (Array.to_list (Array.map (fun j -> j.Gen.problem) (Gen.flow_jobs seed))) in
  List.iter
    (fun seed ->
      let jobs = Gen.flow_jobs seed in
      Alcotest.(check int) "6 jobs" 6 (Array.length jobs);
      Alcotest.(check int) "two fault probes" 2 (count Gen.Fault_probe jobs);
      Alcotest.(check bool) "same problems" true (problems seed = problems 1))
    [ 2; 7; 99 ]

let test_serve_schedule () =
  let s = Gen.serve_schedule 3 in
  let times = Array.to_list (Array.map fst s.Gen.submits) in
  Alcotest.(check bool) "sends in time order" true (List.sort compare times = times);
  let last = List.fold_left Float.max 0.0 times in
  Array.iter
    (fun (t, id) ->
      Alcotest.(check bool) "resubmits come after the last submit" true (t > last);
      Alcotest.(check bool) "resubmits name a submitted id" true
        (Array.exists (fun (_, j) -> j.Gen.id = id) s.Gen.submits))
    s.Gen.resubmits

(* ---- checks against hand-made bad outputs ---- *)

let flags name problems = Alcotest.(check bool) name true (problems <> [])
let passes name problems = Alcotest.(check (list string)) name [] problems

let specs = [ ("gain_db", Check.At_least 60.0); ("ugf_hz", Check.At_least 1e7) ]

let test_met_claim () =
  passes "met and true" (Check.met_claim ~id:"a" ~claims_met:true ~specs [ ("gain_db", 61.0); ("ugf_hz", 2e7) ]);
  flags "claims met with ugf violated"
    (Check.met_claim ~id:"a" ~claims_met:true ~specs [ ("gain_db", 61.0); ("ugf_hz", 9e6) ]);
  passes "no claim, no check" (Check.met_claim ~id:"a" ~claims_met:false ~specs [ ("gain_db", 1.0) ]);
  flags "Table 1 spec missed" (Check.all_specs_met ~id:"d" ~specs:[ ("swing_v", Check.At_least 1.0) ] [ ("swing_v", 0.9) ]);
  flags "outside the template box" (Check.in_box ~id:"b" ~box:[| ("w", 1.0, 2.0) |] [| 2.5 |])

let test_journal_order () =
  let expected = [ "a"; "b"; "c" ] in
  passes "in order" (Check.one_per_id_in_order ~what:"j" ~expected [ "a"; "b"; "c" ]);
  flags "missing record" (Check.one_per_id_in_order ~what:"j" ~expected [ "a"; "c" ]);
  flags "reordered records" (Check.one_per_id_in_order ~what:"j" ~expected [ "a"; "c"; "b" ]);
  flags "duplicated record" (Check.one_per_id_in_order ~what:"j" ~expected [ "a"; "b"; "b"; "c" ])

let record id cost =
  Json.Obj
    [ ("id", Json.Str id); ("seed", Json.Num 5.0); ("attempts", Json.Num 1.0);
      ("status", Json.Str "completed"); ("result", Json.Obj [ ("cost", Json.Num cost) ]) ]

let test_identical_pairs () =
  passes "same apart from id" (Check.identical_pairs ~pairs:[ ("a", "b") ] [ ("a", record "a" 1.0); ("b", record "b" 1.0) ]);
  flags "different payloads" (Check.identical_pairs ~pairs:[ ("a", "b") ] [ ("a", record "a" 1.0); ("b", record "b" 1.5) ])

let refusal id lo hi =
  Json.Obj
    [ ("id", Json.Str id); ("seed", Json.Num 1.0); ("attempts", Json.Num 0.0);
      ("status", Json.Str "infeasible"); ("spec", Json.Str "gain_db"); ("bound", Json.Str "at least 1000");
      ("certified_lo", Json.Num lo); ("certified_hi", Json.Num hi) ]

let test_refusals () =
  passes "range excludes bound" (Check.refusals ~expected:[ ("x", 1000.0) ] [ ("x", refusal "x" 10.0 90.0) ]);
  flags "range contains bound" (Check.refusals ~expected:[ ("x", 1000.0) ] [ ("x", refusal "x" 10.0 1500.0) ]);
  flags "infeasible job not refused" (Check.refusals ~expected:[ ("x", 1000.0) ] [ ("x", record "x" 1.0) ]);
  flags "feasible job refused" (Check.refusals ~expected:[] [ ("y", refusal "y" 10.0 90.0) ])

let test_record_met_claims () =
  let rec_ meets ugf =
    Json.Obj
      [ ("id", Json.Str "r"); ("status", Json.Str "completed");
        ( "result",
          Json.Obj
            [ ("meets", Json.Bool meets);
              ("post_layout", Json.Obj [ ("gain_db", Json.Num 70.0); ("ugf_hz", Json.Num ugf) ]) ] ) ]
  in
  let specs_of _ = specs in
  passes "claim holds" (Check.record_met_claims ~specs_of [ ("r", rec_ true 2e7) ]);
  flags "claim broken" (Check.record_met_claims ~specs_of [ ("r", rec_ true 5e6) ])

let rect name x0 y0 x1 y1 = { Check.name; x0; y0; x1; y1 }

let test_overlap () =
  passes "abutting cells" (Check.no_overlap ~id:"p" [ rect "a" 0. 0. 1e-6 1e-6; rect "b" 1e-6 0. 2e-6 1e-6 ]);
  flags "overlapping cells" (Check.no_overlap ~id:"p" [ rect "a" 0. 0. 2e-6 2e-6; rect "b" 1e-6 1e-6 3e-6 3e-6 ]);
  flags "overlapping blocks" (Check.no_overlap ~id:"f" [ rect "dsp" 0. 0. 1e-3 1e-3; rect "pll" 5e-4 0. 2e-3 1e-3 ]);
  (* the pair names a failed flow job's tally line *)
  match Check.overlaps [ rect "stack2" 0. 0. 2e-6 2e-6; rect "gap" 5e-6 0. 6e-6 1e-6; rect "cl" 1e-6 1e-6 3e-6 3e-6 ] with
  | [ (a, b, w, h) ] ->
    Alcotest.(check (pair string string)) "pair" ("stack2", "cl") (a.Check.name, b.Check.name);
    Alcotest.(check (pair (float 1e-12) (float 1e-12))) "extent" (1e-6, 1e-6) (w, h)
  | ovs -> Alcotest.failf "want one overlapping pair, got %d" (List.length ovs)

(* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
let test_quartiles () =
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "python quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  Alcotest.(check (float 1e-12)) "median" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check (float 1e-12)) "geomean" 10.0 (Stats.geomean [ 1.0; 100.0 ])

let test_self_time () =
  let s id parent start stop = { Trace.id; name = "s"; job = ""; parent; tid = 0; start; stop } in
  let root = s 1 0 0.0 10.0 in
  let all = [ root; s 2 1 1.0 4.0; s 3 1 3.0 6.0; s 4 1 8.0 12.0 ] in
  Alcotest.(check (float 1e-12)) "self = duration - covered" 3.0 (Trace.self_seconds all root)

let () =
  Alcotest.run "perfbench"
    [ ( "inputs",
        [ Alcotest.test_case "same seed, same inputs" `Quick test_same_seed;
          Alcotest.test_case "different seeds, different inputs" `Quick test_different_seeds;
          Alcotest.test_case "batch manifest shape" `Quick test_batch_shape;
          Alcotest.test_case "flow job list shape" `Quick test_flow_shape;
          Alcotest.test_case "serve schedule shape" `Quick test_serve_schedule ] );
      ( "checks",
        [ Alcotest.test_case "met claims" `Quick test_met_claim;
          Alcotest.test_case "journal one record per id in order" `Quick test_journal_order;
          Alcotest.test_case "identical-input pairs" `Quick test_identical_pairs;
          Alcotest.test_case "refusals exclude their bound" `Quick test_refusals;
          Alcotest.test_case "journal met claims" `Quick test_record_met_claims;
          Alcotest.test_case "cell and block overlap" `Quick test_overlap ] );
      ( "stats",
        [ Alcotest.test_case "quartiles like python" `Quick test_quartiles;
          Alcotest.test_case "span self time" `Quick test_self_time ] ) ]
