type severity = Error | Warning | Info

type t = {
  severity : severity;
  rule : string;
  loc : string;
  msg : string;
}

(* every rule id that passes through a constructor, process-wide: the
   registry drift test asserts this set stays inside [Registry.all].
   Mutex-protected because batch jobs construct diagnostics from worker
   domains. *)
let emitted_tbl : (string, unit) Hashtbl.t = Hashtbl.create 64
let emitted_lock = Mutex.create ()

let note_rule rule =
  Mutex.lock emitted_lock;
  Hashtbl.replace emitted_tbl rule ();
  Mutex.unlock emitted_lock

let emitted_rules () =
  Mutex.lock emitted_lock;
  let rules = Hashtbl.fold (fun r () acc -> r :: acc) emitted_tbl [] in
  Mutex.unlock emitted_lock;
  List.sort Stdlib.compare rules

let error ~rule ~loc msg = note_rule rule; { severity = Error; rule; loc; msg }
let warning ~rule ~loc msg = note_rule rule; { severity = Warning; rule; loc; msg }
let info ~rule ~loc msg = note_rule rule; { severity = Info; rule; loc; msg }

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  match Stdlib.compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 -> (match Stdlib.compare a.rule b.rule with 0 -> Stdlib.compare a.loc b.loc | c -> c)
  | c -> c

let errors ds = List.filter (fun d -> d.severity = Error) ds
let warnings ds = List.filter (fun d -> d.severity = Warning) ds
let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let by_rule ds =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun d -> Hashtbl.replace tbl d.rule (1 + Option.value (Hashtbl.find_opt tbl d.rule) ~default:0))
    ds;
  List.sort Stdlib.compare (Hashtbl.fold (fun r n acc -> (r, n) :: acc) tbl [])

let suppress ~rules ds =
  List.filter (fun d -> d.severity = Error || not (List.mem d.rule rules)) ds

let pp ppf d =
  Format.fprintf ppf "%s[%s] %s: %s" (severity_name d.severity) d.rule d.loc d.msg

let render ds =
  match ds with
  | [] -> "clean: no diagnostics"
  | _ ->
    let ds = List.sort compare ds in
    let buf = Buffer.create 256 in
    List.iter (fun d -> Buffer.add_string buf (Format.asprintf "%a@." pp d)) ds;
    Buffer.add_string buf
      (Printf.sprintf "%d error(s), %d warning(s), %d info" (count Error ds)
         (count Warning ds) (count Info ds));
    Buffer.contents buf

let to_json ds =
  let module J = Mixsyn_util.Json in
  let one d =
    J.Obj
      [ ("severity", J.Str (severity_name d.severity)); ("rule", J.Str d.rule);
        ("loc", J.Str d.loc); ("msg", J.Str d.msg) ]
  in
  J.to_string (J.Arr (List.map one (List.sort compare ds)))
