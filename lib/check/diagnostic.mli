(** The shared currency of the static-verification layer.

    Every pass ({!Erc}, {!Drc}, {!Audit}) reports findings as a flat list of
    diagnostics; severity decides what gates the flow ([Error] fails,
    [Warning] is counted, [Info] is narrative).  Rule identifiers are
    dot-separated and stable (["erc.floating-gate"], ["drc.min-spacing"],
    ["audit.symmetry-broken"]) so they can be suppressed, counted and
    asserted on by name. *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  rule : string;  (** stable dotted identifier, e.g. ["erc.dangling-net"] *)
  loc : string;   (** where: element, net, layer+coordinates, pair *)
  msg : string;   (** what and why, human-readable *)
}

val error : rule:string -> loc:string -> string -> t
val warning : rule:string -> loc:string -> string -> t
val info : rule:string -> loc:string -> string -> t

val emitted_rules : unit -> string list
(** Every rule id that has passed through a constructor in this process,
    sorted.  The registry drift test asserts this stays a subset of
    {!Registry.all}; thread-safe. *)

val severity_name : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val compare : t -> t -> int
(** Severity first (errors lead), then rule, then location. *)

val errors : t list -> t list
val warnings : t list -> t list

val count : severity -> t list -> int

val by_rule : t list -> (string * int) list
(** Occurrences per rule id, sorted by rule. *)

val suppress : rules:string list -> t list -> t list
(** Drop [Warning]/[Info] diagnostics whose rule is listed.  Errors are
    never suppressed: a design that needs an error silenced needs fixing. *)

val pp : Format.formatter -> t -> unit
(** One line: [severity[rule] loc: msg]. *)

val render : t list -> string
(** Sorted listing followed by an [N error(s), M warning(s)] summary;
    ["clean: no diagnostics"] for the empty list. *)

val to_json : t list -> string
(** Machine-readable form: a JSON array of
    [{"severity":s,"rule":r,"loc":l,"msg":m}] objects, sorted as
    {!render}, in {!Mixsyn_util.Json}'s canonical compact form. *)
