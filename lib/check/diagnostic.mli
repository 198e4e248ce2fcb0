(** Structured diagnostics for the correctness-tooling passes.

    Every rule a pass can fire has a stable string id (["topo/self-loop"],
    ["route/suboptimal"], ...) so that tests, the mutant suite and CI can
    assert on {e which} invariant broke, not merely that something did.
    Passes accumulate diagnostics instead of failing on the first error:
    a single run of [sbgp check] reports every violated invariant it can
    find. *)

type severity = Error | Warning | Info

type t = {
  rule : string;  (** stable rule id, e.g. ["topo/cp-cycle"] *)
  severity : severity;
  subjects : int list;  (** offending ASes (possibly empty) *)
  message : string;
}

val error : rule:string -> ?subjects:int list -> string -> t
val warning : rule:string -> ?subjects:int list -> string -> t

val to_string : t -> string
(** ["error topo/self-loop [AS 3]: peers table of AS 3 contains itself"] *)

val has_rule : t list -> string -> bool

(** {1 Reports} *)

type report = {
  passes : (string * int) list;
      (** pass name and number of items it examined, in execution order *)
  diags : t list;
}

val empty_report : report
val merge : report -> report -> report
val add_pass : report -> string -> items:int -> t list -> report

val errors : report -> t list
val ok : report -> bool
(** No [Error]-severity diagnostics. *)

val summary : report -> string
(** Multi-line human-readable rendering: one line per pass, one line per
    diagnostic, and a final verdict. *)

(** {1 Rule catalogue} *)

val catalogue : (string * string) list
(** Every rule id the passes can emit, with a one-line description.
    Printed by [sbgp check --rules] and documented in DESIGN.md §8. *)
