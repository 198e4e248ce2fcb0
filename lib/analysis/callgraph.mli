(** Inter-module, value-level call graph over canonical symbols.

    Over-approximates calls (any global reference is an edge), which is
    the safe direction for taint; calls through function values received
    as arguments are invisible and covered by the runtime determinism
    replays instead (DESIGN.md §8). *)

type t

val build : Unit_info.t list -> t

val successors : t -> string -> (string * int) list
(** Deterministic first-seen order; line of the first reference. *)

val source_of : t -> string -> string option

type reach = {
  parent : (string, string option) Hashtbl.t;
  order : string list;
}

val reachable :
  t -> roots:string list -> cut:(string -> bool) -> reach
(** BFS from every defined symbol matching a root spec; [cut] prunes
    trusted (allowlisted) symbols entirely. *)

val chain : reach -> string -> string list
(** Root-to-symbol path for diagnostics. *)
