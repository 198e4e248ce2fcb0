(** The one checked-in escape hatch for the static rules.

    Line format: [<rule-id> <canonical-symbol> -- <reason>], ['#']
    comments.  The reason is mandatory.  A symbol entry covers
    everything below it; for the taint rule an allowlisted symbol is
    trusted entirely (its primitive uses accepted, traversal cut), so
    entries should stay narrow. *)

type entry = { rule : string; target : string; reason : string; line : int }
type t = { entries : entry list }

val empty : t
val parse_string : string -> (t, string) result
val load : string -> (t, string) result
val find : t -> rule:string -> string -> entry option
