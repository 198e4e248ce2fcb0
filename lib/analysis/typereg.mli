(** Type-immediacy oracle: is polymorphic comparison harmless on this
    type?

    Built from the type declarations of every scanned unit (keyed by
    canonical path), so abbreviations ([type rank = int]) and
    all-constant variants resolve without rebuilding typing
    environments.  Unknown paths (stdlib [option], [list], [string],
    ...) are conservatively boxed. *)

type verdict =
  | Immediate  (** int-like: polymorphic comparison is fine *)
  | Float  (** exact float comparison — rule A4 territory *)
  | Boxed of string  (** boxed structural comparison (descriptor) — A1 *)
  | Polymorphic
      (** never instantiated: an alias like [let equal = (=)] — A1 *)

type t

val build : Unit_info.t list -> t
val classify : ?depth:int -> t -> Types.type_expr -> verdict
