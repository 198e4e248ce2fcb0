(** Plain-text aligned tables for experiment output. *)

type t

val create : header:string list -> t
val add_row : t -> string list -> unit
(** Rows shorter than the header are right-padded with empty cells; longer
    rows raise [Invalid_argument]. *)

val add_separator : t -> unit
val to_string : t -> string
val print : t -> unit
