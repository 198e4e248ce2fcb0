(** Small numeric helpers used by the experiment harness. *)

val mean : float array -> float
(** Arithmetic mean; 0. on the empty array. *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [0,1], by linear interpolation on the sorted
    copy of [xs].  Raises [Invalid_argument] on an empty array or [q]
    outside [0,1]. *)

val fraction : int -> int -> float
(** [fraction num denom] is [num / denom] as a float; 0. when [denom = 0]. *)

val percent : float -> string
(** Render a fraction in [0,1] as a percentage with one decimal, e.g.
    ["60.3%"]. *)
