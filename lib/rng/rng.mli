(** Deterministic pseudo-random number generator (splitmix64).

    All synthetic data in this repository is derived from explicit [Rng.t]
    values so that every experiment is reproducible from a single integer
    seed, independently of the OCaml stdlib [Random] implementation. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. *)

val copy : t -> t

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val geometric : t -> p:float -> int
(** Number of failures before the first success, [p] in (0,1]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val weighted_index : t -> float array -> int
(** Index sampled proportionally to the (non-negative, not all zero)
    weights. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] is [k] distinct integers drawn
    uniformly from [0, n); requires [k <= n].  Result is in random order. *)
