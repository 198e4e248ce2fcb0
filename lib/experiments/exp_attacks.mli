(** One experiment of the reproduction; see the implementation header for
    what it reproduces and the paper's expectations.  Registered in
    {!Registry.all}. *)

val name : string
(** Stable experiment id (CLI: [sbgp run <name>]). *)

val title : string
val paper : string
(** Where in the paper the reproduced table/figure lives. *)

val avg_happy :
  Context.t ->
  Routing.Policy.t ->
  Deployment.t ->
  origin_auth:bool ->
  Metric.H_metric.pair array ->
  Attacks.strategy ->
  float * float
(** Mean (pessimistic, optimistic) happy-source fraction over a
    non-empty pair set, bit-identical to averaging {!Attacks.simulate}'s
    {!Attacks.happy_fraction} per pair in pair order.  Strategies whose
    announcement enters route selection (an unfiltered prefix hijack,
    every fabricated path) are the {!Metric.H_metric.h_metric} of the
    pairs, read through the context's metric cache with the strategy's
    claimed length. *)

val run : Context.t -> string
(** Execute at the context's scale and render the rows/series the paper
    reports. *)
