(** Index of every experiment, used by the CLI and the paper-scale
    benchmark (perfbench/). *)

type entry = {
  id : string;
  title : string;
  paper : string;
  run : Context.t -> string;
}

val all : entry list
(** In presentation order: baseline, Figure 3, Figures 4-6, rollouts,
    per-destination, Figure 13, early adopters, Figure 16, Table 3,
    Appendix K, attacks, extensions, anecdotes. *)

val find : string -> entry option
val ids : unit -> string list
