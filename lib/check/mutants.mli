(** Mutant suite: deliberately broken inputs with known diagnoses.

    Each mutant plants one specific bug — a malformed topology, a
    corrupted stable state, a violated theorem precondition, a stale
    workspace — and records the rule id the checker must raise for it.
    The suite is the checker's own regression harness: a checker change
    that stops flagging any mutant is a false-negative regression, and
    [sbgp check --mutants] (plus the test suite) runs all of them. *)

type t = {
  name : string;
  expected_rule : string;  (** rule id that must appear in [run]'s output *)
  description : string;
  run : unit -> Diagnostic.t list;  (** build the artifact, run the pass *)
}

val all : t list

val report : unit -> Diagnostic.report
(** One pass entry per mutant class; an [Error] diagnostic (rule
    [check/false-negative]) for every undetected mutant, so a clean
    report means the checker catches the whole suite. *)
