(** Static and dynamic invariant checking for the simulation pipeline
    ([sbgp check]).

    Three passes over a topology (DESIGN.md §8):

    + {b lint} ({!Lint}) — structural well-formedness of the AS graph,
      its tier classification and its IXP augmentation;
    + {b verify} ({!Verify}) — stable states recomputed by the engine
      are re-derived from first principles and checked for optimality,
      export compliance, tiebreak semantics, secure-path containment and
      realizability, plus the paper's Theorem 3.1 / 6.1 assertions;
    + {b kernel} ({!Kernel}) — the packed CSR engine is replayed against
      the preserved pre-change kernel ({!Routing.Reference}) and the
      Appendix-B staged specification, demanding bit-identical outcomes;
    + {b determinism} ({!Determinism}) — the same batch replayed across
      domain counts and workspace-reuse settings must be bit-identical
      to the sequential fresh-buffer baseline;
    + {b incremental} ({!Incremental}) — evaluation along a seeded
      rollout chain through the dirty-cone/caching layer must be
      bit-identical to from-scratch computation at every step;
    + {b optimize} ({!Optimize}) — the CELF lazy greedy of
      {!Optimize.Max_k} is replayed against the naive full-re-eval
      greedy on seeded instances and the Appendix-I set-cover gadget,
      demanding the bit-identical pick sequence and bounds (H is not
      proven submodular, so laziness is gated, not assumed);
    + {b topology} ({!Topo}) — the off-heap CSR is compared against the
      adjacency-table view, binary snapshots must round-trip
      bit-identically (and reject corruption), and topology-delta
      replay through {!Metric.H_metric.Replay} must match from-scratch
      computation at every step of a seeded delta chain;
    + {b alloc} ({!Alloc}, standalone only) — minor-heap allocation per
      pair of the scalar/batched/reference kernels measured against
      recorded budgets, identity-gated, plus a cold-vs-warm probe of
      the shared metric cache (the runtime complement of the static
      ast/hot-alloc and ast/cache-pure rules).

    All diagnostics are structured ({!Diagnostic}): rule id, severity,
    offending ASes, message — the checker reports everything it finds
    rather than failing on the first problem.  {!Mutants} holds the
    suite of deliberately planted bugs that the checker must flag; it
    guards the checker itself against false-negative regressions. *)

module Diagnostic = Diagnostic
module Lint = Lint
module Verify = Verify
module Kernel = Kernel
module Determinism = Determinism
module Incremental = Incremental
module Optimize = Opt_check
module Topo = Topo_check
module Alloc = Alloc_check
module Mutants = Mutants

type options = {
  pairs : int;  (** sampled (destination, attacker) pairs for verify *)
  det_pairs : int;  (** pairs replayed by the determinism pass *)
  inc_pairs : int;  (** pairs compared by the incremental pass *)
  policies : Routing.Policy.t list;  (** security models to verify under *)
  attacker_claim : int;  (** bogus path length of the "m d" announcement *)
  seed : int;  (** sampling seed; same seed, same pairs *)
}

val default_options : options
(** 12 verify pairs, 6 determinism pairs, 6 incremental pairs, all three
    standard security models, claim 1, seed 42. *)

val enabled : unit -> bool
(** [SBGP_CHECK] is set to [1]/[true]/[yes] in the environment — the
    experiment runners consult this to self-audit before running.
    Unset or [0]/[false]/[no] is off; any other value raises
    [Invalid_argument] naming the variable and the value. *)

val run :
  ?options:options ->
  ?tiers:Topology.Tiers.t ->
  ?base:Topology.Graph.t ->
  ?deployments:Deployment.t list ->
  Topology.Graph.t ->
  Diagnostic.report
(** Run every pass on the graph.  [tiers] extends the lint pass with
    Table-1 checks; [base] marks the graph as an IXP augmentation of
    [base] and checks that too; [deployments] overrides the deterministic
    built-in scenarios of the verify pass.  The theorem and determinism
    passes derive their own deployments (a sparse subset of a mixed one,
    as Theorem 6.1 needs).  [Diagnostic.ok] on the result decides
    clean/broken; passes record how many items they covered. *)

val run_incremental :
  ?options:options -> ?pool:Parallel.Pool.t -> Topology.Graph.t ->
  Diagnostic.report
(** Only the incremental pass ([sbgp check --incremental]), optionally
    fanning the evaluator's recomputations over [pool] so the sharded
    cache is exercised under parallelism too. *)

val run_optimize :
  ?options:options -> ?pool:Parallel.Pool.t -> Topology.Graph.t ->
  Diagnostic.report
(** Only the optimize pass ([sbgp check --optimize]): the CELF-vs-naive
    differential gate on the set-cover gadget plus seeded instances on
    the graph, optionally pooling the metric evaluations. *)

val run_kernel : ?options:options -> Topology.Graph.t -> Diagnostic.report
(** Only the kernel pass ([sbgp check --kernel]): the scalar
    differential gate plus the batched-divergence sub-pass, which
    decodes every lane of sampled (destination, attacker-word) batches
    against the reference kernel. *)

val run_topology : ?options:options -> Topology.Graph.t -> Diagnostic.report
(** Only the topology pass ([sbgp check --topology]): delta-patched
    CSR vs rebuilt CSR identity, snapshot round-trip and corruption rejection, and
    delta-replay-vs-scratch bit-identity (uses [inc_pairs] pairs). *)

val run_alloc : ?options:options -> Topology.Graph.t -> Diagnostic.report
(** Only the allocation gate ([sbgp check --alloc]).  Deliberately not
    part of {!run}: the Gc counters are per-domain, so the measured
    loops want a process that has not shared its minor heap with pool
    workers.  Budgets are recorded in [alloc_check.ml]. *)
