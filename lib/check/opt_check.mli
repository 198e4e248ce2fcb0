(** Differential gate for the Max-k optimizer ([sbgp check --optimize]).

    {!Optimize.Max_k.celf} prunes candidate re-scoring with stale
    queued gains — sound only where the H-metric behaves submodularly,
    which is not proven.  This pass runs CELF and the naive
    full-re-eval {!Optimize.Max_k.greedy} side by side and demands the
    {e bit-identical} pick sequence and per-step bounds: on seeded
    random instances over the given graph, and on the deterministic
    Appendix-I set-cover gadget (where coverage is submodular and
    identity is a theorem, so the gadget also backstops the two CELF
    mutants).  Divergences surface as [opt/divergence] errors. *)

val compare_results :
  label:string ->
  Optimize.Max_k.result ->
  Optimize.Max_k.result ->
  Diagnostic.t list
(** [compare_results ~label naive celf] — baseline bounds, achieved
    pick counts, and every common step's pick and bounds must agree
    bitwise.  The qcheck suite in test/test_optimize.ml reuses this as
    its identity gate. *)

val gadget :
  ?fault:Optimize.Max_k.fault -> unit -> int * Diagnostic.t list
(** The deterministic set-cover instance (universe 10, three sets with
    nested/disjoint overlaps) whose second round separates a correct
    CELF from one that trusts stale gains, and whose first round
    separates it from one with a flipped queue priority. *)

val analyze :
  ?pool:Parallel.Pool.t ->
  ?fault:Optimize.Max_k.fault ->
  ?instances:int ->
  seed:int ->
  Topology.Graph.t ->
  Routing.Policy.t list ->
  int * Diagnostic.t list
(** The full pass: the gadget plus [instances] (default 2) seeded
    random instances on [g] — sampled destinations get Simplex in the
    base deployment (so securing transit ASes can matter), sampled
    candidates exclude the pair ASes, k = 3, alternating [`Lb]/[`Ub]
    objectives, every policy in [policies].  Graphs with fewer than 8
    ASes run the gadget only. *)
