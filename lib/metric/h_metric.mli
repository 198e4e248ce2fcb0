(** The security metric of Section 4.1.

    [H_{M,D}(S)] is the average, over attackers [m] in [M] and destinations
    [d] in [D], of the fraction of source ASes that choose a legitimate
    route to [d] rather than a bogus route through [m].  Because the
    tiebreak step is intradomain and unknown, every quantity comes as a
    lower and an upper bound (Section 4.1): the lower bound assumes an AS
    facing equally-good legitimate and bogus routes picks the bogus one,
    the upper bound the opposite. *)

type bounds = { lb : float; ub : float }

val bounds_improvement : bounds -> bounds -> bounds
(** [bounds_improvement after before] compares like with like — the
    pessimistic-tiebreak worlds and the optimistic-tiebreak worlds:
    [{ lb = after.lb -. before.lb; ub = after.ub -. before.ub }].  This is
    how the paper's Figures 7-12 report changes in the metric. *)

type counts = { happy_lb : int; happy_ub : int; sources : int }

val happy : Routing.Outcome.t -> counts
(** Happy-source counts over all sources (every AS except the destination
    and the attacker). *)

val to_bounds : counts -> bounds

type pair = { attacker : int; dst : int }

val pairs :
  ?rng:Rng.t ->
  ?max_pairs:int ->
  attackers:int array ->
  dsts:int array ->
  unit ->
  pair array
(** The full cross product [attackers x dsts] minus the diagonal, or a
    uniform sample of [max_pairs] of them when the product exceeds
    [max_pairs] ([rng] required in that case). *)

val pair_bounds :
  ?ws:Routing.Engine.Workspace.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  pair ->
  bounds
(** Happy-source bounds of a single (attacker, destination) pair — one
    stable-state computation.  This is the per-pair quantity {!h_metric}
    averages and the unit the incremental machinery caches and checks. *)

(** Concurrent memo cache of per-pair {!bounds}, keyed by
    policy x (topology, deployment) version x pair.  Versions are
    interned by content within a topology ({!Topology.Graph.version} +
    {!Deployment.fingerprint} + {!Deployment.equal}), so structurally
    equal deployments on the same graph share entries, and two graphs —
    including a graph and its {!Topology.Graph.Delta.apply} successor —
    can never serve each other's values.  Safe to share across
    {!Parallel.Pool} worker domains (sharded, per-shard mutexes).

    Keys are {e normalized}: when the pair's destination does not sign its
    origin under the keyed deployment, no announcement in the stable state
    is ever secure, so the outcome is independent of both the security
    model and the deployment (but {e not} of the topology).  All such
    entries collapse onto one reserved slot per local-preference variant
    and graph — [H(emptyset)] baselines are shared across the three
    models, and unsigned destinations are shared across every deployment
    of a rollout. *)
module Cache : sig
  type t

  val create : ?shards:int -> unit -> t

  val intern : t -> Topology.Graph.t -> Deployment.t -> int
  (** Stable small-int version of a deployment's content on this graph. *)

  val carry :
    t ->
    Routing.Policy.t ->
    Topology.Graph.t ->
    Routing.Incremental.t ->
    old_dep:Deployment.t ->
    new_dep:Deployment.t ->
    attackers:int array ->
    dsts:int array ->
    int
  (** [carry t policy g cone ~old_dep ~new_dep ~attackers ~dsts]
      republishes, under [new_dep]'s version, the cached bounds of every
      (attacker, dst) pair the dirty [cone] proves unchanged by the
      [old_dep -> new_dep] delta.  [cone] must have been computed for that
      delta, on graph [g], with a destination set covering [dsts].  Pairs
      with no cached entry under [old_dep] are skipped.  Returns the
      number of entries carried.  The production caller is the Max-k
      optimizer's CELF re-score: it republishes the cached bounds along
      each candidate's chain from the deployment it was last scored
      against, so the evaluator hits on the clean pairs. *)

  val length : t -> int
  val hits : t -> int
  val misses : t -> int
end

val batch_plan : pair array -> (int * int array * int array) array
(** Group pairs by destination (first-seen input order, deterministic)
    and chunk each destination's attacker list into words of at most
    {!Routing.Batch.max_lanes} lanes.  Each item is
    [(dst, attackers, positions)] where [positions] indexes the input
    array ([attackers.(l)] is [pairs.(positions.(l)).attacker]).
    Every input position appears in exactly one item. *)

val h_metric :
  ?pool:Parallel.Pool.t ->
  ?domains:int ->
  ?cache:Cache.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  pair array ->
  bounds
(** [H_{M,D}(S)] estimated over the given attacker-destination pairs.
    Pairs sharing a destination are solved together by the
    destination-major batched kernel — one routing-tree drain per
    {!Routing.Batch.max_lanes} attackers — with per-lane counts folded
    straight off the packed lane groups.  [pool] fans the words out over
    a persistent worker pool; otherwise [domains > 1] borrows the default
    pool (the words are independent and the graph is read-only).  Every
    domain reuses its private {!Routing.Batch.Workspace}, and the
    per-pair results are reduced in input order, so the value is
    bit-identical whatever the parallelism.

    [cache] memoizes per-pair bounds across calls (hits skip the engine
    entirely); the cache must belong to this graph. *)

val h_metric_per_dst :
  ?pool:Parallel.Pool.t ->
  ?cache:Cache.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  attackers:int array ->
  dst:int ->
  bounds
(** [H_{M,d}(S)] for a single destination. *)

(** Incremental evaluation of [H] along a deployment trajectory.

    An evaluator owns a pair set and remembers the per-pair bounds of the
    last deployment it saw.  [eval] on the next deployment computes the
    {!Routing.Incremental} dirty cone of the delta and recomputes {e only}
    the dirty pairs, carrying the remembered bounds for the clean ones.
    Every pair of every [eval] is counted in exactly one of
    [stats.computed], [stats.carried] and [stats.cache_hits].  Results
    are bit-identical to a from-scratch {!h_metric} on every step (same
    input-order reduction, and carried values are sound by
    construction); the [incremental] check pass and the qcheck
    properties enforce this.

    All values are also published to the (shareable) {!Cache}, so sibling
    evaluators over overlapping pair sets reuse each other's work. *)
module Evaluator : sig
  type t

  type stats = {
    computed : int;  (** pairs recomputed with the engine *)
    carried : int;  (** pairs carried clean from the previous step *)
    cache_hits : int;  (** pairs served from the shared cache *)
  }

  val create :
    ?pool:Parallel.Pool.t ->
    ?cache:Cache.t ->
    Topology.Graph.t ->
    Routing.Policy.t ->
    pair array ->
    t
  (** A fresh evaluator (no deployment seen yet).  [pool] parallelizes
      the recomputed pairs; omitted, they run sequentially.  [cache]
      shares memoized bounds with other users; omitted, the evaluator
      creates a private one. *)

  val eval : t -> Deployment.t -> bounds
  (** [H] over the evaluator's pairs at [dep], reusing everything the
      delta from the previously evaluated deployment provably preserves.
      Deployments may arrive in any order (non-monotone deltas just get a
      wider cone), but consecutive similar deployments reuse the most. *)

  val values : t -> bounds array
  (** Per-pair bounds at the last evaluated deployment, in pair order.
      Raises [Invalid_argument] before the first {!eval}. *)

  val stats : t -> stats
  (** Cumulative pair-level counters across all {!eval} calls. *)
end

(** Incremental evaluation of [H] along a {e topology} trajectory — the
    dual of {!Evaluator}: the deployment and pair set stay put while the
    graph takes {!Topology.Graph.Delta} steps (CAIDA monthly-snapshot
    replays, link-failure what-ifs, perturbation sweeps).

    Pairs are grouped destination-major into words of at most
    {!Routing.Batch.max_lanes} attackers, exactly as {!h_metric}'s
    batched path.  Each word retains the frozen group state of its last
    batched solve; {!Replay.step} re-solves only the words the per-word
    influence test ({!Routing.Incremental.Topo.influenced}) cannot prove
    untouched and carries every other word's bounds bit-for-bit.
    Results are bit-identical to a from-scratch {!h_metric} on the
    stepped graph for every step, model and tiebreak — the [topology]
    check pass and the qcheck delta-soundness properties enforce this. *)
module Replay : sig
  type t

  type stats = {
    steps : int;  (** {!step} calls so far *)
    words_solved : int;  (** batched solves run, priming included *)
    lanes_solved : int;
        (** engine evaluations: one lane is one (attacker, dst) stable
            state *)
    lanes_carried : int;  (** lane bounds carried without solving *)
  }

  val create :
    Topology.Graph.t -> Routing.Policy.t -> Deployment.t -> pair array -> t
  (** A fresh replay over the starting graph; no solve happens until
      {!eval}.  Raises [Invalid_argument] when the deployment size
      disagrees with the graph. *)

  val eval : t -> bounds
  (** Prime (or re-prime) every word against the current graph and
      return [H] over the pairs.  Must run before the first {!step}. *)

  val step : t -> Topology.Graph.Delta.t -> bounds
  (** Apply the delta to the current graph (validating it), re-solve the
      dirty words, carry the clean ones, and return [H] on the stepped
      graph.  Raises [Invalid_argument] on an invalid delta or before
      the first {!eval}. *)

  val values : t -> bounds array
  (** Per-pair bounds on the current graph, in pair order.  Raises
      [Invalid_argument] before the first {!eval}. *)

  val graph : t -> Topology.Graph.t
  (** The current graph (the seed, stepped by every applied delta). *)

  val stats : t -> stats
end
