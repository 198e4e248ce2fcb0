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

type word = { dst : int; attackers : int array; pos : int array }
(** One batched solve: destination [dst] against [attackers], the
    attackers of the pairs at positions [pos] of the planned array
    ([attackers.(l)] is [pairs.(pos.(l)).attacker]).  Declared before
    {!pair}, so an unannotated [x.dst] still reads a pair's field. *)

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
  ?ws:Routing.Batch.Workspace.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  pair ->
  bounds
(** Happy-source bounds of a single (attacker, destination) pair — one
    stable-state computation.  This is the per-pair quantity {!h_metric}
    averages and the unit the incremental machinery caches and checks. *)

val endpoint_bounds : n:int -> Routing.Batch.endpoints -> bounds
(** Happy-source bounds of a pair on an [n]-AS graph: [lb] counts the
    sources routing to the destination only, [ub] adds the tied ones,
    both as fractions of the [n - 2] sources.  Bit-identical to
    {!pair_bounds} on the same state. *)

(** Concurrent memo cache of per-pair {!Routing.Batch.endpoints}, the
    counts both the metric and the security-3rd partition fold, keyed by
    policy x attacker claim x (topology, deployment) version x pair.
    One entry is one routing state; {!h_metric} derives its bounds on
    read ({!endpoint_bounds}).  Versions are
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
    entries collapse onto one reserved slot per local-preference variant,
    claim and graph — [H(emptyset)] baselines are shared across the three
    models, unsigned destinations across every deployment of a rollout,
    and the security-3rd partition (which reads the [S = {}] state) with
    [H(emptyset)]. *)
module Cache : sig
  type t

  val create : unit -> t

  val carry :
    t ->
    Routing.Policy.t ->
    Topology.Graph.t ->
    Routing.Incremental.t ->
    old_dep:Deployment.t ->
    new_dep:Deployment.t ->
    pair array ->
    int
  (** [carry t policy g cone ~old_dep ~new_dep pairs] republishes, under
      [new_dep]'s version, the cached counts of every pair the dirty
      [cone] proves unchanged by the [old_dep -> new_dep] delta.  [cone]
      must have been computed for that delta, on graph [g], with a
      destination set covering the pairs'.  Pairs with no cached entry
      under [old_dep] are skipped.  Returns the number of entries carried
      (states with the default claim 1 only).  {!Evaluator.eval} carries
      its pairs from the deployment it saw last; the Max-k optimizer's
      CELF re-score carries them along each candidate's chain from the
      deployment it was last scored against. *)

  val length : t -> int
  val hits : t -> int
  val misses : t -> int
end

val plan : pair array -> word array
(** The pairs grouped by destination, in first-seen order, each
    destination's positions ascending and chunked into words of at most
    {!Routing.Batch.max_lanes} lanes, so a destination's words are
    consecutive.  Every position appears in exactly one word. *)

val pair_endpoints :
  ?pool:Parallel.Pool.t ->
  ?domains:int ->
  ?cache:Cache.t ->
  ?attacker_claim:int ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  pair array ->
  Routing.Batch.endpoints array
(** Per-pair {!Routing.Batch.endpoints} of the attacked stable states, in
    pair order.  [cache] memoizes them across calls (the cache must
    belong to this graph): the pairs it holds skip the engine, and the
    rest are solved by {!map_words} (same [pool], [domains] and
    [attacker_claim]) and stored.  [attacker_claim] (default 1, the
    ["m d"] announcement) is the path length the attacker claims, as in
    {!Routing.Batch.compute}.  The batched drain counts every lane as it
    settles, so no per-pair outcome is materialized. *)

val map_words :
  ?pool:Parallel.Pool.t ->
  ?domains:int ->
  ?cache:Cache.t ->
  ?attacker_claim:int ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  pair array ->
  (dst:int -> attackers:int array -> Routing.Batch.t -> 'a array) ->
  'a array
(** The one solver: [map_words g policy dep pairs f] solves the attacked
    states of the pairs one {!plan} word at a time and returns, in pair
    order, the per-lane values [f ~dst ~attackers word] gives ([f] must
    return one value per lane, in lane order; the word is valid only
    during the call).  [attacker_claim] is as in {!pair_endpoints}.
    [pool] fans the words out; otherwise [domains > 1] borrows the
    default pool, and by default they run in the caller.  Every domain
    solves on its private {!Routing.Batch.Workspace}, and the values are
    scattered back by pair position, so they are bit-identical whatever
    the parallelism.  With [cache], every lane's endpoint counts are
    stored under the slot {!pair_endpoints} reads; no lookup is made. *)

val mean : bounds array -> bounds
(** The H metric of per-pair bounds: their mean, summed in array order
    (zero bounds for no pairs). *)

val h_metric :
  ?pool:Parallel.Pool.t ->
  ?domains:int ->
  ?cache:Cache.t ->
  ?attacker_claim:int ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  pair array ->
  bounds
(** [H_{M,D}(S)] estimated over the given attacker-destination pairs:
    the mean, in pair order, of the {!endpoint_bounds} of
    {!pair_endpoints} (same arguments). *)

(** Incremental evaluation of [H] along a deployment trajectory.

    An evaluator owns a pair set, its cache, and the last deployment it
    saw.  [eval] on the next deployment computes the
    {!Routing.Incremental} dirty cone of the delta, {!Cache.carry}s the
    clean pairs to the new deployment, and then reads every pair through
    {!pair_endpoints} with that cache: carried and cached pairs are hits,
    and only the dirty, uncached ones are solved.  Results are
    bit-identical to a from-scratch {!h_metric} on every step (same
    input-order reduction, and carried values are sound by
    construction); the [incremental] check pass and the qcheck
    properties enforce this.  Sibling evaluators sharing the cache reuse
    each other's work. *)
module Evaluator : sig
  type t

  type stats = { computed : int  (** pairs solved with the engine *) }

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

    Pairs are grouped into the words of {!plan}, as {!map_words} solves
    them.  Each word retains the frozen group state of its last
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
