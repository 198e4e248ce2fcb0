(** The doomed / protectable / immune partition of Section 4.3 and
    Appendix E.

    For an attacker-destination pair [(m, d)] and a routing model, every
    source AS falls into one of:

    - {b doomed}: routes through [m] no matter which ASes deploy S*BGP;
    - {b immune}: routes to [d] no matter which ASes deploy S*BGP;
    - {b protectable}: the outcome depends on the deployment;
    - {b unreachable}: no perceivable route to either — it can never be
      happy, so it counts with the doomed when bounding the metric.  (The
      paper's graphs are connected enough that this class is empty; it can
      appear in small synthetic graphs.)

    Method per model:
    - security 3rd: Corollary E.1 — the stable route's class and length
      are deployment-invariant, so the endpoints of the baseline (S = {})
      best-route set decide the class.  This also holds for the LPk
      policy variants (the rank prefix above security is
      deployment-invariant).
    - security 2nd: Corollary E.2 — the stable route's {e local-preference
      class} is deployment-invariant; the AS is classified by which
      endpoints its class-restricted perceivable routes can reach.  For
      LPk policies the classes are length-refined, which we resolve over
      the class-respecting candidate structure (each AS only ever holds
      and exports routes of its own deployment-invariant class bucket).
      Note that under security 2nd, [Protectable] is an
      over-approximation — inherited from the paper's method: a
      class-compatible perceivable route to the destination may pass
      through an AS that never {e chooses} the needed suffix (e.g. a
      transit AS whose customer-class route is always the bogus one), so
      some "protectable" ASes are de-facto doomed.  [Doomed] and
      [Immune] are exact, so the Figure-3 bounds derived from them
      remain valid; our exhaustive tests quantify over every deployment
      on small graphs to check exactly this.
    - security 1st: Observations E.3/E.4 exactly — doomed iff no
      perceivable route to [d] avoids [m]; immune iff no perceivable route
      to [m] avoids [d].  (The paper approximates "everything is
      protectable"; the exact computation differs by a negligible
      fraction, which our reproduction reports.) *)

type cls = Doomed | Protectable | Immune | Unreachable

type counts = {
  doomed : int;
  protectable : int;
  immune : int;
  unreachable : int;
  sources : int;
}

val zero : counts
val add : counts -> counts -> counts

val fractions : counts -> float * float * float
(** (doomed+unreachable, protectable, immune) as fractions of sources. *)

val compute :
  ?ws:Routing.Batch.Workspace.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  attacker:int ->
  dst:int ->
  cls array
(** Per-source classification; the attacker's and destination's own slots
    are [Unreachable] and must be ignored by callers.  LPk policies under
    security 2nd require an acyclic customer-provider hierarchy and raise
    [Failure] otherwise.  [ws] reuses the given kernel workspace for the
    internal baseline computation (see {!Routing.Engine.compute}). *)

val count :
  ?ws:Routing.Batch.Workspace.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  attacker:int ->
  dst:int ->
  counts

val count_by :
  ?ws:Routing.Batch.Workspace.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  attacker:int ->
  dst:int ->
  groups:int ->
  group:(int -> int) ->
  counts array
(** {!count} split by source group: one classification of the pair,
    and entry [i] counts the sources [v] with [group v = i].  Sources
    whose group falls outside [0 .. groups - 1] are left out. *)

val sec3_counts :
  ?pool:Parallel.Pool.t ->
  ?cache:H_metric.Cache.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  H_metric.pair array ->
  counts array
(** Security-3rd {!count} of every pair, in pair order, bit-identical to
    calling {!count} per pair.  The classification reads only the
    endpoints of the attacked state under [S = {}], which is the state
    [H(emptyset)] measures: the counts are {!H_metric.pair_endpoints}
    of that state, batched per destination word and served from (and
    published to) [cache] under the same slot as [H(emptyset)].  Raises
    [Invalid_argument] if the policy's model is not [Security_third]. *)

val counts :
  ?pool:Parallel.Pool.t ->
  ?cache:H_metric.Cache.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  H_metric.pair array ->
  counts array
(** {!count} of every pair, in pair order, bit-identical to calling it
    per pair, for every model; pairs may repeat and mix destinations.

    - Security 1st, and security 2nd under the standard LP: the pairs
      are packed 63 at a time in input order into lane-mask closures
      ({!Routing.Reach.Lanes}), one rooted at each pair's destination
      avoiding its attacker and one the other way round.
    - Security 2nd under LPk: one batched solve of the attacked
      [S = {}] state per destination word gives each lane's buckets for
      the length-mask DP.  With [cache], the word's endpoint counts are
      published to the slot {!sec3_counts} reads, so the security-3rd
      partition of the same pairs and LP is then served from the cache.
    - Security 3rd: {!sec3_counts}.

    [pool] fans the words out; omitted, they run in the caller.  Raises
    [Invalid_argument] when a pair's ids are out of range or equal, and
    [Failure] as {!compute} does for LPk. *)

val counts_by :
  ?pool:Parallel.Pool.t ->
  ?cache:H_metric.Cache.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  H_metric.pair array ->
  groups:int ->
  group:(int -> int) ->
  counts array array
(** {!count_by} of every pair, in pair order, bit-identical to calling
    it per pair: entry [j] splits pair [j]'s sources by group.  Security
    1st/2nd run as in {!counts}; security 3rd walks each destination
    word's groups once (and, with [cache], publishes the word's counts
    like the LPk path).  Raises as {!counts}, and [Invalid_argument]
    when [groups < 0]. *)

val reach_counts :
  ?pool:Parallel.Pool.t -> Topology.Graph.t -> H_metric.pair array -> int array
(** Per pair, in pair order: the sources — every AS but the pair's
    attacker and destination — holding a perceivable route to the
    destination, nothing avoided.  One closure lane per {!H_metric.plan}
    word: per destination, up to 63 attackers.  Raises
    [Invalid_argument] as {!counts}. *)
