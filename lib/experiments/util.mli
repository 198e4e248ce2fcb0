(** Shared helpers for experiment modules: formatting, partition
    aggregation, and metric deltas. *)

val pct : float -> string

val pct_bounds : Metric.H_metric.bounds -> string
(** Render an interval ["[lb, ub]"]. *)

val pct_delta : Metric.H_metric.bounds -> string
(** Render a metric improvement as the change in the pessimistic and the
    optimistic tiebreak worlds: ["+x% / +y%"]. *)

val partition_fractions :
  ?pool:Parallel.Pool.t ->
  ?cache:Metric.H_metric.Cache.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Metric.H_metric.pair array ->
  float * float * float
(** Average (doomed, protectable, immune) fractions over the pairs:
    {!partition_fractions_sets} of the one set. *)

val partition_fractions_sets :
  ?pool:Parallel.Pool.t ->
  ?cache:Metric.H_metric.Cache.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Metric.H_metric.pair array array ->
  (float * float * float) array
(** Average (doomed, protectable, immune) fractions over each pair set:
    the per-set fold of one {!Metric.Partition.counts} call (same
    arguments) over all the sets' pairs, so they share words.  The words
    run on [pool]; the security-3rd and LPk security-2nd solves share
    [cache]'s [H(emptyset)] slots. *)

val partition_fractions_by :
  ?pool:Parallel.Pool.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Metric.H_metric.pair array ->
  groups:int ->
  group:(int -> int) ->
  (float * float * float) array
(** {!partition_fractions} split by source group: the fold of
    {!Metric.Partition.counts_by}; entry [i] averages over the sources
    [v] with [group v = i]. *)

val h :
  ?pool:Parallel.Pool.t ->
  ?cache:Metric.H_metric.Cache.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  Metric.H_metric.pair array ->
  Metric.H_metric.bounds

val header : string -> string -> string

val rollout_attackers : Context.t -> k:int -> int array
(** Attacker sample shared by the rollout-family experiments (rollout,
    per-destination, early-adopters): the first [scaled k] elements of
    one seeded scaled-30 draw from the non-stub pool (clipped to [k
    <= 30]'s draw; a prefix of a uniform sample is uniform).  Sharing
    the draw makes pair sets nest across experiments, so the shared
    result cache serves repeated deployments across them. *)

val secure_dsts : Context.t -> Deployment.t -> k:int -> int array
(** [scaled k] secure destinations of a deployment, drawn through the
    global {!Context.priority_sample} order (purpose
    ["rollout-securedst"]).  Samples of nested secure sets — rollout
    steps, or the same deployment at different [k] — overlap maximally,
    which is what lets {!Metric.H_metric.Cache} entries carry across
    steps and experiments.  Empty when the deployment secures nobody. *)

val per_destination_changes :
  ?pool:Parallel.Pool.t ->
  ?cache:Metric.H_metric.Cache.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  attackers:int array ->
  dsts:int array ->
  (int * Metric.H_metric.bounds * Metric.H_metric.bounds) array
(** Per destination [d], in [dsts] order: [(d, H_{M',d}(S),
    H_{M',d}(S) - H_{M',d}({}))], where [M'] is [attackers] minus [d].
    Two {!Metric.H_metric.pair_endpoints} calls over every
    destination's pairs, one per deployment, whose words run on
    [pool]. *)
