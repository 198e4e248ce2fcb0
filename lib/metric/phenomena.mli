(** Protocol downgrades, collateral benefits and damages, and the
    root-cause decomposition of Section 6 / Figure 16.

    Each count classifies the sources [v] of (attacker [m], destination
    [d]) pairs by three routing states: normal conditions with the
    deployment [S], the attack with [S], and the attack with [S = {}].
    Happiness is the pessimistic (lower-bound) tiebreak of Section 4.1:
    an AS facing equally-good legitimate and bogus routes is unhappy.
    This matches the paper's Section 6 examples (Figure 15's collateral
    benefit arises from a tiebreak) and its "lower bound on collateral
    benefits" framing.

    {b Two downgrade counts.}  Figure 16 counts every secure normal
    route lost under attack ([downgraded]).  Table 3 exempts the
    sources whose representative normal route already runs through [m]
    (Theorem 3.1: the attacker attracts their traffic without
    attacking), so its count is [downgraded - exempt_lost].  The two
    differ even under security 1st: a secure normal route through [m]
    is lost once [m] announces only its bogus route. *)

type t = {
  sources : int;  (** (pair, source) instances: [n - 2] per pair *)
  secure_normal : int;  (** secure routes under normal conditions *)
  downgraded : int;  (** of those, insecure under attack *)
  wasted : int;  (** of those, secure under attack, happy with [S = {}] *)
  protecting : int;
      (** of those, secure under attack, unhappy with [S = {}]: the only
          secure routes that can raise the metric *)
  benefit : int;
      (** collateral benefits: sources outside [S] (not
          [Deployment.is_full]) unhappy with [S = {}], happy with [S] *)
  damage : int;
      (** collateral damages: sources outside [S] happy with [S = {}],
          unhappy with [S] *)
  happy_base : int;  (** happy under attack, [S = {}] *)
  happy_dep : int;  (** happy under attack, [S] *)
  exempt : int;
      (** secure normal routes whose representative path runs through [m] *)
  exempt_lost : int;  (** of those, insecure under attack *)
  secure_by_dst : int;
      (** sources with a secure route under normal conditions, counted
          once per destination of the pairs, not per pair: [n - 1]
          sources each *)
}

val sum :
  ?pool:Parallel.Pool.t ->
  Topology.Graph.t ->
  Routing.Policy.t list ->
  Deployment.t ->
  H_metric.pair array ->
  t list
(** [sum g policies dep pairs] is, for each policy in order, the
    classification summed over every pair and source.  The pairs of a
    destination share one attacker-free solve per policy, and their
    attacked states come from the {!Routing.Batch} words of
    {!H_metric.plan}: one word per policy for [S], and
    one for [S = {}], which no security model can tell apart, shared by
    consecutive policies of one local-preference variant.  [pool] fans
    the destinations out; the counts are integer sums, the same
    whatever the parallelism.  Raises [Invalid_argument] when a pair's
    attacker is its destination. *)
