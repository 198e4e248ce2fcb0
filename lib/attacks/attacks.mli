(** The threat-model strategy space of Section 3.

    The paper's evaluation fixes one attacker strategy — announcing the
    bogus one-hop path ["m d"] via legacy BGP — because it is both simple
    and, with origin authentication deployed, essentially the strongest
    available (finding the optimal set of announcements is NP-hard, and
    shorter claims attract more sources).  This module makes the
    surrounding strategy space explicit, so the motivation can be
    reproduced quantitatively:

    - classic prefix and subprefix hijacks, which origin validation (our
      {!Rpki} substrate) detects and filters;
    - fabricated paths of any claimed length, which pass origin
      validation and are only blunted by path validation (S*BGP). *)

type strategy =
  | Prefix_hijack
      (** Originate the victim's exact prefix (claimed path length 0). *)
  | Subprefix_hijack
      (** Originate a more-specific prefix of the victim's.  When not
          filtered, longest-prefix forwarding sends {e every} source with
          any route toward the attacker, regardless of BGP preferences. *)
  | Fabricated_path of int
      (** Announce, via legacy BGP, a fabricated path of the given
          claimed length ending at the victim ([Fabricated_path 1] is the
          paper's ["m d"] attack).  Must be >= 1. *)

val strategy_name : strategy -> string

val passes_origin_validation : strategy -> bool
(** Whether the bogus announcement survives RFC 6483 origin validation
    (checked against an actual ROA/announcement encoding via {!Rpki};
    see the implementation and tests). *)

type result = {
  strategy : strategy;
  filtered : bool;
      (** origin validation dropped the announcement before route
          selection *)
  happy_lb : int;
  happy_ub : int;
  sources : int;
}

val happy_fraction : result -> float * float

val simulate :
  ?origin_auth:bool ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  attacker:int ->
  dst:int ->
  strategy ->
  result
(** [simulate g policy dep ~attacker ~dst strategy] counts happy sources
    under the attack.  [origin_auth] (default [true], the paper's
    setting) filters announcements that fail origin validation, turning
    the hijacks into no-ops.  An unfiltered subprefix hijack bypasses
    route selection entirely: a source stays happy only if it has no
    perceivable route to the attacker at all. *)

val simulate_pairs :
  ?pool:Parallel.Pool.t ->
  ?origin_auth:bool ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  Metric.H_metric.pair array ->
  strategy ->
  result array
(** {!simulate} of every pair, in pair order, bit-identical, for the two
    attacks that bypass route selection; the ones that enter it are
    attacked states ({!Metric.H_metric.pair_endpoints} with the claim as
    [attacker_claim]).

    - A filtered announcement ([origin_auth] and the strategy fails
      origin validation) leaves the normal state toward the pair's
      destination.  Under security 3rd, [S = {}] and the standard LP
      that state reaches exactly the ASes with a perceivable route to
      the destination, counted by one closure lane per destination
      ({!Metric.Partition.reach_counts}); that is the only setting in
      which a filtered announcement is accepted.
    - The unfiltered subprefix hijack counts the security-1st immune
      sources ({!Metric.Partition.counts}), whatever the policy.

    Raises [Invalid_argument] for an unfiltered prefix hijack or
    fabricated path, for a filtered announcement under any other policy
    or a non-empty deployment, for a fabricated path shorter than 1,
    and for a pair whose ids are out of range or equal. *)
