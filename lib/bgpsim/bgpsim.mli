(** Dynamic message-passing BGP / S*BGP simulator.

    Unlike {!Routing.Engine}, which computes the unique stable state
    directly, this simulator runs the protocol: ASes keep per-neighbor
    RIBs of announced AS-paths, re-select best routes with their local
    decision process, and propagate announcements and withdrawals under
    the export policy Ex.  It supports:

    - per-AS policies (ASes may place the SecP step differently — the
      inconsistent-priorities setting of Section 2.3 that produces BGP
      Wedgies, Figure 1);
    - link failures and repairs, to exhibit the Wedgie's two stable
      states;
    - arbitrary activation schedules (deterministic sweeps or seeded
      random orders), to probe Theorem 2.1's claim that with consistent
      policies the outcome is schedule-independent.

    Announcements carry a [signed] bit: the origin signs iff it deploys
    (full or simplex) S*BGP, a transit AS preserves the signature iff it
    deploys full S*BGP, and the attacker's bogus "m d" announcement is
    never signed.  A received route is {e secure} for an AS iff it is
    signed and the AS itself validates (full deployment). *)

type t

val create :
  ?policy_of:(int -> Routing.Policy.t) ->
  ?hysteresis:bool ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  dst:int ->
  ?attacker:int ->
  unit ->
  t
(** [create g policy dep ~dst ()] prepares a simulation of routing toward
    [dst].  [policy_of] overrides the policy per AS (default: the global
    [policy] everywhere).  The attacker, if present, persistently
    announces the bogus path ["m d"] to all its neighbors.

    [hysteresis] enables the downgrade mitigation the paper sketches in
    its conclusion: a fully-secure AS holding a valid secure route will
    not replace it with an insecure route, regardless of its decision
    process.  This deliberately breaks the pure selection function — it
    is an experimental extension, only available in the dynamic
    simulator. *)

val set_attack : t -> active:bool -> unit
(** Silence or (re)start the attacker's bogus announcement, so an attack
    can be launched against an {e established} routing state: create with
    [~attacker], [set_attack ~active:false], {!run} to converge normal
    conditions, then [set_attack ~active:true] and {!run} again.  Raises
    [Invalid_argument] if no attacker was configured. *)

val run : ?schedule:Rng.t -> ?max_sweeps:int -> t -> int
(** Process activations until a full sweep causes no route change; returns
    the number of sweeps.  [schedule] randomizes the activation order of
    each sweep.  Raises [Failure] if [max_sweeps] (default 1000) is
    exceeded — with consistent policies this cannot happen (Theorem 2.1),
    with mixed policies it signals a persistent oscillation.

    A sweep visits the ASes in its order but activates only the dirty
    ones: those whose RIB was written (by an announcement, a withdrawal,
    {!set_attack} or {!set_link}) since their last activation.  An
    activation's outcome depends only on the AS's RIB and its current
    choice (the tiebreak makes it independent of scan order), and an AS
    re-activated right after settling keeps its route, so a clean AS
    would have reported no change: routes, sweep counts (the final
    quiet sweep included) and [Failure]s are those of activating every
    AS on every sweep. *)

val set_link : t -> int -> int -> up:bool -> unit
(** Fail or restore the link between two adjacent ASes.  Routes over a
    failed link are withdrawn; call {!run} afterwards to re-converge.
    Raises [Invalid_argument] if the ASes are not adjacent in the
    underlying graph. *)

val chosen_path : t -> int -> int list option
(** The AS-path currently selected by the AS, next hop first, ending at
    the apparent origin (for attacked routes: [..., m, dst] — the bogus
    claimed hop included).  [None] if the AS currently has no route.
    The destination itself has path [[dst]]. *)

val route_secure : t -> int -> bool
val uses_attacker : t -> int -> bool
(** The chosen route goes through the attacker. *)

val snapshot : t -> int list option array
(** All chosen paths, indexed by AS. *)

val to_outcome : t -> Routing.Outcome.t
(** Convert the current (converged) state for comparison with the static
    engines.  Flags [to_d]/[to_m] reflect the single chosen route. *)
