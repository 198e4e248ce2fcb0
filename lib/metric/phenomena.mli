(** Protocol downgrades, collateral benefits and damages, and the
    root-cause decomposition of Section 6 / Figure 16.

    All happiness here uses the pessimistic (lower-bound) tiebreak
    semantics of Section 4.1: an AS facing equally-good legitimate and
    bogus routes counts as unhappy.  This matches the paper's Section 6
    examples (e.g. Figure 15's collateral benefit arises from a tiebreak)
    and its "lower bound on collateral benefits" framing. *)

type downgrade = {
  secure_normal : int;  (** sources with a secure route under normal conditions *)
  downgraded : int;     (** of those, how many lose route security under attack *)
  secure_after : int;   (** of those, how many keep a secure route under attack *)
  sources : int;
}

val downgrades :
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  attacker:int ->
  dst:int ->
  downgrade
(** Compare the normal-conditions run with the attack run (Appendix F.1).
    Sources whose normal (representative) route already passes through the
    attacker are excluded from [secure_normal] — Theorem 3.1 exempts them,
    since the attacker attracts their traffic without attacking. *)

type root_cause = {
  sources : int;
  rc_secure_normal : int;   (** secure routes under normal conditions *)
  rc_downgraded : int;      (** secure routes lost to protocol downgrades *)
  rc_wasted : int;          (** secure routes kept by sources that were
                                happy already with S = {} *)
  rc_protecting : int;      (** secure routes kept by sources unhappy with
                                S = {} — the only class of secure routes
                                that can raise the metric *)
  rc_benefit : int;         (** insecure sources: unhappy with S = {},
                                happy with S *)
  rc_damage : int;          (** insecure sources: happy with S = {},
                                unhappy with S *)
  rc_happy_base : int;      (** happy sources, S = {} *)
  rc_happy_dep : int;       (** happy sources, deployment S *)
}

val root_cause :
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  attacker:int ->
  dst:int ->
  root_cause
(** Requires three runs: normal conditions with S, attack with S, attack
    with S = {}. *)

val root_cause_zero : root_cause
val root_cause_add : root_cause -> root_cause -> root_cause

type collateral = { benefit : int; damage : int; insecure_sources : int }

val collateral :
  Topology.Graph.t ->
  Routing.Policy.t ->
  baseline:Deployment.t ->
  deployment:Deployment.t ->
  attacker:int ->
  dst:int ->
  collateral
(** Collateral effects on sources that are insecure in [deployment],
    comparing against the smaller [baseline] deployment (Section 6.1
    considers [baseline = empty]).  Raises [Invalid_argument] unless
    [baseline] is a subset of [deployment]. *)
