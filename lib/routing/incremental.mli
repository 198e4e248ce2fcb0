(** Conservative dirty cones for incremental rollout evaluation.

    Along a deployment rollout S -> S' (Section 5 of the paper), most
    (attacker, destination) pairs keep a bit-identical stable state: the
    engine consults the deployment only through [signs_origin] at the
    destination and [is_full] where {e signed} offers arrive, and signed
    offers travel only inside the Full-restricted perceivable closure of
    the destination ({!Reach.compute} with [~only]).  [compute] exploits
    this to classify every requested destination:

    - {b clean} — no pair with this destination can change: its signing
      status did not change and either it never signs or no changed-Full
      AS lies in its secure-perceivable cone under S or S';
    - {b dirty} — the destination's signing status changed, or some
      changed-Full "witness" sits in the cone.  {!dirty_pair} further
      exempts the pair whose attacker is the {e only} witness (a root
      never validates or re-signs, so its own Full bit is never read).

    A clean verdict is sound (bit-identical outcome guaranteed, for both
    tiebreak modes and every policy model); a dirty verdict is merely
    conservative.  Sizes must match; the deployments need {e not} be
    ordered — non-monotone deltas fall back to testing both cones.

    A cone is the per-destination verdict table alone; callers (the
    metric evaluator, [Cache.carry], CELF) read it through {!dirty_pair}. *)

type t

val compute :
  Topology.Graph.t ->
  old_dep:Deployment.t ->
  new_dep:Deployment.t ->
  dsts:int array ->
  t
(** Classify the given destinations for the delta [old_dep -> new_dep].
    Costs one Full-restricted {!Reach} closure per candidate destination
    (two for non-monotone deltas), O(edges) each — far below one engine
    run per attacker.  Raises [Invalid_argument] on size mismatches or
    an out-of-range destination. *)

val dirty_pair : t -> attacker:int -> dst:int -> bool
(** Whether the pair's outcome may have changed: [false] when its
    destination is clean, or when the attacker is the only witness for
    it.  A destination outside the [dsts] passed to {!compute} is
    reported dirty (conservative). *)

(** Dirty verdicts for {e topology} deltas (link add / remove / flip),
    one destination word at a time.  {!Topo.influenced} re-offers every
    changed edge, in both directions, against the frozen batched stable
    state of the word and reports clean only when every offer is
    inadmissible, over the length bound, or {e strictly} loses the rank
    compare at every lane it overlaps — exactly the condition under
    which the label-setting fixed point (flags and parents included)
    provably cannot move.  Ties are dirty by design; the deliberately
    rejected shortcuts are documented in DESIGN.md §15.  A clean verdict
    is sound (bit-identical outcome, both tiebreaks, every model); dirty
    is conservative, and the delta-vs-scratch identity gate of
    [sbgp check --topology] enforces soundness end to end.

    {!Topo.cone} is a diagnostic, not a filter: the reachability bound
    on the roots a delta could touch.  On Internet-like graphs it covers
    every AS, so no replay path consults it. *)
module Topo : sig
  type cone

  val cone : Topology.Graph.t -> Topology.Graph.Delta.t -> cone
  (** Diagnostic: the roots the delta could influence, bounded by
      reachability — [{e} ∪ Reach_old(e) ∪ Reach_new(e)] over every
      delta endpoint [e], the post-delta closure computed over a
      {!Topology.Graph.overlay}.  Two {!Reach} closures per endpoint,
      O(edges) each.  Every word {!influenced} marks dirty has its
      destination or an attacker in this set. *)

  val cone_dirty_dst : cone -> int -> bool
  (** Whether the AS lies in the {!cone}. *)

  val cone_card : cone -> int
  (** Size of the {!cone} (diagnostics: how blunt reachability is). *)

  type word_state
  (** Frozen stable state of one destination word: per AS, its fixed
      (lane mask, packed word) groups.  About three ints per reached
      (AS, group) — retained per word by a replay evaluator. *)

  val snapshot : n:int -> Batch.t -> word_state
  (** Freeze a completed batch solve ([n] is the graph size) in one
      {!Batch.iter_fixed} walk.  Must be called while the result is live
      (before its workspace's next checkout). *)

  val influenced :
    word_state ->
    Deployment.t ->
    Policy.t ->
    old_graph:Topology.Graph.t ->
    delta:Topology.Graph.Delta.t ->
    bool
  (** Whether the delta can move this word's stable state.  [old_graph]
      and [dep] must be the graph and deployment the state was computed
      against; the delta is assumed valid for [old_graph] (callers
      apply it anyway, which validates).  [false] guarantees the
      post-delta solve is bit-identical. *)
end
