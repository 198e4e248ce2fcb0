(** Differential checks for the off-heap topology layer (rules
    [topo/csr-mismatch], [topo/snapshot], [topo/delta-divergence]):

    - every graph of a seeded delta chain, stepped with
      {!Topology.Graph.Delta.apply} (which patches its parent's CSR),
      must hold the CSR bit-identical to the one
      {!Topology.Graph.of_edges} builds from its edge list;
    - a binary snapshot ({!Topology.Serial.save_snapshot}) must
      round-trip bit-identically, and a one-byte payload corruption must
      be rejected by the digest;
    - replaying a seeded chain of topology deltas (class flips plus a
      remove/re-add) through {!Metric.H_metric.Replay} must produce
      per-pair bounds bit-identical to from-scratch engine computation
      on every stepped graph. *)

val analyze :
  ?steps:int ->
  seed:int ->
  pairs:int ->
  Topology.Graph.t ->
  Routing.Policy.t list ->
  int * Diagnostic.t list
(** [analyze ~seed ~pairs g policies] returns (items covered,
    diagnostics).  [steps] (default 4) is the length of each policy's
    delta chain; [pairs] the number of sampled (attacker, destination)
    pairs whose bounds are compared at every step; the CSR sub-pass
    steps the same chain once, one item per step.  The delta-replay
    sub-pass needs [n >= 8]; below that only the CSR and snapshot gates
    run (the CSR gate needs an edge). *)
