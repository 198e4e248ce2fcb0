(** Differential gate for the packed CSR routing kernel.

    Replays (destination, attacker) pairs through three independent
    implementations of route computation and demands bit-identical
    outcomes:

    - {!Routing.Batch.compute} — the packed CSR production kernel, one
      lane through {!Routing.Engine.compute} (the attacker-free lane
      for pairs without an attacker), exercised both with fresh buffers
      and with a reused workspace, and every lane of whole words
      ({!analyze_batch});
    - {!Routing.Reference.compute} — the pre-change kernel, preserved
      verbatim;
    - {!Routing.Staged.compute} — the Appendix-B executable
      specification, where its contract applies (Standard LP model,
      Bounds tiebreak, attacker claim 1; its representative next hop is
      not compared).

    Any field-level disagreement is a ["kernel/divergence"] error naming
    the first AS and field that differ. *)

val mismatch :
  ?parents:bool ->
  want:Routing.Outcome.t ->
  got:Routing.Outcome.t ->
  unit ->
  string option
(** First field-level disagreement between two outcomes, rendered for a
    diagnostic message; [None] when bit-identical.  [parents] (default
    true) includes the routing-tree parent in the comparison.  Exposed
    for the other passes (the allocation gate reuses it to identity-gate
    its measured loops). *)

val analyze :
  ?attacker_claim:int ->
  Topology.Graph.t ->
  Routing.Policy.t list ->
  Deployment.t ->
  (int * int option) array ->
  int * Diagnostic.t list
(** [analyze g policies dep pairs] returns [(items, diagnostics)] where
    [items] counts the engine runs that were compared. *)

val analyze_batch :
  ?attacker_claim:int ->
  ?tamper:(lane:int -> Routing.Outcome.t -> unit) ->
  Topology.Graph.t ->
  Routing.Policy.t list ->
  Deployment.t ->
  (int * int array) array ->
  int * Diagnostic.t list
(** [analyze_batch g policies dep batches] decodes every lane of every
    batched solve ({!Routing.Batch}) of the [(dst, attackers)] batches
    and compares it field-by-field against a scalar
    {!Routing.Reference.compute} of the same pair, under every policy
    and both tiebreaks.  A disagreement is a ["kernel/batch-divergence"]
    error pinpointing the first divergent (destination, attacker-word,
    bit) and decoding both packed lanes.  [items] counts compared lanes.

    [tamper ~lane outcome] mutates a decoded lane before comparison —
    the false-negative mutants inject batch-kernel bugs through it. *)

val analyze_partitions :
  Topology.Graph.t -> Metric.H_metric.pair array -> int * Diagnostic.t list
(** [analyze_partitions g pairs] holds {!Metric.Partition.counts} to the
    per-pair oracle {!Metric.Partition.count}, pair for pair, under
    security 1st, security 2nd, security 2nd with LP-2 (on an acyclic
    hierarchy only, which LPk requires) and security 3rd.  The first
    disagreement per policy is a ["kernel/partition-divergence"] error
    naming the pair and both counts.  [items] counts compared pairs. *)
