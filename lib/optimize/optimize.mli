(** Max-k-Security (Section 5.1, Theorem 5.1, Appendix I).

    Given a set of (attacker, destination) pairs, choose [k] ASes to
    secure so as to maximize the H-metric over those pairs.  The problem
    is NP-hard in all three routing models (Theorem 5.1; {!Set_cover} is
    the Appendix-I reduction as an executable construction), so the
    practical solvers are greedy:

    - {!Max_k.greedy} — the naive full-re-eval greedy: every round
      rescores every remaining candidate from scratch.  Slow, but it is
      the specification.
    - {!Max_k.celf} — the CELF-style lazy greedy driven through
      {!Metric.H_metric.Evaluator} and the deployment-versioned
      {!Metric.H_metric.Cache}: marginal gains are dirty-cone deltas,
      stale gains sit in a max-priority queue and are re-evaluated only
      while the top entry is stale, and the monotone-chain cache is
      carried across the greedy trajectory via [Cache.carry].

    H is {e not} proven submodular, so CELF's lazy pruning is a
    heuristic, not a theorem: a stale gain may grow after an unrelated
    pick (secure paths need contiguous Full segments, so candidates can
    complement each other).  [Check.Optimize] therefore gates CELF
    behind a differential identity check against {!Max_k.greedy} on
    seeded instances — same pick sequence, bit-identical bounds
    ([sbgp check --optimize]).

    {!happy_with} and {!iter_subsets} are the single-pair primitives
    the reduction's brute-force deciders ({!Set_cover}) are built on;
    no experiment optimizes a single pair. *)

type objective = [ `Lb | `Ub ]
(** Which endpoint of the H-metric bounds an optimizer maximizes.
    [`Lb] (the default everywhere) optimizes the pessimistic-tiebreak
    world — the guaranteed-happy count the Appendix-I reduction is
    stated over; [`Ub] optimizes the optimistic world.  Each caller
    documents its choice; nothing silently collapses the interval. *)

val happy_with :
  ?objective:objective ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  attacker:int ->
  dst:int ->
  int
(** Happy-source count of one pair under [objective] (default [`Lb]:
    lower-bound semantics, matching the reduction's requirement that
    tied ASes prefer the attacker). *)

val iter_subsets : int array -> int -> (int list -> unit) -> unit
(** [iter_subsets candidates k f] calls [f] on every [k]-subset of
    [candidates], in lexicographic position order.  Raises
    [Invalid_argument] (naming the offending [k] and [n]) when [k < 0]
    or [k > Array.length candidates] — it never silently yields
    nothing. *)

(** Pair-set Max-k-Security over the full H-metric bounds. *)
module Max_k : sig
  type step = {
    pick : int;  (** the AS selected this round *)
    gain : float;  (** the marginal gain credited at selection time *)
    score : Metric.H_metric.bounds;  (** H over the prefix ending here *)
    engine_evals : int;  (** per-pair engine computations this round *)
    gain_evals : int;  (** candidate (re-)scorings this round *)
  }

  type result = {
    chosen : int array;  (** selected ASes, in pick order *)
    requested : int;
    achieved : int;  (** may be [< requested]: candidates ran out *)
    baseline : Metric.H_metric.bounds;  (** H of the base deployment *)
    score : Metric.H_metric.bounds;  (** H of the final selection *)
    steps : step array;  (** one per pick, in order *)
    engine_evals : int;  (** total per-pair engine computations, incl. baseline *)
    gain_evals : int;  (** total candidate scorings *)
  }

  (** Deliberate CELF bugs for the [Check.Optimize] false-negative
      guard: [Trust_stale_gains] selects a stale queue top without
      re-scoring it; [Flip_queue_priority] turns the max-heap into a
      min-heap.  Production callers never pass a fault. *)
  type fault = Trust_stale_gains | Flip_queue_priority

  val greedy :
    ?pool:Parallel.Pool.t ->
    ?objective:objective ->
    ?base:Deployment.t ->
    Topology.Graph.t ->
    Routing.Policy.t ->
    pairs:Metric.H_metric.pair array ->
    k:int ->
    candidates:int array ->
    result
  (** The specification greedy: each round rescores {e every} remaining
      candidate with a from-scratch {!Metric.H_metric.h_metric} (no
      cache) and picks the first strictly-best gain under [objective]
      (default [`Lb]).  [base] (default the empty deployment) is the
      starting deployment; picks are added to it as [Full].  A pick is
      made every round even when the best gain is zero — H under a
      growing deployment never loses, and a fixed-size answer is what
      Max-k asks for.  Stops early only when candidates run out.
      Raises [Invalid_argument] when [k < 0], [pairs] is empty, or
      [base] disagrees with the graph size. *)

  val celf :
    ?pool:Parallel.Pool.t ->
    ?cache:Metric.H_metric.Cache.t ->
    ?objective:objective ->
    ?base:Deployment.t ->
    ?fault:fault ->
    Topology.Graph.t ->
    Routing.Policy.t ->
    pairs:Metric.H_metric.pair array ->
    k:int ->
    candidates:int array ->
    result
  (** CELF lazy greedy.  Marginal gains live in a max-priority queue
      (gain descending, candidate position ascending on ties — the same
      tie order as {!greedy}); a popped entry whose gain is stale is
      re-scored against the current prefix and pushed back, and only a
      fresh top is selected.  Re-scoring goes through a single
      {!Metric.H_metric.Evaluator} whose cache ([cache] if given, else
      private) is carried along each candidate's monotone chain with
      [Cache.carry], so a re-score costs only the dirty-cone delta.
      Values are bit-identical to {!greedy}'s on every evaluated
      deployment (the evaluator guarantees this); the {e pick sequence}
      is only guaranteed to match where H behaves submodularly, which
      is what [Check.Optimize] verifies.  Raises like {!greedy}. *)
end

(** The reduction from Set Cover (Appendix I, Figure 18). *)
module Set_cover : sig
  type instance = { universe : int; sets : int list array }
  (** Elements are [0 .. universe-1]; [sets.(j)] lists the elements of
      subset j. *)

  type built = {
    graph : Topology.Graph.t;
    dst : int;
    attacker : int;
    element_as : int array;  (** AS id of each element *)
    set_as : int array;      (** AS id of each subset *)
  }

  val build : instance -> built
  (** The gadget: the destination is a customer of every set-AS, the
      attacker a customer of every element-AS, and element-AS [i] a
      provider of set-AS [j] iff element [i] belongs to subset [j]. *)

  val cover_exists : instance -> gamma:int -> bool
  (** Brute-force set cover decision (small instances only).  The budget
      is clamped to [[0, number of sets]] — covering with at most
      [gamma] sets is monotone in [gamma], so a budget beyond the clamp
      range decides the same question. *)

  val security_achievable : built -> gamma:int -> bool
  (** Does securing the destination, all element ASes, and [gamma] set
      ASes make {e every} source happy?  (Equivalent to the
      Dk-l-Security instance of Theorem I.1.)  Enumerates the
      gamma-subsets of set ASes ([gamma] clamped exactly as in
      {!cover_exists}); model-agnostic per the theorem, computed under
      security 3rd with [`Lb] semantics as the reduction requires. *)
end
