(** Parallel-determinism analyzer — pass 3 of [sbgp check].

    The routing kernel promises bit-identical outcomes however the work
    is scheduled: over any number of domains, and with or without
    {!Routing.Batch.Workspace} buffer reuse.  This pass checks the
    promise empirically by replaying the same batch of (destination,
    attacker) pairs under several configurations and comparing a
    per-outcome digest against the sequential fresh-buffer baseline.

    A divergence ([det/divergence]) pinpoints the offending configuration
    and the first divergent pair; when the deviant configuration is
    sequential the analyzer additionally replays the run and reports the
    first field-level mismatch (a stale-epoch workspace bug shows up here
    as, e.g., a length or next-hop carried over from the previous
    computation). *)

type config = {
  domains : int;  (** total domains applied to the batch; 1 = sequential *)
  reuse_ws : bool;
      (** reuse each domain's private {!Routing.Batch.Workspace}
          instead of allocating fresh buffers per computation *)
}

val baseline : config
(** [{domains = 1; reuse_ws = false}] — the reference every other
    configuration is compared against. *)

val default_configs : unit -> config list
(** The baseline plus sequential-with-reuse and parallel with/without
    reuse (parallel width from {!Parallel.default_domains}, clamped to
    keep transient pools cheap). *)

val analyze :
  ?tiebreak:Routing.Engine.tiebreak ->
  ?attacker_claim:int ->
  ?configs:config list ->
  ?compute:
    (ws:Routing.Batch.Workspace.t option ->
    Topology.Graph.t ->
    Routing.Policy.t ->
    Deployment.t ->
    dst:int ->
    attacker:int option ->
    Routing.Outcome.t) ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  (int * int option) array ->
  Diagnostic.t list
(** [analyze g policy dep pairs] replays every (dst, attacker) pair
    under every configuration (the baseline is always included) and
    returns one [det/divergence] diagnostic per deviant configuration.
    [compute] substitutes the engine entry point — the mutant suite uses
    it to inject workspace-corruption bugs; the default forwards
    [tiebreak]/[attacker_claim] to {!Routing.Engine.compute}.  Parallel
    configurations run on transient pools that are shut down before
    returning. *)
