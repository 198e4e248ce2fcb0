(** Multicore fan-out over independent work items.

    The paper parallelized its simulations over destinations with MPI on
    BlueGene/Blacklight (Appendix H); we use OCaml 5 domains.  Work items
    must be independent and the worker function must not share mutable
    state across items (each routing computation owns its per-domain
    workspace, and reads the topology immutably).

    Two layers:

    - {!Pool}: a persistent pool of long-lived worker domains fed by an
      atomic chunk index (work stealing).  Spawning a domain costs far
      more than one routing computation, so the experiment suite creates
      one pool and reuses it for every [map].
    - {!map}: a convenience wrapper that borrows the lazily-created
      default pool (sized by [SBGP_DOMAINS]). *)

val default_domains : unit -> int
(** [SBGP_DOMAINS] from the environment if set, otherwise the runtime's
    recommended domain count. *)

module Pool : sig
  type t

  val create : ?domains:int -> unit -> t
  (** [create ~domains ()] spawns [domains - 1] worker domains (the
      caller participates in every [map], for [domains] total).  Defaults
      to {!default_domains}.  A pool of size 1 spawns nothing and maps
      sequentially. *)

  val size : t -> int
  (** Total domains applied to a job, including the calling one. *)

  val map : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
  (** [map pool f items] applies [f] to every item across the pool's
      domains.  Results are returned in input order regardless of the
      execution interleaving, so output is deterministic whenever [f] is.
      The first worker exception, if any, is re-raised in the caller.
      Re-entrant calls (a [map] from inside a worker function) degrade to
      a sequential map instead of deadlocking.

      [chunk] overrides the stealing granularity (default: items split
      ~8 ways per domain).  Pass [~chunk:1] when the items are few and
      individually coarse — e.g. one batched routing solve per item —
      so no domain hoards several of them.  Raises [Invalid_argument]
      when [chunk < 1]. *)

  val shutdown : t -> unit
  (** Join all worker domains.  Subsequent [map]s run sequentially. *)
end

val default_pool : unit -> Pool.t
(** The process-wide pool, created on first use with {!default_domains}
    domains and shut down automatically at exit. *)

val map :
  ?pool:Pool.t ->
  ?domains:int ->
  ?chunk:int ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** [map f items] applies [f] to every item.  With [~pool] the work runs
    on that pool; otherwise [domains] (default {!default_domains})
    decides: [<= 1] maps sequentially in the calling domain, [> 1] uses
    the default pool (or a transient pool when the default pool is
    sequential).  [chunk] is the stealing granularity of {!Pool.map}.
    Output order always matches input order. *)
