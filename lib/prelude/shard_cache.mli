(** Concurrent fixed-key memo cache, sharded to keep lock contention off
    the hot path.

    Keys are quadruples of non-negative integers (the metric layer packs
    (policy, deployment version, attacker, destination) into one); values
    are arbitrary.  Each shard is an ordinary hash table behind its own
    mutex, and a key always maps to the same shard, so concurrent
    {!find}/{!store} calls from worker domains only contend when they
    hash to the same shard.  [store] is last-writer-wins: callers must
    only ever store the {e same} value for a given key (a deterministic
    function of the key), which is what makes concurrent use and
    replays deterministic. *)

type key = { k1 : int; k2 : int; k3 : int; k4 : int }

type 'v t

val create : unit -> 'v t
(** [create ()] makes an empty cache with 64 shards. *)

val find : 'v t -> key -> 'v option
val store : 'v t -> key -> 'v -> unit

val length : 'v t -> int
(** Total entries across shards; takes every shard lock, O(shards). *)

val hits : 'v t -> int
(** Number of [find] calls that returned [Some] since creation. *)

val misses : 'v t -> int
