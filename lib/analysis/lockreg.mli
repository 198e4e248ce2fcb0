(** Per-type field-guard inference for the lock-discipline rule.

    A record type declaring a [Stdlib.Mutex.t] field is inferred to
    guard its racy siblings with it: every [mutable] field plus every
    field holding an inherently mutable container (Hashtbl — including
    local [Hashtbl.Make] instances —, Buffer, Queue, Stack, Bytes,
    array).  Types whose mutex does not guard all such siblings need an
    allowlist entry stating the real invariant. *)

type t

val build : Unit_info.t list -> t
(** Collect every mutex-carrying record type of the scanned tree, keyed
    by canonical type name (e.g. ["Prelude.Shard_cache.shard"]). *)

val guard : t -> rectype:string -> field:string -> string option
(** [guard t ~rectype ~field] is [Some mutex_field] when [field] of
    [rectype] is inferred to be guarded by that sibling mutex. *)
