(** Destination-major batched stable-state kernel: one routing-tree
    solve serves up to {!max_lanes} attackers.

    The experiment driver evaluates many (attacker, destination) pairs
    that share a destination.  The attacker-free part of the stable
    state toward [d] is identical across all of them; only the bogus
    "m d" announcement differs.  This kernel assigns each attacker a
    {e lane} — a bit position in a native-int word — and runs the
    label-setting computation of {!Engine} once for the whole word.

    Per-AS candidate state is a set of {e groups} [(mask, word,
    parent)]: the lanes in [mask] all hold the packed candidate [word]
    (the scalar kernel's exact encoding, {!Engine.Packed}) with
    representative next hop [parent].  Group masks are pairwise
    disjoint.  Far from the attackers' influence every AS has a single
    full-word group, and one CSR row scan, one rank compare and one
    queue push advance all lanes at once; near the attackers groups
    split, degrading gracefully toward per-lane work only where lanes
    actually differ.

    The result is {b bit-identical} to {!Engine.compute} run separately
    per attacker, for every policy model and both tiebreaks: ranks are
    injective on (class, length, security) and strictly monotone along
    route extensions, and both tiebreaks are order-independent merges.
    The identity is enforced two ways — qcheck property tests and the
    [sbgp check --kernel] batched-divergence pass. *)

val max_lanes : int
(** Maximum attackers per batch: {!Prelude.Bitset.word_bits} = 63, the
    width of an OCaml immediate int. *)

module Workspace : sig
  (** Reusable scratch for {!compute}: the group slabs, per-AS lane
      masks revalidated by an epoch stamp, the touched-AS set and the
      bucket queue.  The slabs hold [max_lanes] planes of one slot per
      AS (group [i] of AS [v] in plane [i]), off the OCaml heap and
      uninitialised, so a solve whose ASes hold few groups touches only
      the first planes and the memory of the others is never
      committed.  Not thread-safe; use one per domain ({!local}). *)

  type t

  val create : int -> t
  (** [create n] preallocates for graphs of up to [n] ASes; buffers grow
      automatically when a larger graph is computed. *)

  val local : unit -> t
  (** The calling domain's lazily created private workspace
      (domain-local storage), for pool workers. *)
end

type t
(** The batched stable state: frozen lane groups for every reached AS.
    A result borrows its workspace's buffers — it stays valid only
    until the next {!compute} on the same workspace; the accessors
    below raise [Invalid_argument] on a stale result. *)

val compute :
  ?tiebreak:Engine.tiebreak ->
  ?attacker_claim:int ->
  ?ws:Workspace.t ->
  Topology.Graph.t ->
  Policy.t ->
  Deployment.t ->
  dst:int ->
  attackers:int array ->
  t
(** [compute g policy dep ~dst ~attackers] computes the stable routing
    state toward [dst] under attacker [attackers.(l)] in lane [l], for
    all lanes at once.  Defaults match {!Engine.compute} ([Bounds]
    tiebreak, claim 1).

    Raises [Invalid_argument] when the lane count is outside
    [1 .. max_lanes], any id is out of range, some attacker equals
    [dst], or [attacker_claim < 0]. *)

val lanes : t -> int

val iter_fixed : t -> (v:int -> mask:int -> word:int -> parent:int -> unit) -> unit
(** Iterate every frozen group of every reached AS, in ascending AS
    order, all groups of one AS consecutively.  [mask] is the lane
    set (nonempty; masks of one AS are disjoint), [word] the shared
    packed candidate — decode with {!Engine.Packed} — and [parent] the
    representative next hop.  Root groups carry class code 3: the
    destination's full-lane root and, at each attacker, the bogus-origin
    root of its own lane.  Metric folds consume groups directly (one
    callback per group, not per lane), which is how per-attacker
    happiness and partition counts are accumulated without materializing
    [lanes t] outcome records.  ASes unreached in some lane simply have
    no group containing that lane. *)

val groups : t -> int
(** The number of groups {!iter_fixed} visits, counted from the per-AS
    group counts without visiting them (O(reached ASes)). *)

val decode : ?into:Outcome.t -> t -> lane:int -> Outcome.t
(** [decode t ~lane] expands one lane into a full scalar {!Outcome.t},
    bit-identical to [Engine.compute ~attacker:(Some (attacker t
    ~lane))].  [into] reuses an outcome record.  Used by the divergence
    checker and anywhere a single attacker's full state is needed. *)

val group_of : t -> v:int -> lane:int -> (int * int * int) option
(** [group_of t ~v ~lane] is the [(mask, word, parent)] group at AS [v]
    whose mask contains [lane], or [None] if [v] is unreached in that
    lane.  Diagnostic accessor for the divergence checker's packed-lane
    reports. *)
