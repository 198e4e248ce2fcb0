(** The routing kernel: stable-state computation for routing with
    partially deployed S*BGP in the presence of the "m d" attack of
    Section 3.1, destination-major, one routing-tree solve serving up
    to {!max_lanes} attackers.

    This is the generalized form of the multi-stage BFS of Appendix B:
    a label-setting (Dijkstra-style) computation over the dense
    preference ranks of {!Policy.rank}.  Correctness rests on the ranks
    being strictly monotone along route extensions — extending a fixed
    route by one hop always yields a strictly worse rank, for every
    model and LP variant — so fixing ASes in rank order reproduces
    exactly the stable state that the staged algorithm (and, by the
    paper's Lemmas B.2-B.15, the S*BGP convergence process) arrives at.

    Export policy (Ex): an AS announces a customer route to everyone and
    any other route to its customers only.  The destination announces
    its own prefix to everyone; the attacker announces the bogus route
    "m d" to all its neighbors via legacy BGP.

    The experiment driver evaluates many (attacker, destination) pairs
    that share a destination.  The attacker-free part of the stable
    state toward [d] is identical across all of them; only the bogus
    announcement differs.  The kernel assigns each attacker a {e lane}
    — a bit position in a native-int word — and runs the computation
    once for the whole word.  With no attacker it solves one
    attacker-free lane: normal conditions.

    Per-AS candidate state is a set of {e groups} [(mask, word,
    parent)]: the lanes in [mask] all hold the packed candidate [word]
    ({!Packed}) with representative next hop [parent].  Group masks
    are pairwise disjoint.  Far from the attackers' influence every AS
    has a single full-word group, and one CSR row scan, one rank
    compare and one queue push advance all lanes at once; near the
    attackers groups split, degrading gracefully toward per-lane work
    only where lanes actually differ.

    Each lane is {b bit-identical} to the {!Reference} kernel solving
    its attacker alone, for every policy model and both tiebreaks, and
    to the {!Staged} Appendix-B transcription where that applies.  The
    identity is enforced two ways — qcheck property tests and the
    [sbgp check --kernel] pass.  {!Engine.compute} is this kernel's
    one-pair facade. *)

type tiebreak =
  | Bounds
      (** Leave TB unresolved: track every equally-best route's endpoint,
          yielding the lower/upper happiness bounds of Section 4.1. *)
  | Lowest_next_hop
      (** Deterministic TB: among equally-best routes keep the one whose
          next hop has the smallest AS number.  Used for cross-validation
          with the dynamic simulator. *)

module Packed : sig
  (** The packed candidate word, LSB-first:

      {v
        bit  0      to_m   — some equally-best route leads to the attacker
        bit  1      to_d   — some equally-best route leads to the destination
        bit  2      secure — the route is fully signed and validated
        bits 3-4    cls    — 0 customer / 1 peer / 2 provider / 3 root
        bits 5-28   len    — perceived path length (max_len = n + 1 < 2^24)
        bits 29-62  rank   — Policy.rank of (cls, len, secure)
      v}

      The rank is injective on (cls, len, secure), so equal ranks imply
      equal decoded fields — the property that lets one word stand for
      a whole lane group. *)

  val rank_shift : int
  val len_of : int -> int
  val cls_code_of : int -> int
  val secure_of : int -> bool
  val to_d_of : int -> bool
  val to_m_of : int -> bool

  val describe : int -> string
  (** All decoded fields of a packed word, for divergence diagnostics. *)
end

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
      committed.  Reuse revalidates per-AS state with an epoch stamp,
      O(1) per solve instead of a refill.  Not thread-safe; use one per
      domain ({!local}). *)

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
  ?tiebreak:tiebreak ->
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
    all lanes at once.  [attackers = [||]] computes one lane, lane 0,
    under normal conditions.  Default tiebreak is [Bounds].

    [attacker_claim] is the length of the bogus path the attacker claims
    (default 1 — the paper's "m d" announcement).  [0] models an
    unauthorized origination of the victim's prefix (a classic prefix
    hijack, only meaningful when origin authentication is absent); larger
    values model longer fabricated paths "m x .. d".

    Without [ws] the solve builds a workspace of its own: three slabs of
    [max_lanes] planes, about 59 MB of address space at n = 39 056,
    committed only where touched.  Repeated callers pass a reused one.

    Raises [Invalid_argument] when the lane count exceeds [max_lanes],
    any id is out of range, some attacker equals [dst],
    [attacker_claim < 0], or the graph has more than
    {!Topology.Graph.max_ases} ASes (only a graph built with
    {!Topology.Graph.unsafe_of_adjacency} can). *)

val iter_fixed : t -> (v:int -> mask:int -> word:int -> parent:int -> unit) -> unit
(** Iterate every frozen group of every reached AS, in ascending AS
    order, all groups of one AS consecutively.  [mask] is the lane
    set (nonempty; masks of one AS are disjoint), [word] the shared
    packed candidate — decode with {!Packed} — and [parent] the
    representative next hop.  Root groups carry class code 3: the
    destination's full-lane root and, at each attacker, the bogus-origin
    root of its own lane.  Consumers that need the state itself, not
    just its counts ({!endpoints}), walk the groups here: one callback
    per group, not per lane, so no [lanes t] outcome records are
    materialized.  ASes unreached in some lane simply have no group
    containing that lane. *)

type endpoints = { d_only : int; m_only : int; both : int }
(** One lane's sources by the endpoints of their stable routes: to the
    destination only, to the attacker only, or tied between both.
    Sources in none of the three are unreached.  The destination and
    the lane's attacker are not sources.  The attacker-free lane has
    [m_only = both = 0]. *)

val endpoints : t -> endpoints array
(** Per-lane {!endpoints}, in lane order.  The drain counts them while
    it settles each lane (bit-sliced {!Prelude.Lane_counter}s in the
    workspace), so reading them costs O(lanes), not a walk over the
    groups.  They equal what a walk over {!iter_fixed}'s non-root groups
    would tally, each group's mask counted under its word's flags. *)

val groups : t -> int
(** The number of groups {!iter_fixed} visits, counted from the per-AS
    group counts without visiting them (O(reached ASes)). *)

val decode : ?into:Outcome.t -> t -> lane:int -> Outcome.t
(** [decode t ~lane] expands one lane into a full {!Outcome.t} whose
    attacker is the lane's ([None] for the attacker-free lane).  [into]
    reuses an outcome record, which {!Outcome.reset} may replace by a
    larger one; a fresh record is independent of the workspace.  Used by
    {!Engine.compute}, the divergence checker and anywhere one lane's
    full state is needed. *)

val group_of : t -> v:int -> lane:int -> (int * int * int) option
(** [group_of t ~v ~lane] is the [(mask, word, parent)] group at AS [v]
    whose mask contains [lane], or [None] if [v] is unreached in that
    lane.  Diagnostic accessor for the divergence checker's packed-lane
    reports. *)
