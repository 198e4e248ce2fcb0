(** Perceivable-route reachability closures (Definition B.1, Appendix E).

    A route is {e perceivable} at an AS if every hop complies with the
    export policy Ex.  Which ASes have a perceivable customer / peer /
    provider route to a given root is independent of route selection, so
    these closures characterize what any deployment could ever offer —
    the basis of the doomed / protectable / immune partition:

    - customer routes chain through customer-to-provider edges only;
    - a peer route exists where a peer has a perceivable customer route
      (or is the root);
    - provider routes close downward: a provider with any perceivable
      route offers a provider route to each customer.

    Legitimate routes never transit the attacker and attacked routes never
    transit the victim (Section 3.1), hence the [avoid] argument. *)

type t

val compute :
  Topology.Graph.t -> root:int -> ?avoid:int -> ?only:(int -> bool) -> unit -> t
(** Closure of perceivable routes to [root], skipping the AS [avoid]
    entirely.  The root belongs to none of the three sets.

    [only] restricts membership: an AS with [only v = false] joins no
    set and no route may transit it (the root itself is exempt).  With
    [only = Deployment.is_full dep] the closure is exactly the set of
    ASes that could hold a {e secure} perceivable route to the root —
    every hop validates and re-signs — which is what the incremental
    dirty-cone computation ({!Incremental}) uses. *)

val compute_view :
  Topology.Graph.view ->
  root:int ->
  ?avoid:int ->
  ?only:(int -> bool) ->
  unit ->
  t
(** Same closure over an adjacency {!Topology.Graph.view} — in
    particular a {!Topology.Graph.overlay}, so the topology-delta cone
    ({!Incremental.Topo}) can measure post-delta reachability without
    materializing the edited graph.  [compute g] is
    [compute_view (Topology.Graph.view g)]. *)

val customer : t -> int -> bool
(** Has a perceivable customer route to the root. *)

val peer : t -> int -> bool
val provider : t -> int -> bool

val any : t -> int -> bool
(** Has any perceivable route to the root. *)

val union_into : t -> into:Prelude.Bitset.t -> unit
(** Add every AS holding a perceivable route of any class (the root
    itself excluded) to [into].  Raises [Invalid_argument] when the
    universe sizes differ. *)

val best_class : t -> int -> Policy.route_class option
(** Most preferred class (customer > peer > provider) in which the AS has
    a perceivable route, [None] if unreachable. *)

val in_class : t -> Policy.route_class -> int -> bool

(** Up to {!Prelude.Bitset.word_bits} closures in one pass over the graph
    (multi-source bit-parallel BFS): lane [l] is bit [l] of a native
    int, with its own root and its own avoided AS, so the lanes of one
    call need not share a destination or anything else.  Per AS the
    result is three lane masks, one per route class; lane [l] of
    [customer t v] is [customer (compute g ~root ~avoid ()) v] for that
    lane's root and avoided AS, and likewise for the other two classes.

    Three pull passes over the CSR rows compute the masks: customers in
    the hierarchy's topological order, then peers, then providers in
    the reverse order.  On a cyclic hierarchy each pass repeats until
    no mask changes (the least fixpoint, whatever the order).  A warm
    workspace makes a call allocate nothing. *)
module Lanes : sig
  type t
  (** Per-AS mask buffers, grown to the largest graph seen.  Not
      thread-safe: one per domain. *)

  val create : int -> t
  (** [create n] preallocates for graphs of up to [n] ASes. *)

  val compute :
    t ->
    Topology.Graph.t ->
    lanes:int ->
    roots:int array ->
    avoid:int array ->
    unit
  (** [compute t g ~lanes ~roots ~avoid] fills [t] with lanes
      [0 .. lanes - 1]: lane [l] is rooted at [roots.(l)] and skips
      [avoid.(l)] entirely ([-1] for no avoided AS).  Entries past
      [lanes] are ignored.  Raises [Invalid_argument] when [lanes] is
      outside [1 .. word_bits], an id is out of range or a lane's root
      equals its avoided AS. *)

  val customer : t -> int -> int
  (** Lanes in which the AS has a perceivable customer route to the
      lane's root, as of the last {!compute}. *)

  val peer : t -> int -> int
  val provider : t -> int -> int
end
