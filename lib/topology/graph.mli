(** AS-level topology: an undirected graph whose edges are annotated with a
    business relationship, following the classic Gao-Rexford model used by
    the paper (Section 2.2).

    ASes are dense integer identifiers [0 .. n-1].  An edge is either
    {e customer-to-provider} (the customer pays the provider) or
    {e peer-to-peer}.

    A graph carries up to two interchangeable adjacency representations —
    per-AS [int array] tables and an off-heap {!Csr} view — each built
    lazily from the other and cached, so a graph loaded from a binary
    snapshot ({!Serial.load_snapshot}) can run the routing kernels without
    ever materializing per-AS arrays, and a graph built from edges pays
    for the CSR only when a kernel first asks for it. *)

type t

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Off-heap native-int array: unboxed elements outside the OCaml heap
    (the GC never scans them) and directly mmap-able from a snapshot. *)

module Csr : sig
  (** Flat compressed-sparse-row view of the adjacency, for kernels that
      scan whole neighborhoods: every neighbor of every AS in one
      contiguous [adj] array, one row per AS, segmented as
      customers | peers | providers.  [xs] holds the [3n + 1] segment
      boundaries:

      - customers of [v]: [adj.{xs.{3v}} .. adj.{xs.{3v+1} - 1}]
      - peers of [v]:     [adj.{xs.{3v+1}} .. adj.{xs.{3v+2} - 1}]
      - providers of [v]: [adj.{xs.{3v+2}} .. adj.{xs.{3v+3} - 1}]

      Row [v+1] starts where row [v] ends.  Each segment is sorted
      ascending (same order as {!customers} etc.).  Both arrays live
      outside the OCaml heap ({!ints}); they are owned by the graph and
      must not be mutated. *)
  type t = private { adj : ints; xs : ints }
end

val csr : t -> Csr.t
(** The graph's CSR view, built on first use and cached on the graph.
    Concurrent first calls from several domains may build it redundantly
    (identical results; last write wins) — never inconsistently. *)

type edge =
  | Customer_provider of int * int  (** [(c, p)]: [c] is a customer of [p] *)
  | Peer_peer of int * int

val max_ases : int
(** The largest AS count a graph may have: 2{^24} - 2, so that every
    path length the routing kernel packs (at most [n + 1]) fits its
    24-bit length field.  {!of_edges}, {!of_csr} and the text parsers
    reject larger graphs before allocating them. *)

val of_edges : n:int -> edge list -> t
(** Build a graph over [n] ASes.  Raises [Invalid_argument] on
    [n > max_ases], self loops, out-of-range endpoints, or an AS pair
    appearing with two different relationships.  Duplicate identical
    edges are collapsed. *)

val of_csr : adj:ints -> xs:ints -> t
(** Wrap a raw CSR pair (typically mapped from a snapshot) after full
    validation: consistent dimensions, monotone boundaries, in-range
    neighbors, sorted duplicate-free segments, no self loops, and
    mutual (symmetric) adjacency with matching relationship classes.
    Raises [Invalid_argument] naming the violated invariant.  The
    arrays become owned by the graph and must not be mutated. *)

val unsafe_of_adjacency :
  customers:int array array ->
  providers:int array array ->
  peers:int array array ->
  t
(** Wrap raw adjacency tables with {e no} validation: self loops,
    duplicates, asymmetric or unsorted tables all pass through untouched.
    Exists so the checker's mutant suite and tests can build deliberately
    malformed graphs that {!of_edges} would reject; cached edge counts are
    derived from the customer/peer tables.  Never use it for real data —
    every invariant of this module's documentation is the caller's
    problem. *)

val n : t -> int

val version : t -> int
(** Process-unique identity of this graph value, from a global counter:
    two distinct graphs never share a version, so caches keyed on
    [(version, deployment)] can never serve one topology's outcome for
    another.  Purely a cache key — no computed result depends on it. *)

val customers : t -> int -> int array
(** [customers g v] are the neighbors that are customers of [v].  The
    returned array is owned by the graph and must not be mutated.  On a
    CSR-only graph (snapshot-loaded) the first call materializes all
    three tables, O(edges) once. *)

val providers : t -> int -> int array
val peers : t -> int -> int array

val customer_degree : t -> int -> int
val peer_degree : t -> int -> int
val provider_degree : t -> int -> int
(** The three relationship degrees read the CSR's segment bounds when
    the graph has one, so they never materialise the per-AS tables. *)

val degree : t -> int -> int

val num_customer_provider_edges : t -> int
val num_peer_edges : t -> int

val is_stub : t -> int -> bool
(** No customers (paper: "Stubs" plus "Stubs-x"). *)

val relationship : t -> int -> int -> edge option
(** The relationship of an AS pair, in canonical form
    ([Customer_provider (c, p)], or [Peer_peer (a, b)] with [a < b]);
    [None] when the pair is not adjacent.  O(log degree).  Raises
    [Invalid_argument] on out-of-range or equal endpoints. *)

val edges : t -> edge list
(** Every edge exactly once ([Customer_provider (c, p)] and
    [Peer_peer (a, b)] with [a < b]). *)

val hierarchy : t -> (int array, int array) result
(** The customer-to-provider digraph in topological order: [Ok order]
    lists every AS once, each customer before its providers; [Error
    cycle] lists, ascending, the ASes that sit on or above a
    customer-to-provider cycle (acyclicity is the standard sanity
    condition on annotated AS graphs).  Computed once per graph (Kahn's
    algorithm) and memoized; do not mutate the returned array. *)

val connected : t -> bool
(** Whether the underlying undirected graph is connected (trivially true
    for [n <= 1]). *)

(** {2 Topology deltas}

    A {!Delta.t} describes a small edit to a graph — link additions,
    removals, relationship flips — without touching the graph it applies
    to.  {!Delta.apply} materializes the edited graph (sharing every
    untouched adjacency row with its base), and {!overlay} exposes the
    edited adjacency as a cheap {!view} for cone computations that must
    walk the {e post}-delta graph before deciding whether building it is
    worth it. *)

module Delta : sig
  type graph

  type op =
    | Add of edge
        (** The pair must not be adjacent in the base graph. *)
    | Remove of edge
        (** The base graph must carry exactly this relationship. *)
    | Flip of edge
        (** The pair must be adjacent with a {e different} relationship,
            which the flip replaces: a peering becomes the given
            customer-provider edge, or vice versa, or a
            customer-provider edge reverses direction. *)

  type t = op array
  (** Ops of one delta edit {e distinct} pairs: two ops on the same AS
      pair are rejected, so every op is validated against the base
      graph independently of the others. *)

  val endpoints : t -> int array
  (** The distinct ASes incident to any op, sorted ascending. *)

  val apply : graph -> t -> graph
  (** The edited graph: untouched adjacency rows are shared with the
      base (never copied), the edited rows stay sorted, and edge counts
      are maintained.  The result has a fresh {!version} and no cached
      CSR.  Raises [Invalid_argument] when an op's precondition fails
      (naming the pair) or two ops touch the same pair. *)
end
  with type graph := t

type view = {
  view_n : int;
  iter_customers : (int -> unit) -> int -> unit;
  iter_peers : (int -> unit) -> int -> unit;
  iter_providers : (int -> unit) -> int -> unit;
}
(** A read-only adjacency abstraction: just enough for closure-style
    traversals ({!Routing.Reach.compute_view}) to run on either a plain
    graph or a not-yet-materialized delta edit.  Iteration order within
    a segment is unspecified (set semantics). *)

val view : t -> view
(** The graph's own adjacency as a view (CSR-backed when the CSR is
    already built, table-backed otherwise — never forces a build). *)

val overlay : t -> Delta.t -> view
(** The adjacency of [Delta.apply g d] as a view over [g] {e without}
    materializing the edited graph: touched rows filter removed
    neighbors and append added ones on the fly.  Validates the delta
    like {!Delta.apply}. *)
