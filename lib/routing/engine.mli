(** Stable-state computation for routing with partially deployed S*BGP in
    the presence of the "m d" attack of Section 3.1.

    This is the generalized form of the multi-stage BFS of Appendix B:
    a label-setting (Dijkstra-style) computation over the dense preference
    ranks of {!Policy.rank}.  Correctness rests on the ranks being strictly
    monotone along route extensions — extending a fixed route by one hop
    always yields a strictly worse rank, for every model and LP variant —
    so fixing ASes in rank order reproduces exactly the stable state that
    the staged algorithm (and, by the paper's Lemmas B.2-B.15, the S*BGP
    convergence process) arrives at.  The agreement with the literal
    staged algorithm ({!Staged}) and with the dynamic message-passing
    simulator is property-tested.

    Export policy (Ex): an AS announces a customer route to everyone and
    any other route to its customers only.  The destination announces its
    own prefix to everyone; the attacker announces the bogus route "m d"
    to all its neighbors via legacy BGP. *)

type tiebreak =
  | Bounds
      (** Leave TB unresolved: track every equally-best route's endpoint,
          yielding the lower/upper happiness bounds of Section 4.1. *)
  | Lowest_next_hop
      (** Deterministic TB: among equally-best routes keep the one whose
          next hop has the smallest AS number.  Used for cross-validation
          with the dynamic simulator. *)

module Packed : sig
  (** The packed candidate-word layout shared by this kernel and the
      batched kernel ({!Batch}), LSB-first:

      {v
        bit  0      to_m   — some equally-best route leads to the attacker
        bit  1      to_d   — some equally-best route leads to the destination
        bit  2      secure — the route is fully signed and validated
        bits 3-4    cls    — 0 customer / 1 peer / 2 provider / 3 root
        bits 5-28   len    — perceived path length (max_len = n + 1 < 2^24)
        bits 29-62  rank   — Policy.rank of (cls, len, secure)
      v}

      The rank is injective on (cls, len, secure), so equal ranks imply
      equal decoded fields — the property that lets the batched kernel
      share one word across a whole lane group. *)

  val to_m_flag : int
  val to_d_flag : int
  val len_mask : int
  val rank_shift : int

  val pack :
    rank:int -> cls_code:int -> len:int -> secure:bool -> flags:int -> int
  (** [flags] is a pre-or'd subset of [to_m_flag lor to_d_flag]. *)

  val len_of : int -> int
  val cls_code_of : int -> int
  val secure_of : int -> bool
  val to_d_of : int -> bool
  val to_m_of : int -> bool

  val describe : int -> string
  (** All decoded fields of a packed word, for divergence diagnostics. *)
end

module Workspace : sig
  (** Reusable scratch buffers for {!compute}.

      One stable-state computation needs ~7 size-n candidate arrays, a
      bucket queue sized by the policy's rank bound, and the outcome
      record itself.  The experiment suite runs thousands of independent
      computations over the same graph, so allocating these per call
      dominates the small-instance runtime.  A workspace owns all of them
      and revalidates the candidate arrays with an epoch stamp (O(1) per
      reuse) instead of re-filling.

      A workspace is {e not} thread-safe: use one per domain.  {!local}
      returns the calling domain's private workspace, which is what pool
      workers use. *)

  type t

  val create : int -> t
  (** [create n] preallocates for graphs of up to [n] ASes; the buffers
      grow automatically if a larger graph is computed. *)

  val local : unit -> t
  (** The calling domain's lazily-created private workspace (domain-local
      storage).  Safe to use from any domain, including pool workers —
      each domain gets its own. *)
end

val compute :
  ?tiebreak:tiebreak ->
  ?attacker_claim:int ->
  ?ws:Workspace.t ->
  Topology.Graph.t ->
  Policy.t ->
  Deployment.t ->
  dst:int ->
  attacker:int option ->
  Outcome.t
(** [compute g policy dep ~dst ~attacker] returns the stable routing
    state toward [dst].  [attacker = None] computes normal conditions.
    Default tiebreak is [Bounds].

    [attacker_claim] is the length of the bogus path the attacker claims
    (default 1 — the paper's "m d" announcement).  [0] models an
    unauthorized origination of the victim's prefix (a classic prefix
    hijack, only meaningful when origin authentication is absent); larger
    values model longer fabricated paths "m x .. d".

    [ws] reuses the given workspace's buffers instead of allocating.
    The returned outcome is then owned by the workspace: it stays valid
    only until the next [compute] with the same workspace.  Callers that
    keep outcomes around (or compare two of them) must either use
    distinct workspaces or omit [ws].  Results are bit-identical with and
    without [ws].

    Raises [Invalid_argument] if [attacker = Some dst], ids are out of
    range, or [attacker_claim < 0]. *)
