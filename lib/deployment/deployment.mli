(** S*BGP deployment scenarios: which ASes are secure, and how.

    An AS is either [Off] (legacy BGP), [Simplex] (signs its own origin
    announcements but neither validates nor re-signs — the lightweight
    stub deployment of Section 5.3.2), or [Full] (validates, prefers
    secure routes per the active security model, and re-signs). *)

type mode = Off | Simplex | Full

type t

val empty : int -> t
(** The baseline scenario S = emptyset: only origin authentication. *)

val of_modes : mode array -> t
val make : n:int -> full:int array -> ?simplex:int array -> unit -> t
(** ASes listed in both [full] and [simplex] end up [Full]. *)

val n : t -> int
val mode : t -> int -> mode

val is_full : t -> int -> bool
(** The AS validates and re-signs (participates in secure paths as a
    transit/source). *)

val signs_origin : t -> int -> bool
(** The AS's own announcements are signed ([Full] or [Simplex]); routes
    {e to} such a destination can be secure. *)

val count_secure : t -> int
(** Number of ASes that are not [Off]. *)

val secure_list : t -> int array
(** ASes that are not [Off], ascending. *)

val union : t -> t -> t
(** Pointwise maximum of modes ([Off] < [Simplex] < [Full]).  Raises
    [Invalid_argument] on size mismatch. *)

val subset : t -> t -> bool
(** [subset s t]: every AS at least as secure in [t] as in [s]. *)

val equal : t -> t -> bool
(** Pointwise mode equality (false on size mismatch). *)

val fingerprint : t -> int
(** Non-negative content hash of the mode vector, stable across runs.
    [equal a b] implies [fingerprint a = fingerprint b]; the metric-layer
    cache uses it to intern deployment versions cheaply.  O(n) on the
    first call per deployment, then memoized. *)

(** {1 Scenarios from Section 5}

    All scenario constructors secure the listed ISPs in [Full] mode and
    their stub customers in [stub_mode] (default [Full]; pass [Simplex]
    for the simplex variant shown as "error bars" in Figure 7). *)

val isps_and_stubs :
  ?stub_mode:mode ->
  Topology.Graph.t ->
  Topology.Tiers.t ->
  isps:int array ->
  t
(** Secure the given ISPs in full mode plus their tier-classified stub
    customers in [stub_mode].  ASes that look like stubs in the graph but
    are classified elsewhere by Table 1 (e.g. content providers) are not
    included. *)

val tier1_tier2 :
  ?stub_mode:mode ->
  Topology.Graph.t ->
  Topology.Tiers.t ->
  n_t1:int ->
  n_t2:int ->
  t
(** The Tier 1 + Tier 2 rollout of Section 5.2.1: the [n_t1] largest
    Tier 1s and [n_t2] largest Tier 2s (by customer degree) plus their
    stubs. *)

val with_cps : Topology.Graph.t -> Topology.Tiers.t -> t -> t
(** Add all content providers (and their stubs) to a scenario
    (Section 5.2.2). *)

val tier2_only :
  ?stub_mode:mode -> Topology.Graph.t -> Topology.Tiers.t -> n_t2:int -> t
(** The Tier 2 rollout of Section 5.2.4. *)

val non_stubs : Topology.Graph.t -> Topology.Tiers.t -> t
(** All non-stub ASes secure (Section 5.2.4). *)

val tier1_and_stubs :
  ?with_cps:bool -> Topology.Graph.t -> Topology.Tiers.t -> t
(** Section 5.3.1's early-adopter scenarios: all Tier 1s and their stubs,
    optionally plus the content providers and theirs. *)

val describe : t -> string
