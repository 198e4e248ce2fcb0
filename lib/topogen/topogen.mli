(** Synthetic Internet-like AS topology generator.

    Substitute for the UCLA AS graph of 24 Sep 2012 used by the paper
    (39 056 ASes, 73 442 customer-provider and 62 129 peer edges; see
    DESIGN.md §4).  The generator builds a strict customer-provider
    hierarchy — so the annotated graph is acyclic and connected by
    construction — with the structural features the paper's analysis
    depends on:

    - a clique of Tier 1 ASes with no providers and huge customer cones;
    - Tier 2 / Tier 3 transit ISPs attached by preferential attachment
      (heavy-tailed customer degrees);
    - designated content-provider ASes with modest transit but rich
      peering (the paper's 17 CPs);
    - "small CP" ASes with high peering degree;
    - a majority of stub ASes (~85%), some multi-homed, some with peering
      (stubs-x), and a fraction homed exclusively to Tier 1s (the paper's
      "Tier 1 stubs", Section 5.2.3). *)

type params = {
  n : int;  (** total ASes; must comfortably exceed the tier sizes below *)
  n_t1 : int;
  n_t2 : int;
  n_t3 : int;
  n_cp : int;
  n_small_cp : int;
  frac_mid : float;      (** fraction of ASes that are small transit (SMDG) *)
  frac_t1_stub : float;  (** fraction of stubs homed only to Tier 1s *)
  frac_stub_x : float;   (** fraction of stubs that also peer *)
  stub_provider_p : float;
      (** geometric parameter: stub has [1 + Geom(p)] providers (capped) *)
  t2_peer_degree : int;  (** mean peers per Tier 2 *)
  t3_peer_degree : int;
  mid_peer_degree : int;
  cp_peer_degree : int;
  small_cp_peer_degree : int;
}

val calibration_n : int
(** Size of the UCLA AS graph of 24 Sep 2012 (39 056 ASes) that the
    Table-1 tier sizes are calibrated against.  [default_params] is
    bit-stable for [n <= calibration_n]; above it the transit and edge
    tier counts scale proportionally with [n]. *)

val default_params : n:int -> params
(** Tier sizes follow the paper's Table 1 (13 / 100 / 100 / 17 / 300),
    scaled down when [n] is small and proportionally up past
    [calibration_n].  The peer degrees give fewer peer edges than UCLA
    has: 39 459 at [n = calibration_n], against UCLA's 62 129. *)

type result = {
  graph : Topology.Graph.t;
  cps : int array;    (** the designated content-provider ASes *)
  levels : int array; (** generation level per AS: 0 = T1 ... 5 = stub *)
}

val generate : ?params:params -> Rng.t -> result
(** Deterministic for a given generator state.  Raises [Invalid_argument]
    naming the offending knob if a parameter is out of range: [n] too
    small for the requested tier sizes, a tier count below 1, a fraction
    outside [0, 1], [stub_provider_p] outside (0, 1], a negative peer
    degree, or — for [n] above [calibration_n] — a transit/edge tier
    count below half the calibrated density (see [calibration_n]). *)

val tiers : result -> Topology.Tiers.t
(** Classify the generated graph with the designated CP list. *)
