type cls = Doomed | Protectable | Immune | Unreachable

type counts = {
  doomed : int;
  protectable : int;
  immune : int;
  unreachable : int;
  sources : int;
}

let zero = { doomed = 0; protectable = 0; immune = 0; unreachable = 0; sources = 0 }

let add a b =
  {
    doomed = a.doomed + b.doomed;
    protectable = a.protectable + b.protectable;
    immune = a.immune + b.immune;
    unreachable = a.unreachable + b.unreachable;
    sources = a.sources + b.sources;
  }

let fractions c =
  let f n = Prelude.Stats.fraction n c.sources in
  (f (c.doomed + c.unreachable), f c.protectable, f c.immune)

let classify ~d_ok ~m_ok =
  match (d_ok, m_ok) with
  | true, true -> Protectable
  | true, false -> Immune
  | false, true -> Doomed
  | false, false -> Unreachable

(* Security 3rd (any LP variant): the (class, length) prefix of the rank is
   deployment-invariant, so the endpoints of the baseline best-route set
   decide (Corollary E.1). *)
let sec3_partition ~attacker ~dst out =
  Array.init (Routing.Outcome.n out) (fun v ->
      if v = attacker || v = dst then Unreachable
      else
        classify
          ~d_ok:(Routing.Outcome.to_d out v)
          ~m_ok:(Routing.Outcome.to_m out v))

(* Security 1st: Observations E.3 / E.4, exactly. *)
let sec1_partition g ~attacker ~dst n =
  let reach_d = Routing.Reach.compute g ~root:dst ~avoid:attacker () in
  let reach_m = Routing.Reach.compute g ~root:attacker ~avoid:dst () in
  Array.init n (fun v ->
      if v = attacker || v = dst then Unreachable
      else
        classify
          ~d_ok:(Routing.Reach.any reach_d v)
          ~m_ok:(Routing.Reach.any reach_m v))

(* Security 2nd with the standard LP: the best local-preference class is
   deployment-invariant (Corollary E.2); classify by the endpoints of the
   class-restricted perceivable routes. *)
let sec2_standard_partition g ~attacker ~dst n =
  let reach_d = Routing.Reach.compute g ~root:dst ~avoid:attacker () in
  let reach_m = Routing.Reach.compute g ~root:attacker ~avoid:dst () in
  Array.init n (fun v ->
      if v = attacker || v = dst then Unreachable
      else
        let best =
          match
            (Routing.Reach.best_class reach_d v, Routing.Reach.best_class reach_m v)
          with
          | None, None -> None
          | (Some _ as c), None | None, (Some _ as c) -> c
          | Some a, Some b -> Some (if a <= b then a else b)
        in
        match best with
        | None -> Unreachable
        | Some cls ->
            classify
              ~d_ok:(Routing.Reach.in_class reach_d cls v)
              ~m_ok:(Routing.Reach.in_class reach_m cls v))

(* Security 2nd with LPk: the classes are length-refined, and — unlike the
   standard LP — an AS holding a customer route may CHOOSE a peer route of
   a better LPk class, in which case Ex stops it from exporting to peers
   and providers.  Raw perceivable closures therefore overcount.  We use
   instead the {e class-respecting} candidate structure: each AS's LPk
   class bucket is deployment-invariant (the same induction as Corollary
   E.2, over buckets), so an AS only ever holds, and exports, routes of
   its own bucket.  Reachability of each root through chains in which
   every AS's suffix fits its own bucket decides the partition.

   Length sets are tracked as a bitmask for lengths <= k plus an "over k"
   flag (inside the C>k / P>k buckets only existence matters).  Requires
   an acyclic hierarchy; the customer DP runs bottom-up (customers before
   providers) and the provider closure top-down. *)

type bucket =
  | B_cust of int   (* customer route of length j <= k *)
  | B_cust_over     (* customer route of length > k *)
  | B_peer of int
  | B_peer_over
  | B_prov
  | B_none          (* unreached at baseline *)

let bucket_of ~k out v =
  if not (Routing.Outcome.reached out v) then B_none
  else begin
    let len = Routing.Outcome.length out v in
    match Routing.Outcome.route_class out v with
    | Routing.Policy.Customer -> if len <= k then B_cust len else B_cust_over
    | Routing.Policy.Peer -> if len <= k then B_peer len else B_peer_over
    | Routing.Policy.Provider -> B_prov
  end

let sec2_lpk_partition ?ws g policy ~k ~attacker ~dst n =
  if k > 60 then failwith "Partition: Lp_k with k > 60 unsupported";
  let base =
    Routing.Engine.compute ?ws g policy (Deployment.empty n) ~dst
      ~attacker:(Some attacker)
  in
  let bucket =
    Array.init n (fun v ->
        if v = dst || v = attacker then B_none else bucket_of ~k base v)
  in
  let full_mask = (1 lsl (k + 1)) - 1 in
  (* Topological order of the customer-provider hierarchy, customers
     first; built once per graph. *)
  let topo =
    match Topology.Graph.hierarchy g with
    | Ok order -> order
    | Error _ -> failwith "Partition: customer-provider hierarchy has a cycle"
  in
  (* Per root: does each AS have a class-respecting candidate route to it
     within its own bucket? *)
  let reach_root ~root ~offset ~avoid =
    (* What a non-root AS exports upward/sideways: its customer-bucket
       lengths only. *)
    let cust_mask = Array.make n 0 in
    let cust_over = Array.make n false in
    let clamped u =
      if u = root then ((if offset <= k then 1 lsl offset else 0), offset > k)
      else
        match bucket.(u) with
        | B_cust j -> (cust_mask.(u) land (1 lsl j), false)
        | B_cust_over -> (0, cust_over.(u))
        | B_peer _ | B_peer_over | B_prov | B_none -> (0, false)
    in
    let shift (mask, over) =
      ((mask lsl 1) land full_mask, over || mask land (1 lsl k) <> 0)
    in
    (* Customer chains, bottom-up. *)
    Array.iter
      (fun u ->
        if u <> avoid then begin
          let cmask, cover = shift (clamped u) in
          if cmask <> 0 || cover then
            Array.iter
              (fun p ->
                if p <> avoid && p <> root then begin
                  cust_mask.(p) <- cust_mask.(p) lor cmask;
                  cust_over.(p) <- cust_over.(p) || cover
                end)
              (Topology.Graph.providers g u)
        end)
      topo;
    (* Peer candidates: one hop off a customer-bucket neighbor (or the
       root). *)
    let peer_sets v =
      Array.fold_left
        (fun acc u ->
          if u = avoid then acc
          else begin
            let mask, over = shift (clamped u) in
            (fst acc lor mask, snd acc || over)
          end)
        (0, false) (Topology.Graph.peers g v)
    in
    (* avail.(v): v has a candidate to the root within its own bucket.
       Provider buckets close top-down: a provider route to the root via
       u exists iff u is the root or u's chosen route can lead there. *)
    let avail = Array.make n false in
    let avail_non_prov v =
      match bucket.(v) with
      | B_cust j -> cust_mask.(v) land (1 lsl j) <> 0
      | B_cust_over -> cust_over.(v)
      | B_peer j -> fst (peer_sets v) land (1 lsl j) <> 0
      | B_peer_over -> snd (peer_sets v)
      | B_prov | B_none -> false
    in
    for i = n - 1 downto 0 do
      let v = topo.(i) in
      if v <> avoid && v <> root then
        avail.(v) <-
          (match bucket.(v) with
          | B_prov ->
              Array.exists
                (fun u -> u <> avoid && (u = root || avail.(u)))
                (Topology.Graph.providers g v)
          | B_cust _ | B_cust_over | B_peer _ | B_peer_over ->
              avail_non_prov v
          | B_none -> false)
    done;
    avail
  in
  let avail_d = reach_root ~root:dst ~offset:0 ~avoid:attacker in
  let avail_m = reach_root ~root:attacker ~offset:1 ~avoid:dst in
  Array.init n (fun v ->
      if v = attacker || v = dst then Unreachable
      else classify ~d_ok:avail_d.(v) ~m_ok:avail_m.(v))

let compute ?ws g policy ~attacker ~dst =
  let n = Topology.Graph.n g in
  (* Validate here so every model raises the same error, instead of
     leaking whichever internal helper trips first (the security-1st
     path used to surface "Reach.compute: root = avoid" for m = d). *)
  if dst < 0 || dst >= n then
    invalid_arg "Partition.compute: dst out of range";
  if attacker < 0 || attacker >= n then
    invalid_arg "Partition.compute: attacker out of range";
  if attacker = dst then invalid_arg "Partition.compute: attacker = dst";
  match (policy : Routing.Policy.t).model with
  | Security_third ->
      let out =
        Routing.Engine.compute ?ws g policy (Deployment.empty n) ~dst
          ~attacker:(Some attacker)
      in
      sec3_partition ~attacker ~dst out
  | Security_first -> sec1_partition g ~attacker ~dst n
  | Security_second -> (
      match (policy : Routing.Policy.t).lp with
      | Standard -> sec2_standard_partition g ~attacker ~dst n
      | Lp_k k -> sec2_lpk_partition ?ws g policy ~k ~attacker ~dst n)

let one_source = function
  | Doomed -> { zero with doomed = 1; sources = 1 }
  | Protectable -> { zero with protectable = 1; sources = 1 }
  | Immune -> { zero with immune = 1; sources = 1 }
  | Unreachable -> { zero with unreachable = 1; sources = 1 }

let count_by ?ws g policy ~attacker ~dst ~groups ~group =
  let classes = compute ?ws g policy ~attacker ~dst in
  let by = Array.make groups zero in
  Array.iteri
    (fun v cls ->
      let i = group v in
      if v <> attacker && v <> dst && i >= 0 && i < groups then
        by.(i) <- add by.(i) (one_source cls))
    classes;
  by

let count ?ws g policy ~attacker ~dst =
  (count_by ?ws g policy ~attacker ~dst ~groups:1 ~group:(fun _ -> 0)).(0)

(* Security 3rd reads the endpoints of the attacked state under S = {}
   (Corollary E.1): to the destination only is immune, to the attacker
   only doomed, tied protectable, and an AS with no route in a lane is
   unreachable.  That state is the very one H(emptyset) measures, so
   the counts come from {!H_metric.pair_endpoints} and share its
   cache slots (the destination never signs under S = {}, so the slot
   is the normalized one every model and deployment shares). *)
let of_endpoints ~n (e : Routing.Batch.endpoints) =
  let sources = n - 2 in
  {
    doomed = e.m_only;
    protectable = e.both;
    immune = e.d_only;
    unreachable = sources - e.m_only - e.both - e.d_only;
    sources;
  }

let sec3_counts ?pool ?cache g policy pairs =
  (match (policy : Routing.Policy.t).model with
  | Security_third -> ()
  | Security_first | Security_second ->
      invalid_arg "Partition.sec3_counts: policy is not security 3rd");
  let n = Topology.Graph.n g in
  Array.map (of_endpoints ~n)
    (H_metric.pair_endpoints ?pool ?cache g policy (Deployment.empty n) pairs)
