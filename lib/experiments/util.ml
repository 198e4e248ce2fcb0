(* Small shared helpers for experiment modules. *)

let pct = Prelude.Stats.percent

let pct_bounds (b : Metric.H_metric.bounds) =
  Printf.sprintf "[%s, %s]" (pct b.Metric.H_metric.lb) (pct b.Metric.H_metric.ub)

(* Render a metric improvement: the change in the pessimistic world and
   in the optimistic world. *)
let pct_delta (b : Metric.H_metric.bounds) =
  Printf.sprintf "%+.1f%% / %+.1f%%" (100. *. b.Metric.H_metric.lb)
    (100. *. b.Metric.H_metric.ub)

(* Average partition fractions over a set of attacker-destination pairs:
   a fold of {!Metric.Partition.counts}, which classifies whole words
   of pairs (reachability-closure lanes for security 1st/2nd, batched
   solves of the S = {} state for LPk security 2nd and security 3rd, the
   latter through the metric cache).  One [counts] call over every
   set's pairs, so words fill across sets, then one fold per set.
   Integer counts, so the reduction is order-insensitive anyway; it
   still runs in input order. *)
let partition_fractions_sets ?pool ?cache g policy sets =
  let counts =
    Metric.Partition.counts ?pool ?cache g policy
      (Array.concat (Array.to_list sets))
  in
  let off = ref 0 in
  Array.map
    (fun pairs ->
      let len = Array.length pairs in
      let total =
        Array.fold_left Metric.Partition.add Metric.Partition.zero
          (Array.sub counts !off len)
      in
      off := !off + len;
      Metric.Partition.fractions total)
    sets

let partition_fractions ?pool ?cache g policy pairs =
  (partition_fractions_sets ?pool ?cache g policy [| pairs |]).(0)

let partition_fractions_by ?pool g policy pairs ~groups ~group =
  let total = Array.make groups Metric.Partition.zero in
  Array.iter
    (Array.iteri (fun i c -> total.(i) <- Metric.Partition.add total.(i) c))
    (Metric.Partition.counts_by ?pool g policy pairs ~groups ~group);
  Array.map Metric.Partition.fractions total

(* H over pairs, and the improvement over the empty deployment. *)
let h ?pool ?cache g policy dep pairs =
  Metric.H_metric.h_metric ?pool ?cache g policy dep pairs

let header title paper =
  Printf.sprintf "=== %s ===\n(paper: %s)\n" title paper

(* Shared samples for the Section-5 rollout-family experiments
   (rollout, per-destination, early-adopters).  Attackers are prefixes
   of one seeded pool draw (a prefix of a uniform sample without
   replacement is itself uniform), and secure destinations come from one
   global priority order, so samples nest across experiments and steps.
   Deployments repeat across the family — Figure 9's scenario is exactly
   the Figure 7(a) chain's middle step, Figures 10/12 are rollout
   endpoints — so with nested samples the shared result cache serves the
   repeated (policy, deployment, pair) evaluations across experiments. *)
let rollout_attackers (ctx : Context.t) ~k =
  let full =
    Context.sample ctx "rollout-att" ctx.Context.non_stubs
      (Context.scaled ctx 30)
  in
  Array.sub full 0 (min (Context.scaled ctx k) (Array.length full))

let secure_dsts (ctx : Context.t) dep ~k =
  Context.priority_sample ctx "rollout-securedst"
    (Deployment.secure_list dep) (Context.scaled ctx k)

(* Per-destination metric, for the Figure 9/10/12 sequences: one
   [pair_endpoints] per deployment over every destination's pairs (its
   attackers in input order, skipping itself), then the mean over each
   destination's slice. *)
let per_destination_changes ?pool ?cache g policy dep ~attackers ~dsts =
  let module H = Metric.H_metric in
  let n = Topology.Graph.n g in
  let per_dst =
    Array.map
      (fun dst ->
        Array.of_list
          (List.filter_map
             (fun m -> if m = dst then None else Some { H.attacker = m; dst })
             (Array.to_list attackers)))
      dsts
  in
  let pairs = Array.concat (Array.to_list per_dst) in
  let h dep =
    let vals =
      Array.map (H.endpoint_bounds ~n)
        (H.pair_endpoints ?pool ?cache g policy dep pairs)
    in
    let off = ref 0 in
    Array.map
      (fun ps ->
        let b = H.mean (Array.sub vals !off (Array.length ps)) in
        off := !off + Array.length ps;
        b)
      per_dst
  in
  let base = h (Deployment.empty n) in
  let with_s = h dep in
  Array.mapi
    (fun i dst -> (dst, with_s.(i), H.bounds_improvement with_s.(i) base.(i)))
    dsts
