(* Small shared helpers for experiment modules. *)

let pct = Prelude.Stats.percent

let pct_bounds (b : Metric.H_metric.bounds) =
  Printf.sprintf "[%s, %s]" (pct b.Metric.H_metric.lb) (pct b.Metric.H_metric.ub)

(* Render a metric improvement: the change in the pessimistic world and
   in the optimistic world. *)
let pct_delta (b : Metric.H_metric.bounds) =
  Printf.sprintf "%+.1f%% / %+.1f%%" (100. *. b.Metric.H_metric.lb)
    (100. *. b.Metric.H_metric.ub)

(* Average partition fractions over a set of attacker-destination pairs.
   The per-pair classifications are independent; fan them out over the
   pool (integer counts, so the reduction is order-insensitive anyway —
   we still reduce in input order). *)
let partition_counts ?pool pairs ~count_one =
  let per_pair =
    Parallel.map ?pool
      (fun { Metric.H_metric.attacker; dst } ->
        count_one ~ws:(Routing.Engine.Workspace.local ()) ~attacker ~dst)
      pairs
  in
  Array.fold_left Metric.Partition.add Metric.Partition.zero per_pair

let partition_fractions ?pool g policy pairs =
  let total =
    (* Security 3rd classifies off one attacked solve, so pairs sharing
       a destination ride one batched drain; the other models derive
       the partition from reachability closures and stay per-pair. *)
    match (policy : Routing.Policy.t).model with
    | Security_third ->
        let per_item =
          Parallel.map ?pool
            (fun (dst, attackers, _pos) ->
              Array.fold_left Metric.Partition.add Metric.Partition.zero
                (Metric.Partition.sec3_count_batch
                   ~ws:(Routing.Batch.Workspace.local ())
                   g policy ~dst ~attackers))
            (Metric.H_metric.batch_plan pairs)
        in
        Array.fold_left Metric.Partition.add Metric.Partition.zero per_item
    | Security_first | Security_second ->
        partition_counts ?pool pairs ~count_one:(fun ~ws ~attacker ~dst ->
            Metric.Partition.count ~ws g policy ~attacker ~dst)
  in
  Metric.Partition.fractions total

let partition_fractions_among ?pool g policy pairs ~sources =
  Metric.Partition.fractions
    (partition_counts ?pool pairs ~count_one:(fun ~ws ~attacker ~dst ->
         Metric.Partition.count_among ~ws g policy ~attacker ~dst ~sources))

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

(* Per-destination metric change, for the Figure 9/10/12 sequences.
   Parallelism is per destination (the coarsest independent unit here);
   the inner h_metric calls then run sequentially in their worker — a
   nested pool map would degrade to sequential anyway. *)
let per_destination_changes ?pool ?cache g policy dep ~attackers ~dsts =
  (* Intern the deployment versions up front so worker domains only take
     the interning mutex on a version already present. *)
  (match cache with
  | None -> ()
  | Some c ->
      ignore (Metric.H_metric.Cache.intern c g dep);
      ignore
        (Metric.H_metric.Cache.intern c g
           (Deployment.empty (Topology.Graph.n g))));
  Parallel.map ?pool
    (fun dst ->
      let base =
        Metric.H_metric.h_metric_per_dst ?cache g policy
          (Deployment.empty (Topology.Graph.n g))
          ~attackers ~dst
      in
      let with_s =
        Metric.H_metric.h_metric_per_dst ?cache g policy dep ~attackers ~dst
      in
      (dst, Metric.H_metric.bounds_improvement with_s base))
    dsts
