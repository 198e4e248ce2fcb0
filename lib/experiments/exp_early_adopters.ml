(* Section 5.3.1: choosing early adopters.  Paper: deployments at the
   Tier 1s (even with the CPs, >20% of the graph) improve the average
   per-secure-destination metric by < 0.2% under security 2nd/3rd, while
   the 13 largest Tier 2s and their stubs already give ~1%. *)

let name = "early-adopters"
let title = "Section 5.3.1: Tier 1s vs Tier 2s as early adopters"
let paper = "Section 5.3.1"

let scenarios (ctx : Context.t) =
  [
    ( "all T1s + their stubs",
      Deployment.tier1_and_stubs ctx.graph ctx.tiers );
    ( "T1s + CPs + their stubs",
      Deployment.tier1_and_stubs ~with_cps:true ctx.graph ctx.tiers );
    ( "13 largest T2s + their stubs",
      Deployment.tier2_only ctx.graph ctx.tiers ~n_t2:13 );
  ]

let run (ctx : Context.t) =
  (* Shared rollout-family samples: the third scenario is the Figure 11
     chain's first step, so with nested samples its per-destination
     bounds are already cached when the rollout experiment ran first. *)
  let attackers = Util.rollout_attackers ctx ~k:25 in
  let table =
    Prelude.Table.create
      ~header:
        [ "deployment"; "secure"; "model"; "avg dH (pessimistic)"; "(optimistic)" ]
  in
  List.iter
    (fun (label, dep) ->
      let dsts = Util.secure_dsts ctx dep ~k:80 in
      List.iter
        (fun policy ->
          let deltas =
            Util.per_destination_changes ~pool:(Context.pool ctx)
              ~cache:(Context.cache ctx) ctx.graph policy dep ~attackers ~dsts
          in
          let mean f = Prelude.Stats.mean (Array.map (fun (_, _, b) -> f b) deltas) in
          Prelude.Table.add_row table
            [
              label;
              Deployment.describe dep;
              Routing.Policy.name policy;
              Util.pct (mean (fun b -> b.Metric.H_metric.lb));
              Util.pct (mean (fun b -> b.Metric.H_metric.ub));
            ])
        [ Context.sec2; Context.sec3 ];
      Prelude.Table.add_separator table)
    (scenarios ctx);
  Util.header title paper ^ Prelude.Table.to_string table
