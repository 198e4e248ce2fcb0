(* Figures 7(a), 7(b), 8 and 11, plus the non-stub deployment of Section
   5.2.4: metric improvements along partial-deployment rollouts.

   Paper expectations: with ~50% of the graph secure (last Tier 1+2
   step), security 1st improves H by ~24 points while security 2nd and
   3rd see only meagre gains; simplex S*BGP at stubs barely moves the
   numbers (the "error bars"); the Tier-2-only rollout grows more slowly
   with a smaller sec1/sec2 gap; securing only non-stubs gives ~6.2 /
   4.7 / 2.2 point worst-case improvements.

   Each (policy, rollout chain) runs through a persistent
   {!Metric.H_metric.Evaluator}: consecutive steps only recompute the
   pairs inside the deployment delta's dirty cone, and all per-pair
   bounds land in the context-wide cache, so the four rollout variants
   (which share attacker/destination samples where the modes agree)
   reuse each other's work — in particular the empty-deployment
   baselines are computed once per (policy, pair set), not once per
   variant. *)

let name = "rollout"
let title = "Figures 7, 8, 11: metric improvement under deployment rollouts"
let paper = "Figures 7(a), 7(b), 8, 11; Sections 5.2-5.3.2"

type step = {
  step_label : string;
  dep : Deployment.t;
  simplex : Deployment.t option;
}

let dep_step ?simplex step_label dep = { step_label; dep; simplex }

(* Average per-destination improvement over secure destinations d in S
   (Figure 7(b)).  The destination sample is drawn once per step and
   shared by the three policy lanes (the estimate is policy-independent
   in distribution, and sharing triples the cache reuse).  It comes from
   {!Util.secure_dsts} — the global priority order shared by the whole
   rollout family: successive steps of a rollout have nested secure
   sets, so their samples overlap maximally: a retained destination's
   empty-deployment baseline, cached at one step, is a hit at the next,
   and a deployment that recurs across variants and experiments hits on
   every pair. *)
let secure_dest_sample (ctx : Context.t) dep ~k = Util.secure_dsts ctx dep ~k

let secure_dest_delta (ctx : Context.t) policy dep ~attackers ~dsts =
  if Array.length dsts = 0 then None
  else begin
    let deltas =
      Util.per_destination_changes ~pool:(Context.pool ctx)
        ~cache:(Context.cache ctx) ctx.graph policy dep ~attackers ~dsts
    in
    let avg f =
      Prelude.Stats.mean (Array.map (fun (_, _, b) -> f b) deltas)
    in
    Some
      {
        Metric.H_metric.lb = avg (fun b -> b.Metric.H_metric.lb);
        ub = avg (fun b -> b.Metric.H_metric.ub);
      }
  end

(* One policy's state across a rollout chain: an evaluator per deployment
   sequence (the simplex-stub variant is its own monotone chain, created
   on first use), plus the empty-deployment baseline. *)
type lane = {
  policy : Routing.Policy.t;
  base_ev : Metric.H_metric.Evaluator.t;
  simplex_ev : Metric.H_metric.Evaluator.t Lazy.t;
  baseline : Metric.H_metric.bounds;
}

let run_rollout (ctx : Context.t) ~steps ~dsts_mode =
  let attackers = Util.rollout_attackers ctx ~k:30 in
  let dsts =
    match dsts_mode with
    | `All -> Context.sample ctx "rollout-dst" ctx.all (Context.scaled ctx 45)
    | `Cps -> ctx.cps
  in
  let pairs = Metric.H_metric.pairs ~attackers ~dsts () in
  let table =
    Prelude.Table.create
      ~header:
        [
          "step";
          "secure";
          "model";
          "dH pessimistic";
          "dH optimistic";
          "dH simplex stubs";
          "dH over d in S";
        ]
  in
  let pool = Context.pool ctx in
  let cache = Context.cache ctx in
  let empty = Deployment.empty (Topology.Graph.n ctx.graph) in
  let lanes =
    List.map
      (fun policy ->
        let base_ev =
          Metric.H_metric.Evaluator.create ~pool ~cache ctx.graph policy pairs
        in
        let baseline = Metric.H_metric.Evaluator.eval base_ev empty in
        let simplex_ev =
          (* Seed the simplex chain at the empty deployment too: that
             first eval is pure cache hits, and every later step only
             recomputes its dirty cone. *)
          lazy
            (let ev =
               Metric.H_metric.Evaluator.create ~pool ~cache ctx.graph policy
                 pairs
             in
             ignore (Metric.H_metric.Evaluator.eval ev empty);
             ev)
        in
        { policy; base_ev; simplex_ev; baseline })
      Context.policies
  in
  List.iter
    (fun step ->
      let sd_dsts = secure_dest_sample ctx step.dep ~k:50 in
      List.iter
        (fun lane ->
          let with_s =
            Metric.H_metric.Evaluator.eval lane.base_ev step.dep
          in
          let delta = Metric.H_metric.bounds_improvement with_s lane.baseline in
          let simplex_cell =
            match step.simplex with
            | None -> "-"
            | Some sdep ->
                let ws =
                  Metric.H_metric.Evaluator.eval
                    (Lazy.force lane.simplex_ev)
                    sdep
                in
                Util.pct_delta
                  (Metric.H_metric.bounds_improvement ws lane.baseline)
          in
          let per_dest =
            secure_dest_delta ctx lane.policy step.dep ~attackers ~dsts:sd_dsts
          in
          Prelude.Table.add_row table
            [
              step.step_label;
              Deployment.describe step.dep;
              Routing.Policy.name lane.policy;
              Util.pct delta.Metric.H_metric.lb;
              Util.pct delta.Metric.H_metric.ub;
              simplex_cell;
              (match per_dest with
              | None -> "-"
              | Some b -> Util.pct_delta b);
            ])
        lanes;
      Prelude.Table.add_separator table)
    steps;
  table

let t1_t2_steps (ctx : Context.t) ~with_cps ~simplex =
  List.map
    (fun (x, y) ->
      let base = Deployment.tier1_tier2 ctx.graph ctx.tiers ~n_t1:x ~n_t2:y in
      let base = if with_cps then Deployment.with_cps ctx.graph ctx.tiers base else base in
      let simplex_dep =
        if simplex then begin
          let d =
            Deployment.tier1_tier2 ~stub_mode:Deployment.Simplex ctx.graph
              ctx.tiers ~n_t1:x ~n_t2:y
          in
          Some (if with_cps then Deployment.with_cps ctx.graph ctx.tiers d else d)
        end
        else None
      in
      dep_step ?simplex:simplex_dep (Printf.sprintf "T1=%d,T2=%d" x y) base)
    [ (13, 13); (13, 37); (13, 100) ]

let t2_steps (ctx : Context.t) =
  List.map
    (fun y ->
      dep_step
        (Printf.sprintf "T2=%d" y)
        (Deployment.tier2_only ctx.graph ctx.tiers ~n_t2:y))
    [ 13; 26; 50; 100 ]

let run (ctx : Context.t) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Util.header title paper);
  Buffer.add_string buf
    "Figure 7(a/b) - Tier 1 + Tier 2 rollout (all destinations; simplex-stub variant as 'error bars'):\n";
  Buffer.add_string buf
    (Prelude.Table.to_string
       (run_rollout ctx
          ~steps:(t1_t2_steps ctx ~with_cps:false ~simplex:true)
          ~dsts_mode:`All));
  Buffer.add_string buf
    "\nFigure 8 - Tier 1 + Tier 2 + CP rollout, metric over CP destinations:\n";
  Buffer.add_string buf
    (Prelude.Table.to_string
       (run_rollout ctx
          ~steps:(t1_t2_steps ctx ~with_cps:true ~simplex:false)
          ~dsts_mode:`Cps));
  Buffer.add_string buf "\nFigure 11 - Tier 2 rollout:\n";
  Buffer.add_string buf
    (Prelude.Table.to_string
       (run_rollout ctx ~steps:(t2_steps ctx) ~dsts_mode:`All));
  Buffer.add_string buf "\nSection 5.2.4 - securing only the non-stubs:\n";
  Buffer.add_string buf
    (Prelude.Table.to_string
       (run_rollout ctx
          ~steps:[ dep_step "non-stubs" (Deployment.non_stubs ctx.graph ctx.tiers) ]
          ~dsts_mode:`All));
  Buffer.contents buf
