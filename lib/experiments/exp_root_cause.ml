(* Figure 16: root-cause decomposition of the metric change under the
   last Tier 1+2 rollout step.  Paper: under security 3rd most secure
   routes are lost to downgrades or wasted on already-happy sources, and
   collateral benefits matter; under security 1st downgrades vanish and
   the metric gain is large, with rare collateral damages. *)

let name = "root-cause"
let title = "Figure 16: root causes of metric changes"
let paper = "Figure 16; Section 6.2"

let run (ctx : Context.t) =
  let dep = Deployment.tier1_tier2 ctx.graph ctx.tiers ~n_t1:13 ~n_t2:100 in
  let attackers =
    Context.sample ctx "rc-att" ctx.non_stubs (Context.scaled ctx 25)
  in
  let dsts = Context.sample ctx "rc-dst" ctx.all (Context.scaled ctx 25) in
  let pairs = Metric.H_metric.pairs ~attackers ~dsts () in
  let table =
    Prelude.Table.create
      ~header:
        [
          "model";
          "secure routes (normal)";
          "downgraded";
          "wasted on happy";
          "protecting unhappy";
          "collateral benefit";
          "collateral damage";
          "metric change";
        ]
  in
  List.iter2
    (fun policy (t : Metric.Phenomena.t) ->
      let f x = Prelude.Stats.fraction x t.sources in
      Prelude.Table.add_row table
        [
          Routing.Policy.name policy;
          Util.pct (f t.secure_normal);
          Util.pct (f t.downgraded);
          Util.pct (f t.wasted);
          Util.pct (f t.protecting);
          Util.pct (f t.benefit);
          Util.pct (f t.damage);
          Printf.sprintf "%+.1f%%" (100. *. (f t.happy_dep -. f t.happy_base));
        ])
    Context.policies
    (Metric.Phenomena.sum ~pool:(Context.pool ctx) ctx.graph Context.policies
       dep pairs);
  Util.header title paper
  ^ Printf.sprintf "S = all T1s, T2s and their stubs (%s); %d pairs\n"
      (Deployment.describe dep) (Array.length pairs)
  ^ Prelude.Table.to_string table
