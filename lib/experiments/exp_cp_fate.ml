(* Figure 13: what happens to the secure routes toward each content
   provider when S is the Tier 1s, the CPs, and all their stubs, under
   security 3rd.  Paper: most secure routes are lost to protocol
   downgrades, and almost all that survive belong to immune sources. *)

let name = "cp-fate"
let title = "Figure 13: fate of secure routes to content providers"
let paper = "Figure 13; Section 5.3.1"

(* Per CP, one {!Metric.Phenomena.sum} over the sampled attackers:
   "lost to downgrade" is [downgraded]; of the secure routes kept,
   those of immune sources are [wasted] (Corollary E.1: under security
   3rd a source is immune exactly when its S = {} route leads to the
   destination only, i.e. it is happy there), the rest [protecting].
   An attacker that is the CP itself is no sample; when it was the only
   one, the CP's normal state is solved on its own.  The CPs fan out
   over the pool. *)
let run_policy (ctx : Context.t) policy =
  let dep = Deployment.tier1_and_stubs ~with_cps:true ctx.graph ctx.tiers in
  let attackers =
    Context.sample ctx "cpfate-att" ctx.non_stubs (Context.scaled ctx 30)
  in
  let n = Topology.Graph.n ctx.graph in
  let fate dst =
    let pairs =
      Array.of_list
        (List.filter_map
           (fun attacker ->
             if attacker = dst then None
             else Some { Metric.H_metric.attacker; dst })
           (Array.to_list attackers))
    in
    let t = List.hd (Metric.Phenomena.sum ctx.graph [ policy ] dep pairs) in
    if Array.length pairs > 0 then (t.secure_by_dst, t)
    else begin
      let normal =
        Routing.Engine.compute ~ws:(Routing.Batch.Workspace.local ())
          ctx.graph policy dep ~dst ~attacker:None
      in
      let c = ref 0 in
      for v = 0 to n - 1 do
        if v <> dst && Routing.Outcome.secure normal v then incr c
      done;
      (!c, t)
    end
  in
  let table =
    Prelude.Table.create
      ~header:
        [
          "CP dest";
          "secure routes (normal)";
          "lost to downgrade";
          "kept, immune source";
          "kept, other";
        ]
  in
  Array.iteri
    (fun cp_index (secure, (t : Metric.Phenomena.t)) ->
      (* No sampled attacker (the CP was its own only sample): no fate. *)
      let frac x =
        if t.sources = 0 then "-"
        else Util.pct (float_of_int x /. float_of_int t.sources)
      in
      Prelude.Table.add_row table
        [
          Printf.sprintf "CP%d (AS %d)" (cp_index + 1) ctx.cps.(cp_index);
          Util.pct (float_of_int secure /. float_of_int (n - 1));
          frac t.downgraded;
          frac t.wasted;
          frac t.protecting;
        ])
    (Parallel.map ~pool:(Context.pool ctx) ~chunk:1 fate ctx.cps);
  table

let run (ctx : Context.t) =
  Util.header title paper
  ^ "security 3rd:\n"
  ^ Prelude.Table.to_string (run_policy ctx Context.sec3)
