(* Appendix K: sensitivity to the local-preference model.  Figures 24-25:
   partitions under the LP2 policy variant, overall and by destination
   tier.  Paper: sec 3rd headroom shrinks slightly (upper bound ~82% vs
   ~75%... actually 82% on UCLA), high-degree destinations gain many
   immune sources, and Tier 1 destinations are no longer mostly doomed. *)

let name = "lpk"
let title = "Figures 24-25: LP2 policy variant partitions"
let paper = "Appendix K; Figures 24, 25"

let lp2 model = Routing.Policy.make ~lp:(Routing.Policy.Lp_k 2) model

let run (ctx : Context.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Util.header title paper);
  let lpinf model = Routing.Policy.make ~lp:(Routing.Policy.Lp_k 60) model in
  let policies =
    [
      lp2 Routing.Policy.Security_first;
      lp2 Routing.Policy.Security_second;
      lp2 Routing.Policy.Security_third;
      (* Appendix K's "k to infinity" remark: customers and peers ranked
         purely by length (k = 60 exceeds every path length here). *)
      lpinf Routing.Policy.Security_second;
      lpinf Routing.Policy.Security_third;
    ]
  in
  Buffer.add_string buf
    "Figure 24 - overall partitions under LP2 (and the k->infinity variant):\n";
  Buffer.add_string buf (Exp_partitions.run_policies ctx policies);
  (* Figure 25: by destination tier for sec 3rd and sec 2nd under LP2.
     Security 2nd runs first: its batched solves of the S = {} states
     publish their counts to the cache, where the security-3rd
     partition of the same pairs then finds them.  The tables still
     print security 3rd first. *)
  let attackers = Context.sample ctx "lpk-att" ctx.all (Context.scaled ctx 30) in
  let tiers_order =
    Topology.Tiers.[ Stub; Stub_x; Smdg; Small_cp; Cp; T3; T2; T1 ]
  in
  let rows =
    List.filter_map
      (fun tier ->
        let members = Context.tier_members ctx tier in
        if Array.length members > 0 then begin
          let dsts =
            Context.sample ctx
              ("lpk-dst-" ^ Topology.Tiers.tier_name tier)
              members (Context.scaled ctx 20)
          in
          Some (tier, Metric.H_metric.pairs ~attackers ~dsts ())
        end
        else None)
      tiers_order
  in
  let table policy =
    let fractions =
      Util.partition_fractions_sets ~pool:(Context.pool ctx)
        ~cache:(Context.cache ctx) ctx.graph policy
        (Array.of_list (List.map snd rows))
    in
    let table =
      Prelude.Table.create
        ~header:[ "dest tier"; "doomed"; "protectable"; "immune" ]
    in
    List.iteri
      (fun i (tier, _) ->
        let doomed, protectable, immune = fractions.(i) in
        Prelude.Table.add_row table
          [
            Topology.Tiers.tier_name tier;
            Util.pct doomed;
            Util.pct protectable;
            Util.pct immune;
          ])
      rows;
    Printf.sprintf "\nFigure 25 - by destination tier, %s:\n%s"
      (Routing.Policy.name policy)
      (Prelude.Table.to_string table)
  in
  let sec2_table = table (lp2 Routing.Policy.Security_second) in
  let sec3_table = table (lp2 Routing.Policy.Security_third) in
  Buffer.add_string buf sec3_table;
  Buffer.add_string buf sec2_table;
  Buffer.contents buf
