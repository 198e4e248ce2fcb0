(* Figures 4-6 (and the source-tier figure the paper omits): partitions
   broken down by the tier of the destination, the attacker, or the
   source.  Paper highlights: Tier 1 destinations are ~80% doomed under
   security 2nd/3rd (Figures 4-5); Tier 1 attackers are the least
   effective (Figure 6); source tiers look alike (Section 4.7). *)

let name = "partitions-tier"
let title = "Figures 4-6: partitions by destination / attacker / source tier"
let paper = "Figures 4, 5, 6; Sections 4.5-4.7"

let tier_list =
  (* Order as in the paper's figures. *)
  Topology.Tiers.
    [ Stub; Stub_x; Smdg; Small_cp; Cp; T3; T2; T1 ]

(* The tiers with members, each with its pair set.  All sets are
   classified in one {!Util.partition_fractions_sets} call, so pairs of
   different tiers share words. *)
let tier_pairs (ctx : Context.t) pairs_of =
  List.filter_map
    (fun tier ->
      let members = Context.tier_members ctx tier in
      if Array.length members > 0 then Some (tier, pairs_of tier members)
      else None)
    tier_list

let by_destination (ctx : Context.t) policy =
  let attackers =
    Context.sample ctx "ptier-att" ctx.all (Context.scaled ctx 35)
  in
  let table =
    Prelude.Table.create
      ~header:[ "dest tier"; "doomed"; "protectable"; "immune"; "H({}) lb" ]
  in
  let rows =
    tier_pairs ctx (fun tier members ->
        let dsts =
          Context.sample ctx
            ("ptier-dst-" ^ Topology.Tiers.tier_name tier)
            members (Context.scaled ctx 25)
        in
        Metric.H_metric.pairs ~attackers ~dsts ())
  in
  let pool = Context.pool ctx and cache = Context.cache ctx in
  let fractions =
    Util.partition_fractions_sets ~pool ~cache ctx.graph policy
      (Array.of_list (List.map snd rows))
  in
  List.iteri
    (fun i (tier, pairs) ->
      let doomed, protectable, immune = fractions.(i) in
      let baseline =
        Util.h ~pool ~cache ctx.graph policy
          (Deployment.empty (Topology.Graph.n ctx.graph))
          pairs
      in
      Prelude.Table.add_row table
        [
          Topology.Tiers.tier_name tier;
          Util.pct doomed;
          Util.pct protectable;
          Util.pct immune;
          Util.pct baseline.Metric.H_metric.lb;
        ])
    rows;
  table

let by_attacker (ctx : Context.t) policy =
  let dsts = Context.sample ctx "atier-dst" ctx.all (Context.scaled ctx 35) in
  let table =
    Prelude.Table.create
      ~header:[ "attacker tier"; "doomed"; "protectable"; "immune" ]
  in
  let rows =
    tier_pairs ctx (fun tier members ->
        let attackers =
          Context.sample ctx
            ("atier-att-" ^ Topology.Tiers.tier_name tier)
            members (Context.scaled ctx 25)
        in
        Metric.H_metric.pairs ~attackers ~dsts ())
  in
  let fractions =
    Util.partition_fractions_sets ~pool:(Context.pool ctx)
      ~cache:(Context.cache ctx) ctx.graph policy
      (Array.of_list (List.map snd rows))
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
  table

let by_source (ctx : Context.t) policy =
  let attackers = Context.sample ctx "stier-att" ctx.all (Context.scaled ctx 30) in
  let dsts = Context.sample ctx "stier-dst" ctx.all (Context.scaled ctx 30) in
  let pairs = Metric.H_metric.pairs ~attackers ~dsts () in
  let table =
    Prelude.Table.create
      ~header:[ "source tier"; "doomed"; "protectable"; "immune" ]
  in
  (* Classify each pair once and split its sources by tier. *)
  let tiers = Array.of_list tier_list in
  let tier_index = Array.make (Array.length ctx.all) (-1) in
  Array.iteri
    (fun i tier ->
      Array.iter (fun v -> tier_index.(v) <- i) (Context.tier_members ctx tier))
    tiers;
  let by_tier =
    Util.partition_fractions_by ~pool:(Context.pool ctx) ctx.graph policy pairs
      ~groups:(Array.length tiers) ~group:(Array.get tier_index)
  in
  Array.iteri
    (fun i tier ->
      if Array.length (Context.tier_members ctx tier) > 0 then begin
        let doomed, protectable, immune = by_tier.(i) in
        Prelude.Table.add_row table
          [
            Topology.Tiers.tier_name tier;
            Util.pct doomed;
            Util.pct protectable;
            Util.pct immune;
          ]
      end)
    tiers;
  table

let run (ctx : Context.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Util.header title paper);
  Buffer.add_string buf "Figure 4 - by destination tier, security 3rd:\n";
  Buffer.add_string buf (Prelude.Table.to_string (by_destination ctx Context.sec3));
  Buffer.add_string buf "\nFigure 5 - by destination tier, security 2nd:\n";
  Buffer.add_string buf (Prelude.Table.to_string (by_destination ctx Context.sec2));
  Buffer.add_string buf "\nFigure 6 - by attacker tier, security 3rd:\n";
  Buffer.add_string buf (Prelude.Table.to_string (by_attacker ctx Context.sec3));
  Buffer.add_string buf
    "\nSection 4.7 (figure omitted in paper) - by source tier, security 3rd:\n";
  Buffer.add_string buf (Prelude.Table.to_string (by_source ctx Context.sec3));
  Buffer.contents buf
