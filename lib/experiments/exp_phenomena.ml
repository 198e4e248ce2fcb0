(* Table 3: which phenomena occur in which security model.  Paper:
   protocol downgrades in 2nd/3rd only; collateral benefits in all three;
   collateral damages in 1st/2nd only. *)

let name = "phenomena"
let title = "Table 3: phenomena per security model"
let paper = "Table 3; Sections 3.2, 6.1"

let run (ctx : Context.t) =
  let dep = Deployment.tier1_tier2 ctx.graph ctx.tiers ~n_t1:13 ~n_t2:100 in
  let attackers =
    Context.sample ctx "phen-att" ctx.non_stubs (Context.scaled ctx 20)
  in
  let dsts = Context.sample ctx "phen-dst" ctx.all (Context.scaled ctx 20) in
  let pairs = Metric.H_metric.pairs ~attackers ~dsts () in
  let table =
    Prelude.Table.create
      ~header:
        [
          "model";
          "protocol downgrades";
          "collateral benefits";
          "collateral damages";
        ]
  in
  let mark count expected =
    Printf.sprintf "%s (%d)" (if count > 0 then "yes" else "no") count
    ^ if (count > 0) = expected then "" else " [unexpected]"
  in
  (* Table 3 leaves out the downgrades Theorem 3.1 exempts (see
     [Metric.Phenomena]). *)
  List.iter2
    (fun (policy, exp_down, exp_damage) (t : Metric.Phenomena.t) ->
      Prelude.Table.add_row table
        [
          Routing.Policy.name policy;
          mark (t.downgraded - t.exempt_lost) exp_down;
          mark t.benefit true;
          mark t.damage exp_damage;
        ])
    [
      (Context.sec1, false, true);
      (Context.sec2, true, true);
      (Context.sec3, true, false);
    ]
    (Metric.Phenomena.sum ~pool:(Context.pool ctx) ctx.graph Context.policies
       dep pairs);
  Util.header title paper
  ^ Printf.sprintf "%d pairs, S = T1s+T2s+stubs\n" (Array.length pairs)
  ^ Prelude.Table.to_string table
  ^ "paper's Table 3: downgrades in 2nd/3rd; benefits in all; damages in 1st/2nd\n"
