(* Figures 9, 10, 12: the non-decreasing per-destination sequences of
   H_{M',d}(S) - H_{M',d}({}) for secure destinations, summarized as
   quantiles per model.

   Paper expectations: under the Tier1+2 deployment (Figure 9) security
   1st gives near-total protection (true H ~ 97%) with the largest gains
   at Tier 1 destinations; most destinations see similar (small) gains
   under security 2nd and 3rd; the sec2-sec1 gap narrows for the Tier-2
   rollout (Figure 10) and nearly closes when only non-stubs are secure
   (Figure 12). *)

let name = "per-destination"
let title = "Figures 9, 10, 12: per-destination metric improvements"
let paper = "Figures 9, 10, 12; Sections 5.2.3-5.2.4"

let quantile_points = [ 0.10; 0.25; 0.50; 0.75; 0.90; 1.0 ]

let summary (ctx : Context.t) dep =
  (* Rollout-family shared samples (Util): the attacker prefix and the
     priority-ordered destination draw make these pair sets supersets of
     the ones the rollout experiment evaluates at the same deployments
     (Figure 9 is the Figure 7(a) chain's middle step; Figures 10 and 12
     are rollout endpoints), so a shared cache serves the overlap. *)
  let attackers = Util.rollout_attackers ctx ~k:20 in
  let dsts = Util.secure_dsts ctx dep ~k:120 in
  let table =
    Prelude.Table.create
      ~header:
        ([ "model"; "mean dH" ]
        @ List.map (fun q -> Printf.sprintf "p%.0f" (100. *. q)) quantile_points
        @ [ "<4% gain"; "H(S) mean" ])
  in
  let sec2_small = ref [||] and sec3_small = ref [||] in
  List.iter
    (fun policy ->
      let deltas =
        Util.per_destination_changes ~pool:(Context.pool ctx)
          ~cache:(Context.cache ctx) ctx.graph policy dep ~attackers ~dsts
      in
      let lbs = Array.map (fun (_, _, b) -> b.Metric.H_metric.lb) deltas in
      let small_gain =
        Array.map (fun (d, _, b) -> (d, b.Metric.H_metric.lb < 0.04)) deltas
      in
      if policy == Context.sec2 then sec2_small := small_gain;
      if policy == Context.sec3 then sec3_small := small_gain;
      let frac_small =
        Prelude.Stats.fraction
          (Array.fold_left (fun acc (_, s) -> if s then acc + 1 else acc) 0 small_gain)
          (Array.length small_gain)
      in
      (* True protection level under this deployment (not the delta). *)
      let h_mean =
        Prelude.Stats.mean
          (Array.map (fun (_, h, _) -> h.Metric.H_metric.lb) deltas)
      in
      Prelude.Table.add_row table
        ([ Routing.Policy.name policy; Util.pct (Prelude.Stats.mean lbs) ]
        @ List.map (fun q -> Util.pct (Prelude.Stats.quantile lbs q)) quantile_points
        @ [ Util.pct frac_small; Util.pct h_mean ]))
    Context.policies;
  (* Section 5.2.3: destinations stuck under sec3 are usually stuck under
     sec2 as well. *)
  let overlap =
    let matches = ref 0 and total = ref 0 in
    Array.iteri
      (fun i (_, small3) ->
        if small3 then begin
          incr total;
          if Array.length !sec2_small > i && snd (!sec2_small).(i) then
            incr matches
        end)
      !sec3_small;
    Prelude.Stats.fraction !matches !total
  in
  Prelude.Table.to_string table
  ^ Printf.sprintf
      "of destinations with <4%% gain under sec 3rd, %s also gain <4%% under sec 2nd (paper: 93%%)\n"
      (Util.pct overlap)

let run (ctx : Context.t) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Util.header title paper);
  let scenarios =
    [
      ( "Figure 9 - S = all T1s, T2s and their stubs",
        Deployment.tier1_tier2 ctx.graph ctx.tiers ~n_t1:13 ~n_t2:100 );
      ( "Figure 10 - S = all T2s and their stubs",
        Deployment.tier2_only ctx.graph ctx.tiers ~n_t2:100 );
      ( "Figure 12 - S = all non-stubs",
        Deployment.non_stubs ctx.graph ctx.tiers );
    ]
  in
  List.iter
    (fun (label, dep) ->
      Buffer.add_string buf (Printf.sprintf "%s (%s):\n" label (Deployment.describe dep));
      Buffer.add_string buf (summary ctx dep);
      Buffer.add_char buf '\n')
    scenarios;
  Buffer.contents buf
