(* Section 7 / Theorem 5.1: Max-k-Security rollouts.  The paper proves
   choosing the optimal k ASes to secure is NP-hard (Appendix I) and
   falls back on tier-driven rollouts; here we run the CELF lazy greedy
   (gated bit-identical to the naive greedy by [Check.Optimize]) and
   compare its prefix curve against the heuristics a deployment planner
   would actually reach for: uniformly random k-subsets and the
   highest-degree ASes.  Expectation: both structured strategies crush
   random; under security 1st the greedy leads from the first pick.
   Under security 2nd/3rd the objective is supermodular (a pick pays off
   only once it completes a contiguous secure chain), so the myopic
   greedy can even trail the degree heuristic at small k — the
   experimental face of Theorem 5.1's hardness. *)

let name = "optimize"
let title = "Theorem 5.1: greedy Max-k-Security vs random and degree rollouts"
let paper = "Section 7 discussion; Theorem 5.1; Appendix I"

module M = Metric.H_metric

(* Mean of bounds, for averaging the random draws. *)
let mean_bounds bs =
  let n = float_of_int (List.length bs) in
  let lb = List.fold_left (fun a b -> a +. b.M.lb) 0. bs /. n in
  let ub = List.fold_left (fun a b -> a +. b.M.ub) 0. bs /. n in
  { M.lb; ub }

(* k distinct draws from [pool] (k <= length pool). *)
let draw rng pool k =
  let a = Array.copy pool in
  let n = Array.length a in
  for i = 0 to k - 1 do
    let j = i + Rng.int rng (n - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.sub a 0 k

let run (ctx : Context.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Util.header title paper);
  let g = ctx.graph in
  let n = Topology.Graph.n g in
  let pool = Context.pool ctx in
  let cache = Context.cache ctx in
  let attackers = Util.rollout_attackers ctx ~k:10 in
  let dsts =
    Context.sample ctx "optimize-dst" ctx.all (Context.scaled ctx 6)
  in
  let excluded = Hashtbl.create 64 in
  Array.iter (fun v -> Hashtbl.replace excluded v ()) attackers;
  Array.iter (fun v -> Hashtbl.replace excluded v ()) dsts;
  (* Candidate pool: two provider/peer rings around the destinations.  A
     route is only secure when signed contiguously down to the (simplex)
     destination, so ASes scattered far from every destination have
     exactly zero marginal gain — any instance drawn uniformly from the
     non-stubs degenerates to all-zero curves.  Concentrating the pool
     where chains can actually form is what gives the greedy (and the
     baselines) something to optimize, and is also where the paper's
     supermodularity bites: under sec 2nd/3rd the first ring picks often
     gain nothing until a second-ring pick completes a chain. *)
  let ring = Hashtbl.create 64 in
  let add v = if not (Hashtbl.mem excluded v) then Hashtbl.replace ring v () in
  Array.iter
    (fun d ->
      Array.iter add (Topology.Graph.providers g d);
      Array.iter add (Topology.Graph.peers g d))
    dsts;
  let ring1 = Hashtbl.fold (fun v () acc -> v :: acc) ring [] in
  List.iter (fun v -> Array.iter add (Topology.Graph.providers g v)) ring1;
  let cand_pool =
    Hashtbl.fold (fun v () acc -> v :: acc) ring []
    |> List.sort compare |> Array.of_list
  in
  let candidates =
    Context.sample ctx "optimize-cand" cand_pool
      (min (Array.length cand_pool) (Context.scaled ctx 24))
  in
  let pairs = M.pairs ~attackers ~dsts () in
  (* Destinations sign their origins throughout (simplex base): without
     that, securing transit ASes is invisible to the metric and every
     strategy scores the baseline. *)
  let base = Deployment.make ~n ~full:[||] ~simplex:dsts () in
  let k_max = min 8 (Array.length candidates) in
  let ks = List.filter (fun k -> k <= k_max) [ 2; 4; 8 ] in
  Buffer.add_string buf
    (Printf.sprintf
       "%d candidates (destination provider/peer rings), %d attackers x %d \
        destinations, secure simplex destinations as base; dH = improvement \
        over the base, pessimistic / optimistic.\n"
       (Array.length candidates) (Array.length attackers) (Array.length dsts));
  let by_degree =
    let a = Array.copy candidates in
    Array.sort
      (fun u v ->
        let du = Array.length (Topology.Graph.customers g u)
        and dv = Array.length (Topology.Graph.customers g v) in
        if du <> dv then compare dv du else compare u v)
      a;
    a
  in
  let score_set policy chosen =
    let dep = Deployment.make ~n ~full:chosen ~simplex:dsts () in
    Util.h ~pool ~cache g policy dep pairs
  in
  let table =
    Prelude.Table.create
      ~header:
        [ "policy"; "k"; "dH greedy"; "dH degree"; "dH random"; "evals/step" ]
  in
  List.iter
    (fun policy ->
      let r =
        Optimize.Max_k.celf ~pool ~cache ~base g policy ~pairs ~k:k_max
          ~candidates
      in
      let rng = Context.rng ctx ("optimize-rand-" ^ Routing.Policy.name policy) in
      List.iter
        (fun k ->
          let k = min k r.Optimize.Max_k.achieved in
          if k > 0 then begin
            let step = r.Optimize.Max_k.steps.(k - 1) in
            let greedy_d =
              M.bounds_improvement step.Optimize.Max_k.score
                r.Optimize.Max_k.baseline
            in
            let degree_d =
              M.bounds_improvement
                (score_set policy (Array.sub by_degree 0 k))
                r.Optimize.Max_k.baseline
            in
            let random_d =
              let draws =
                List.init 3 (fun _ -> score_set policy (draw rng candidates k))
              in
              M.bounds_improvement (mean_bounds draws)
                r.Optimize.Max_k.baseline
            in
            let evals =
              let upto =
                Array.fold_left
                  (fun a (s : Optimize.Max_k.step) -> a + s.engine_evals)
                  0
                  (Array.sub r.Optimize.Max_k.steps 0 k)
              in
              float_of_int upto /. float_of_int k
            in
            Prelude.Table.add_row table
              [
                Routing.Policy.name policy;
                string_of_int k;
                Util.pct_delta greedy_d;
                Util.pct_delta degree_d;
                Util.pct_delta random_d;
                Printf.sprintf "%.0f" evals;
              ]
          end)
        ks;
      Prelude.Table.add_separator table)
    Context.policies;
  Buffer.add_string buf (Prelude.Table.to_string table);
  Buffer.contents buf
