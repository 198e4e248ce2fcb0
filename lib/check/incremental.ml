(* Differential check of the incremental evaluation layer: along a
   seeded rollout chain (several monotone steps plus one non-monotone
   wobble at the end), the per-pair bounds an
   {!Metric.H_metric.Evaluator} carries or caches must be bit-identical
   to a from-scratch engine computation of every pair at every step.
   This exercises the whole reuse surface — dirty cones and the shared
   cache — against the ground truth it claims to reproduce. *)

module D = Diagnostic
module M = Metric.H_metric

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A deployment trajectory: [steps] monotone upgrades from the empty
   deployment, then one downgrade step so the non-monotone path (two
   reach cones per destination) is covered too. *)
let chain rng n ~steps =
  let modes = Array.make n Deployment.Off in
  let acc = ref [ Deployment.empty n ] in
  for _ = 1 to steps do
    let upgrades = 1 + Rng.int rng (max 1 (n / 4)) in
    for _ = 1 to upgrades do
      let v = Rng.int rng n in
      modes.(v) <-
        (match modes.(v) with
        | Deployment.Off ->
            if Rng.int rng 2 = 0 then Deployment.Simplex else Deployment.Full
        | Deployment.Simplex | Deployment.Full -> Deployment.Full)
    done;
    acc := Deployment.of_modes modes :: !acc
  done;
  let downgrades = 1 + Rng.int rng (max 1 (n / 8)) in
  for _ = 1 to downgrades do
    let v = Rng.int rng n in
    modes.(v) <-
      (match modes.(v) with
      | Deployment.Full -> Deployment.Simplex
      | Deployment.Simplex | Deployment.Off -> Deployment.Off)
  done;
  acc := Deployment.of_modes modes :: !acc;
  List.rev !acc

let sample_pairs rng n k =
  Array.init k (fun _ ->
      let dst = Rng.int rng n in
      let attacker = (dst + 1 + Rng.int rng (n - 1)) mod n in
      { M.attacker; dst })

let analyze ?pool ?(steps = 3) ~seed ~pairs g policies =
  let n = Topology.Graph.n g in
  let items = ref 0 in
  let diags = ref [] in
  if n >= 2 && pairs > 0 then begin
    let rng = Rng.create seed in
    let ps = sample_pairs rng n pairs in
    let deps = chain rng n ~steps in
    let cache = M.Cache.create () in
    List.iter
      (fun policy ->
        let ev = M.Evaluator.create ?pool ~cache g policy ps in
        List.iteri
          (fun step dep ->
            let agg = M.Evaluator.eval ev dep in
            let vals = M.Evaluator.values ev in
            let ws = Routing.Batch.Workspace.local () in
            Array.iteri
              (fun i p ->
                incr items;
                let want = M.pair_bounds ~ws g policy dep p in
                let got = vals.(i) in
                if
                  not
                    (bits_equal want.M.lb got.M.lb
                    && bits_equal want.M.ub got.M.ub)
                then
                  diags :=
                    !diags
                    @ [
                        D.error ~rule:"inc/divergence"
                          ~subjects:[ p.M.attacker; p.M.dst ]
                          (Printf.sprintf
                             "policy %s, step %d (%s): incremental bounds \
                              [%.17g, %.17g] differ from scratch [%.17g, \
                              %.17g] for pair (m=%d, d=%d)"
                             (Routing.Policy.name policy)
                             step (Deployment.describe dep) got.M.lb got.M.ub
                             want.M.lb want.M.ub p.M.attacker p.M.dst);
                      ])
              ps;
            (* The aggregate must equal the same input-order reduction a
               from-scratch h_metric performs. *)
            let scratch = M.h_metric g policy dep ps in
            if
              not
                (bits_equal scratch.M.lb agg.M.lb
                && bits_equal scratch.M.ub agg.M.ub)
            then
              diags :=
                !diags
                @ [
                    D.error ~rule:"inc/divergence"
                      (Printf.sprintf
                         "policy %s, step %d (%s): incremental aggregate \
                          [%.17g, %.17g] differs from from-scratch h_metric \
                          [%.17g, %.17g]"
                         (Routing.Policy.name policy)
                         step (Deployment.describe dep) agg.M.lb agg.M.ub
                         scratch.M.lb scratch.M.ub);
                  ])
          deps)
      policies
  end;
  (!items, !diags)
