(* The incremental rollout machinery: dirty cones (Routing.Incremental),
   the normalized bounds cache, and the H-metric evaluator.  The load-
   bearing property throughout is bit-identity: everything the cone or
   the cache declares reusable must equal the from-scratch value exactly,
   for every policy model, both tiebreak modes, with and without the
   worker pool. *)

open Test_helpers

(* One pool for all pooled properties; spawning per test case would
   dominate the suite's runtime. *)
let shared_pool = lazy (Core.Parallel.Pool.create ~domains:2 ())

(* A random monotone upgrade of [dep]: each AS keeps its mode or moves up. *)
let upgrade rng dep =
  let n = Core.Deployment.n dep in
  Core.Deployment.of_modes
    (Array.init n (fun v ->
         let m = Core.Deployment.mode dep v in
         if Core.Rng.int rng 3 = 0 then
           match m with
           | Core.Deployment.Off ->
               if Core.Rng.int rng 2 = 0 then Core.Deployment.Simplex
               else Core.Deployment.Full
           | Core.Deployment.Simplex -> Core.Deployment.Full
           | Core.Deployment.Full -> Core.Deployment.Full
         else m))

(* A random downgrade, to exercise the non-monotone fallback. *)
let downgrade rng dep =
  let n = Core.Deployment.n dep in
  Core.Deployment.of_modes
    (Array.init n (fun v ->
         if Core.Rng.int rng 4 = 0 then Core.Deployment.Off
         else Core.Deployment.mode dep v))

(* Soundness of the cone itself: any pair [dirty_pair] clears must have a
   bit-identical engine outcome under both deployments — for a random
   (possibly non-monotone) delta, a random policy, and both tiebreaks. *)
let prop_cone_sound seed =
  let rng = Core.Rng.create seed in
  let g = random_graph rng ~max_n:40 in
  let n = Core.Graph.n g in
  let old_dep = random_deployment rng n in
  let new_dep =
    if Core.Rng.int rng 2 = 0 then upgrade rng old_dep
    else random_deployment rng n
  in
  let policy = random_policy rng in
  let dsts = Array.init n Fun.id in
  let cone = Core.Incremental.compute g ~old_dep ~new_dep ~dsts in
  let ok = ref true in
  Array.iter
    (fun dst ->
      for attacker = 0 to n - 1 do
        if
          attacker <> dst
          && not (Core.Incremental.dirty_pair cone ~attacker ~dst)
        then
          List.iter
            (fun tiebreak ->
              let out dep =
                Core.Engine.compute ~tiebreak g policy dep ~dst
                  ~attacker:(Some attacker)
              in
              match outcome_mismatch (out old_dep) (out new_dep) with
              | None -> ()
              | Some msg ->
                  Printf.eprintf
                    "clean pair (m=%d, d=%d) changed: %s\n%!" attacker dst msg;
                  ok := false)
            [ Core.Engine.Bounds; Core.Engine.Lowest_next_hop ]
      done)
    dsts;
  !ok

(* The evaluator along a random monotone chain with a downgrade tail must
   reproduce the from-scratch H-metric bit-for-bit at every step — per
   aggregate and per pair.  Every pair of every step is read from its
   cache, and every cache miss is a pair it solved: the carry never
   misses, because the previous step left every pair cached. *)
let prop_evaluator_exact ~pool seed =
  let rng = Core.Rng.create seed in
  let g = random_graph rng ~max_n:40 in
  let n = Core.Graph.n g in
  let policy = random_policy rng in
  let pick k =
    Core.Rng.sample_without_replacement rng (min k n) n
  in
  let attackers = pick (3 + Core.Rng.int rng 5) in
  let dsts = pick (3 + Core.Rng.int rng 5) in
  let pairs = Core.Metric.pairs ~attackers ~dsts () in
  let chain =
    let d0 = Core.Deployment.empty n in
    let d1 = upgrade rng d0 in
    let d2 = upgrade rng d1 in
    let d3 = upgrade rng d2 in
    [ d0; d1; d2; d2 (* repeat: the delta-free fast path *); d3; downgrade rng d3 ]
  in
  let pool = if pool then Some (Lazy.force shared_pool) else None in
  let cache = Core.Metric.Cache.create () in
  let ev = Core.Metric.Evaluator.create ?pool ~cache g policy pairs in
  let evals = ref 0 in
  List.for_all
    (fun dep ->
      let inc = Core.Metric.Evaluator.eval ev dep in
      incr evals;
      let st = Core.Metric.Evaluator.stats ev in
      let misses = Core.Metric.Cache.misses cache in
      let accounted =
        st.Core.Metric.Evaluator.computed = misses
        && Core.Metric.Cache.hits cache + misses >= !evals * Array.length pairs
      in
      let scratch = Core.Metric.h_metric g policy dep pairs in
      let per_pair_equal =
        Array.for_all2
          (fun (a : Core.Metric.bounds) b -> a = b)
          (Core.Metric.Evaluator.values ev)
          (Array.map (reference_bounds g policy dep) pairs)
      in
      if inc <> scratch then
        Printf.eprintf "aggregate differs at %s\n%!"
          (Core.Deployment.describe dep);
      if not per_pair_equal then Printf.eprintf "per-pair values differ\n%!";
      if not accounted then Printf.eprintf "stats miss or double-count pairs\n%!";
      inc = scratch && per_pair_equal && accounted)
    chain

(* A sibling evaluator over the same pairs must be served entirely from
   the shared cache. *)
let test_cache_reuse () =
  let rng = Core.Rng.create 11 in
  let g = random_graph rng ~max_n:30 in
  let n = Core.Graph.n g in
  let dep = random_deployment rng n in
  let pairs =
    Core.Metric.pairs
      ~attackers:(Core.Rng.sample_without_replacement rng 4 n)
      ~dsts:(Core.Rng.sample_without_replacement rng 4 n)
      ()
  in
  let cache = Core.Metric.Cache.create () in
  let policy = Core.Policy.make Core.Policy.Security_second in
  let ev1 = Core.Metric.Evaluator.create ~cache g policy pairs in
  let b1 = Core.Metric.Evaluator.eval ev1 dep in
  let ev2 = Core.Metric.Evaluator.create ~cache g policy pairs in
  let hits0 = Core.Metric.Cache.hits cache in
  let b2 = Core.Metric.Evaluator.eval ev2 dep in
  Alcotest.(check bool) "same bounds" true (b1 = b2);
  let st = Core.Metric.Evaluator.stats ev2 in
  Alcotest.(check int) "all pairs from cache" (Array.length pairs)
    (Core.Metric.Cache.hits cache - hits0);
  Alcotest.(check int) "nothing recomputed" 0 st.Core.Metric.Evaluator.computed

(* Key normalization: a destination that does not sign its origin yields
   the same outcome under every security model and every deployment, so
   the cache serves all of them from one entry — and the served value
   must equal the from-scratch one for the *other* model. *)
let test_unsigned_dst_normalization () =
  let rng = Core.Rng.create 23 in
  let g = random_graph rng ~max_n:30 in
  let n = Core.Graph.n g in
  let dst = 1 + Core.Rng.int rng (n - 1) in
  let attacker = if dst = 0 then 1 else 0 in
  (* Everyone Full except the destination: plenty of security around, but
     the destination's origin is unsigned. *)
  let dep =
    Core.Deployment.of_modes
      (Array.init n (fun v ->
           if v = dst then Core.Deployment.Off else Core.Deployment.Full))
  in
  let other_dep = Core.Deployment.empty n in
  let pair = [| { Core.Metric.attacker; dst } |] in
  let cache = Core.Metric.Cache.create () in
  let h policy dep = Core.Metric.h_metric ~cache g policy dep pair in
  let via_sec1 = h Core.Experiments.Context.sec1 dep in
  let hits0 = Core.Metric.Cache.hits cache in
  let via_sec2 = h Core.Experiments.Context.sec2 dep in
  let via_sec3 = h Core.Experiments.Context.sec3 dep in
  let via_other_dep = h Core.Experiments.Context.sec1 other_dep in
  Alcotest.(check int) "one engine eval serves all models and deployments"
    (Core.Metric.Cache.hits cache - hits0)
    3;
  (* The shared entry is not just shared but *correct* for each model. *)
  List.iter
    (fun (label, policy, got) ->
      let fresh = Core.Metric.h_metric g policy dep pair in
      Alcotest.(check bool) label true (got = fresh))
    [
      ("sec1 exact", Core.Experiments.Context.sec1, via_sec1);
      ("sec2 exact", Core.Experiments.Context.sec2, via_sec2);
      ("sec3 exact", Core.Experiments.Context.sec3, via_sec3);
    ];
  let fresh_other =
    Core.Metric.h_metric g Core.Experiments.Context.sec1 other_dep pair
  in
  Alcotest.(check bool) "other deployment exact" true
    (via_other_dep = fresh_other)

(* Cache.carry republishes exactly the cone-clean pairs under the new
   version, bit-identically. *)
let test_carry () =
  let rng = Core.Rng.create 31 in
  let g = random_graph rng ~max_n:30 in
  let n = Core.Graph.n g in
  let old_dep = random_deployment rng n in
  let new_dep = upgrade rng old_dep in
  let policy = random_policy rng in
  let attackers = Core.Rng.sample_without_replacement rng (min 5 n) n in
  let dsts = Core.Rng.sample_without_replacement rng (min 5 n) n in
  let pairs = Core.Metric.pairs ~attackers ~dsts () in
  let cache = Core.Metric.Cache.create () in
  ignore (Core.Metric.h_metric ~cache g policy old_dep pairs);
  let cone = Core.Incremental.compute g ~old_dep ~new_dep ~dsts in
  let carried =
    Core.Metric.Cache.carry cache policy g cone ~old_dep ~new_dep pairs
  in
  let misses0 = Core.Metric.Cache.misses cache in
  let via_cache = Core.Metric.h_metric ~cache g policy new_dep pairs in
  let fresh = Core.Metric.h_metric g policy new_dep pairs in
  Alcotest.(check bool) "carried values are exact" true (via_cache = fresh);
  (* Every clean pair was carried; only dirty ones needed the engine.
     (Unsigned destinations are already served by the normalized key, so
     they produce neither a carry miss nor an engine run.) *)
  let engine_runs = Core.Metric.Cache.misses cache - misses0 in
  Alcotest.(check bool) "carry saved the clean pairs" true
    (carried = 0 || engine_runs < Array.length pairs);
  Alcotest.(check bool) "carried plus computed cover the pairs" true
    (carried + engine_runs <= Array.length pairs)

(* ---- Topology-delta replay (PR 9) --------------------------------- *)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Replay through the topology-delta dirty-cone machinery must be
   bit-identical to from-scratch pair bounds on every stepped graph —
   for every security model, random deployments, random delta chains.
   [pair_bounds] carries both tiebreak worlds (the lb/ub bounds), so
   this covers 3 models x 2 tiebreaks. *)
let prop_replay_exact seed =
  let rng = Core.Rng.create seed in
  let g = random_graph rng ~max_n:24 in
  let n = Core.Graph.n g in
  if n < 4 then true
  else begin
    let dep = random_deployment rng n in
    let k = min 4 (n - 1) in
    let dsts = Core.Rng.sample_without_replacement rng k n in
    let attackers = Core.Rng.sample_without_replacement rng k n in
    let pairs =
      Core.Metric.pairs ~attackers ~dsts ()
      |> Array.to_list
      |> List.filter (fun p -> p.Core.Metric.attacker <> p.Core.Metric.dst)
      |> Array.of_list
    in
    if Array.length pairs = 0 then true
    else begin
      let ok = ref true in
      List.iter
        (fun policy ->
          let rp = Core.Metric.Replay.create g policy dep pairs in
          ignore (Core.Metric.Replay.eval rp);
          for _step = 1 to 3 do
            let delta = random_delta rng (Core.Metric.Replay.graph rp) in
            ignore (Core.Metric.Replay.step rp delta);
            let g' = Core.Metric.Replay.graph rp in
            let vals = Core.Metric.Replay.values rp in
            Array.iteri
              (fun i p ->
                let want = reference_bounds g' policy dep p in
                let got = vals.(i) in
                if
                  not
                    (bits_equal want.Core.Metric.lb got.Core.Metric.lb
                    && bits_equal want.Core.Metric.ub got.Core.Metric.ub)
                then begin
                  Printf.eprintf
                    "seed %d policy %s pair (m=%d,d=%d): replay [%.17g, \
                     %.17g] vs scratch [%.17g, %.17g]\n\
                     %!"
                    seed
                    (Core.Policy.name policy)
                    p.Core.Metric.attacker p.Core.Metric.dst
                    got.Core.Metric.lb got.Core.Metric.ub want.Core.Metric.lb
                    want.Core.Metric.ub;
                  ok := false
                end)
              pairs
          done;
          (* The stats must account for every lane exactly once per
             solve, and carrying must never exceed the lane total. *)
          let st = Core.Metric.Replay.stats rp in
          if
            st.Core.Metric.Replay.steps <> 3
            || st.Core.Metric.Replay.lanes_solved < Array.length pairs
          then ok := false)
        [
          Core.Experiments.Context.sec1;
          Core.Experiments.Context.sec2;
          Core.Experiments.Context.sec3;
        ];
      !ok
    end
  end

(* ---- The per-word influence test on its own ----------------------- *)

(* Every field a decoded lane exposes, next hop and happiness included:
   a clean verdict promises the whole lane is bit-identical. *)
let lane_mismatch a b =
  match outcome_mismatch a b with
  | Some _ as m -> m
  | None ->
      let rec go v =
        if v >= Core.Outcome.n a then None
        else if Core.Outcome.next_hop a v <> Core.Outcome.next_hop b v then
          Some (Printf.sprintf "AS %d: next hop differs" v)
        else if
          Core.Outcome.happy_lb a v <> Core.Outcome.happy_lb b v
          || Core.Outcome.happy_ub a v <> Core.Outcome.happy_ub b v
        then Some (Printf.sprintf "AS %d: happiness differs" v)
        else go (v + 1)
      in
      go 0

(* Security 1st/2nd/3rd, each under standard LP and LP-2. *)
let influence_policies =
  List.concat_map
    (fun lp ->
      List.map (fun model -> Core.Policy.make ~lp model) Core.Policy.all_models)
    [ Core.Policy.Standard; Core.Policy.Lp_k 2 ]

(* Removal of an edge some lane's route rides: a random (lane, AS) whose
   representative next hop is a graph neighbor (roots excluded). *)
let ridden_removal rng g outs ~attackers =
  let cands = ref [] in
  Array.iteri
    (fun lane out ->
      for v = 0 to Core.Outcome.n out - 1 do
        let p = Core.Outcome.next_hop out v in
        if v <> attackers.(lane) && p >= 0 then
          match Core.Graph.relationship g v p with
          | Some e -> cands := e :: !cands
          | None -> ()
      done)
    outs;
  match !cands with
  | [] -> None
  | cs ->
      let cs = Array.of_list cs in
      Some [| Core.Graph.Delta.Remove cs.(Core.Rng.int rng (Array.length cs)) |]

(* A random customer-provider link between a non-adjacent pair, lower
   id as provider, as in [random_graph]. *)
let random_attach rng g =
  let n = Core.Graph.n g in
  let a = Core.Rng.int rng n and b = Core.Rng.int rng n in
  if a = b || Core.Graph.relationship g a b <> None then None
  else Some [| Core.Graph.Delta.Add (c2p (max a b) (min a b)) |]

(* One random destination word of up to [max_lanes] attackers, solved
   under every influence policy and both tiebreaks, and judged against
   the full random delta (flips, a removal, a peering), each of its ops
   alone, a new customer-provider link, and the removal of an edge a
   lane's route rides — which must always be dirty, since the rider's
   own offer ties its state.  A quarter of the edges are dropped first,
   so some ASes start unreached and an added link can create a route.
   [check] sees every verdict; returns whether every check held plus
   the clean and dirty verdict counts. *)
let influence_case ~max_lanes seed check =
  let rng = Core.Rng.create seed in
  let g = random_graph rng ~max_n:24 in
  let n = Core.Graph.n g in
  let g =
    graph n
      (List.filter (fun _ -> Core.Rng.int rng 4 <> 0) (Core.Graph.edges g))
  in
  let dep = random_deployment rng n in
  let dst = Core.Rng.int rng n in
  let attackers =
    let others =
      Array.of_list (List.filter (( <> ) dst) (List.init n Fun.id))
    in
    let k = 1 + Core.Rng.int rng (min max_lanes (n - 1)) in
    Array.map
      (fun i -> others.(i))
      (Core.Rng.sample_without_replacement rng k (n - 1))
  in
  let random = random_delta rng g in
  let deltas =
    (random :: Array.to_list (Array.map (fun op -> [| op |]) random))
    @ Option.to_list (random_attach rng g)
  in
  let solve g policy tiebreak =
    Core.Batch.compute ~tiebreak ~ws:(Core.Batch.Workspace.create n) g policy
      dep ~dst ~attackers
  in
  let ok = ref true and clean = ref 0 and dirty = ref 0 in
  List.iter
    (fun policy ->
      List.iter
        (fun tiebreak ->
          let b = solve g policy tiebreak in
          let st = Core.Incremental.Topo.snapshot ~n b in
          let before =
            Array.mapi (fun lane _ -> Core.Batch.decode b ~lane) attackers
          in
          let verdict delta =
            Core.Incremental.Topo.influenced st dep policy ~old_graph:g ~delta
          in
          let judge delta =
            let influenced = verdict delta in
            if influenced then incr dirty else incr clean;
            (* Re-solved on the applied graph by the reference kernel,
               lane by lane: an oracle independent of [Batch]. *)
            let after () =
              let g' = Core.Graph.Delta.apply g delta in
              Array.map
                (fun m ->
                  Core.Reference.compute ~tiebreak g' policy dep ~dst
                    ~attacker:(Some m))
                attackers
            in
            if
              not
                (check ~g ~policy ~dst ~attackers ~before ~after ~delta
                   ~influenced)
            then ok := false
          in
          List.iter judge deltas;
          match ridden_removal rng g before ~attackers with
          | None -> ()
          | Some delta ->
              if not (verdict delta) then begin
                Printf.eprintf
                  "seed %d %s: ridden-edge removal judged clean\n%!" seed
                  (Core.Policy.name policy);
                ok := false
              end;
              judge delta)
        [ Core.Engine.Bounds; Core.Engine.Lowest_next_hop ])
    influence_policies;
  (!ok, !clean, !dirty)

(* Soundness of the influence test with no reachability pre-filter: a
   clean verdict means every lane re-solved on the applied graph is
   bit-identical to its decode before the delta. *)
let influence_sound ~g:_ ~policy ~dst ~attackers:_ ~before ~after ~delta:_
    ~influenced =
  influenced
  || begin
       let after = after () in
       let same = ref true in
       Array.iteri
         (fun lane out ->
           match lane_mismatch out after.(lane) with
           | None -> ()
           | Some msg ->
               Printf.eprintf "%s d=%d lane %d: clean word changed: %s\n%!"
                 (Core.Policy.name policy) dst lane msg;
               same := false)
         before;
       !same
     end

let prop_influence_sound seed =
  let ok, _, _ = influence_case ~max_lanes:23 seed influence_sound in
  ok

(* Both verdicts occur over a fixed seed range, so the soundness
   property above is not vacuously true. *)
let test_influence_not_vacuous () =
  let clean = ref 0 and dirty = ref 0 in
  for seed = 0 to 39 do
    let ok, c, d = influence_case ~max_lanes:23 seed influence_sound in
    Alcotest.(check bool) (Printf.sprintf "seed %d sound" seed) true ok;
    clean := !clean + c;
    dirty := !dirty + d
  done;
  Alcotest.(check bool) "some clean verdicts" true (!clean > 0);
  Alcotest.(check bool) "some dirty verdicts" true (!dirty > 0)

(* Redundancy of the reachability cone: every word the influence test
   marks dirty has its destination or an attacker inside
   [Topo.cone], so the cone never turned a dirty verdict clean and
   dropping it from replay changes no verdict.  Few lanes, so the cone
   test is not trivially met by an attacker at a delta endpoint. *)
let prop_influence_within_cone seed =
  let within ~g ~policy ~dst ~attackers ~before:_ ~after:_ ~delta ~influenced =
    (not influenced)
    ||
    let cone = Core.Incremental.Topo.cone g delta in
    let inside = Core.Incremental.Topo.cone_dirty_dst cone in
    inside dst || Array.exists inside attackers
    || begin
         Printf.eprintf "%s d=%d: dirty word outside the cone\n%!"
           (Core.Policy.name policy) dst;
         false
       end
  in
  let ok, _, _ = influence_case ~max_lanes:3 seed within in
  ok

(* Cache soundness at the experiment layer: Evaluator chains over two
   Tier 1+2 steps fill one shared cache, [Cache.carry] republishes the
   retained secure destinations' clean pairs between the steps, and
   [Util.per_destination_changes ~cache] — pooled, as the experiments
   call it — must then equal the cache-free call bit for bit, for all
   three models.  No experiment carries between steps; the carry here
   only plants republished entries for the cached calls to read. *)
let test_per_destination_cache () =
  let module Ctx = Core.Experiments.Context in
  let module Ev = Core.Metric.Evaluator in
  let ctx = Ctx.make ~n:300 ~seed:5 ~scale:0.2 () in
  let g = ctx.Ctx.graph and tiers = ctx.Ctx.tiers in
  let attackers = Core.Experiments.Util.rollout_attackers ctx ~k:30 in
  let pairs =
    Core.Metric.pairs ~attackers
      ~dsts:(Ctx.sample ctx "pdc-dst" ctx.Ctx.all 9)
      ()
  in
  let pool = Lazy.force shared_pool in
  let empty = Core.Deployment.empty (Core.Graph.n g) in
  (* At n = 300 the paper's 13/37-AS steps dirty every sampled pair;
     these smaller steps leave some pairs clean, so the carry has work. *)
  let step1 = Core.Deployment.tier1_tier2 g tiers ~n_t1:1 ~n_t2:1 in
  let step2 = Core.Deployment.tier1_tier2 g tiers ~n_t1:1 ~n_t2:2 in
  let sd1 = Core.Experiments.Util.secure_dsts ctx step1 ~k:50 in
  let sd2 = Core.Experiments.Util.secure_dsts ctx step2 ~k:50 in
  let retained =
    Array.of_list (List.filter (fun d -> Array.mem d sd1) (Array.to_list sd2))
  in
  Alcotest.(check bool) "steps share secure destinations" true
    (Array.length retained > 0);
  let cache = Core.Metric.Cache.create () in
  let evs =
    List.map
      (fun policy ->
        let ev = Ev.create ~pool ~cache g policy pairs in
        ignore (Ev.eval ev empty);
        (policy, ev))
      Ctx.policies
  in
  let same policy dep dsts =
    let via_cache =
      Core.Experiments.Util.per_destination_changes ~pool ~cache g policy dep
        ~attackers ~dsts
    in
    let fresh =
      Core.Experiments.Util.per_destination_changes g policy dep ~attackers
        ~dsts
    in
    Array.length via_cache = Array.length fresh
    && Array.for_all2
         (fun (d, (h : Core.Metric.bounds), (a : Core.Metric.bounds))
              (d', (h' : Core.Metric.bounds), (b : Core.Metric.bounds)) ->
           d = d'
           && bits_equal h.lb h'.lb && bits_equal h.ub h'.ub
           && bits_equal a.lb b.lb && bits_equal a.ub b.ub)
         via_cache fresh
  in
  List.iter
    (fun (policy, ev) ->
      ignore (Ev.eval ev step1);
      Alcotest.(check bool)
        (Core.Policy.name policy ^ ": step 1 cached = fresh")
        true (same policy step1 sd1))
    evs;
  let cone =
    Core.Incremental.compute g ~old_dep:step1 ~new_dep:step2 ~dsts:retained
  in
  let retained_pairs = Core.Metric.pairs ~attackers ~dsts:retained () in
  let carried =
    List.fold_left
      (fun acc (policy, _) ->
        acc
        + Core.Metric.Cache.carry cache policy g cone ~old_dep:step1
            ~new_dep:step2 retained_pairs)
      0 evs
  in
  Alcotest.(check bool) "carry republished clean pairs" true (carried > 0);
  let hits0 = Core.Metric.Cache.hits cache in
  List.iter
    (fun (policy, ev) ->
      ignore (Ev.eval ev step2);
      Alcotest.(check bool)
        (Core.Policy.name policy ^ ": step 2 cached = fresh")
        true (same policy step2 sd2))
    evs;
  Alcotest.(check bool) "step 2 reused cached pairs" true
    (Core.Metric.Cache.hits cache > hits0)

let () =
  Alcotest.run "incremental"
    [
      ( "cone",
        [
          qtest "clean pairs are bit-identical (both tiebreaks)" ~count:120
            prop_cone_sound;
        ] );
      ( "evaluator",
        [
          qtest "matches scratch along chains (sequential)" ~count:60
            (prop_evaluator_exact ~pool:false);
          qtest "matches scratch along chains (pooled)" ~count:25
            (prop_evaluator_exact ~pool:true);
          Alcotest.test_case "sibling evaluator runs from cache" `Quick
            test_cache_reuse;
        ] );
      ( "cache",
        [
          Alcotest.test_case "unsigned-destination key normalization" `Quick
            test_unsigned_dst_normalization;
          Alcotest.test_case "carry republishes clean pairs" `Quick test_carry;
          Alcotest.test_case "per-destination changes: cached = fresh" `Quick
            test_per_destination_cache;
        ] );
      ( "topology delta",
        [
          qtest "replay matches scratch (3 models, both bounds)" ~count:40
            prop_replay_exact;
          qtest "influence-clean words re-solve bit-identically" ~count:60
            prop_influence_sound;
          Alcotest.test_case "influence verdicts are not all one way" `Quick
            test_influence_not_vacuous;
          qtest "influenced words lie inside the reachability cone" ~count:60
            prop_influence_within_cone;
        ] );
    ]
