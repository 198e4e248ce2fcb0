(* Attack strategy space (Section 3). *)

open Core
open Test_helpers

let sec3 = Policy.make Policy.Security_third

(* Small fixed scenario: d=0 with provider 1 and its chain; attacker 3. *)
let g = lazy (graph 5 [ c2p 0 1; c2p 1 2; c2p 3 2; c2p 4 3 ])
let empty = Deployment.empty 5

let simulate ?origin_auth strategy =
  Attacks.simulate ?origin_auth (Lazy.force g) sec3 empty ~attacker:3 ~dst:0
    strategy

let test_origin_validation_gate () =
  Alcotest.(check bool) "prefix hijack fails OV" false
    (Attacks.passes_origin_validation Attacks.Prefix_hijack);
  Alcotest.(check bool) "subprefix hijack fails OV" false
    (Attacks.passes_origin_validation Attacks.Subprefix_hijack);
  Alcotest.(check bool) "fabricated path passes OV" true
    (Attacks.passes_origin_validation (Attacks.Fabricated_path 1));
  Alcotest.(check bool) "longer fabricated path passes OV" true
    (Attacks.passes_origin_validation (Attacks.Fabricated_path 4))

let test_filtered_hijack_is_noop () =
  let r = simulate ~origin_auth:true Attacks.Prefix_hijack in
  Alcotest.(check bool) "filtered" true r.Attacks.filtered;
  (* All three sources (1, 2, 4) reach the destination normally. *)
  Alcotest.(check int) "all happy" r.Attacks.sources r.Attacks.happy_lb

let test_unfiltered_subprefix_is_devastating () =
  let r = simulate ~origin_auth:false Attacks.Subprefix_hijack in
  Alcotest.(check bool) "not filtered" false r.Attacks.filtered;
  (* Everyone with a perceivable route to the attacker loses; in this
     graph that is everyone. *)
  Alcotest.(check int) "nobody happy" 0 r.Attacks.happy_lb

let test_fabricated_path_ignores_origin_auth () =
  let with_oa = simulate ~origin_auth:true (Attacks.Fabricated_path 1) in
  let without = simulate ~origin_auth:false (Attacks.Fabricated_path 1) in
  Alcotest.(check bool) "not filtered" false with_oa.Attacks.filtered;
  Alcotest.(check int) "same happy count" with_oa.Attacks.happy_lb
    without.Attacks.happy_lb

let test_fabricated_path_requires_positive_length () =
  Alcotest.check_raises "length 0 rejected"
    (Invalid_argument "Attacks.simulate: Fabricated_path requires length >= 1")
    (fun () -> ignore (simulate (Attacks.Fabricated_path 0)))

(* Shorter claims are (weakly) stronger attacks — the justification for
   the paper's choice of the "m d" announcement.  This holds for the
   standard Gao-Rexford LP model (verified over hundreds of thousands of
   random instances); under the LPk variants it can fail in rare corner
   cases, because a longer claim can flip an intermediate AS's
   length-interleaved class and thereby change what it exports. *)
let test_shorter_claims_stronger =
  qtest "attack strength is monotone in claimed length (standard LP)"
    ~count:150
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let policy =
        Policy.make
          (match Rng.int rng 3 with
          | 0 -> Policy.Security_first
          | 1 -> Policy.Security_second
          | _ -> Policy.Security_third)
      in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if dst = m then true
      else begin
        let happy k =
          (Attacks.simulate g policy dep ~attacker:m ~dst
             (Attacks.Fabricated_path k))
            .Attacks.happy_lb
        in
        let h1 = happy 1 and h2 = happy 2 and h4 = happy 4 in
        h1 <= h2 && h2 <= h4
      end)

(* An unfiltered prefix hijack (claim 0) is at least as strong as the
   "m d" attack. *)
let test_hijack_at_least_as_strong =
  qtest "prefix hijack >= fabricated path when unfiltered" ~count:150
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if dst = m then true
      else begin
        let happy s =
          (Attacks.simulate ~origin_auth:false g sec3 (Deployment.empty n)
             ~attacker:m ~dst s)
            .Attacks.happy_lb
        in
        happy Attacks.Prefix_hijack <= happy (Attacks.Fabricated_path 1)
      end)

let test_strategy_names () =
  Alcotest.(check string) "md name" "fabricated path \"m d\""
    (Attacks.strategy_name (Attacks.Fabricated_path 1));
  Alcotest.(check string) "hijack name" "prefix hijack"
    (Attacks.strategy_name Attacks.Prefix_hijack)

(* The attacks experiment reads fabricated paths and the unfiltered
   prefix hijack through the metric cache, one destination word per
   claim.  Its averages must equal the per-pair [simulate] fold bit for
   bit, for every strategy, both origin-authentication settings, every
   model plus LP-2 and three deployments, on a cold and on a warm
   cache.  A filtered announcement is computed only under security 3rd,
   S = {} and the standard LP, the setting Part 1 runs it in; anywhere
   else it is rejected. *)
let test_avg_happy_cached () =
  let ctx = Experiments.Context.make ~n:300 ~seed:5 ~scale:0.1 () in
  let g = ctx.Experiments.Context.graph in
  let n = Graph.n g in
  let pairs =
    Metric.pairs
      ~attackers:
        (Experiments.Context.sample ctx "t-att" ctx.Experiments.Context.non_stubs 6)
      ~dsts:(Experiments.Context.sample ctx "t-dst" ctx.Experiments.Context.all 5)
      ()
  in
  let per_pair policy dep ~origin_auth strategy =
    let lb = ref 0. and ub = ref 0. in
    Array.iter
      (fun { Metric.attacker; dst } ->
        let flb, fub =
          Attacks.happy_fraction
            (Attacks.simulate ~origin_auth g policy dep ~attacker ~dst strategy)
        in
        lb := !lb +. flb;
        ub := !ub +. fub)
      pairs;
    let k = float_of_int (Array.length pairs) in
    (!lb /. k, !ub /. k)
  in
  let deps =
    [
      Deployment.empty n;
      Deployment.tier1_tier2 g ctx.Experiments.Context.tiers ~n_t1:3 ~n_t2:10;
      random_deployment (Rng.create 9) n;
    ]
  in
  let policies =
    Policy.make ~lp:(Policy.Lp_k 2) Policy.Security_third
    :: Experiments.Context.policies
  in
  let strategies =
    Attacks.
      [
        Prefix_hijack;
        Subprefix_hijack;
        Fabricated_path 1;
        Fabricated_path 2;
        Fabricated_path 3;
        Fabricated_path 5;
      ]
  in
  List.iter
    (fun dep ->
      List.iter
        (fun policy ->
          List.iter
            (fun origin_auth ->
              List.iter
                (fun strategy ->
                  let got () =
                    Experiments.Exp_attacks.avg_happy ctx policy dep
                      ~origin_auth pairs strategy
                  in
                  let what =
                    Printf.sprintf "%s, %s, OA %b" (Policy.name policy)
                      (Attacks.strategy_name strategy) origin_auth
                  in
                  let filtered =
                    origin_auth
                    && not (Attacks.passes_origin_validation strategy)
                  in
                  let premise =
                    policy = Experiments.Context.sec3
                    && Deployment.count_secure dep = 0
                  in
                  if filtered && not premise then
                    Alcotest.(check bool) (what ^ ", rejected") true
                      (match got () with
                      | _ -> false
                      | exception Invalid_argument _ -> true)
                  else begin
                    let want = per_pair policy dep ~origin_auth strategy in
                    Alcotest.(check bool) (what ^ ", cold") true (got () = want);
                    Alcotest.(check bool) (what ^ ", warm") true (got () = want)
                  end)
                strategies)
            [ false; true ])
        policies)
    deps;
  Alcotest.(check bool) "the twins hit the cache" true
    (Metric.Cache.hits (Experiments.Context.cache ctx) > 0)

(* The batched attacks that bypass route selection equal the per-pair
   [simulate], record for record: the filtered prefix and subprefix
   hijacks (closure lanes of up to 63 distinct destinations under
   security 3rd, S = {} and the standard LP) and the unfiltered
   subprefix hijack under a random policy and deployment, on acyclic
   and cyclic hierarchies of 70+ ASes, with pairs that mix destinations
   and repeat.  A filtered announcement under another model, LP or a
   non-empty deployment is rejected. *)
let test_simulate_pairs =
  qtest "simulate_pairs = per-pair simulate" ~count:25 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph ~min_n:70 ~cycle:(coin rng) rng ~max_n:110 in
      let n = Graph.n g in
      let dsts = Rng.sample_without_replacement rng (60 + Rng.int rng 10) n in
      let fresh _ =
        let dst = dsts.(Rng.int rng (Array.length dsts)) in
        let m = Rng.int rng (n - 1) in
        { Metric.attacker = (if m >= dst then m + 1 else m); dst }
      in
      let base = Array.init (80 + Rng.int rng 80) fresh in
      let pairs =
        Array.append base
          (Array.init 20 (fun _ -> base.(Rng.int rng (Array.length base))))
      in
      let same policy dep ~origin_auth strategy =
        Attacks.simulate_pairs ~origin_auth g policy dep pairs strategy
        = Array.map
            (fun { Metric.attacker; dst } ->
              Attacks.simulate ~origin_auth g policy dep ~attacker ~dst strategy)
            pairs
      in
      let rejected policy dep strategy =
        match Attacks.simulate_pairs g policy dep pairs strategy with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      let empty = Deployment.empty n in
      let other = random_policy rng and dep = random_deployment rng n in
      let secure = Deployment.make ~n ~full:[| pairs.(0).Metric.dst |] () in
      same sec3 empty ~origin_auth:true Attacks.Prefix_hijack
      && same sec3 empty ~origin_auth:true Attacks.Subprefix_hijack
      && same sec3 empty ~origin_auth:false Attacks.Subprefix_hijack
      && same other dep ~origin_auth:false Attacks.Subprefix_hijack
      && rejected (Policy.make Policy.Security_first) empty Attacks.Prefix_hijack
      && rejected (Policy.make ~lp:(Policy.Lp_k 2) Policy.Security_third)
           empty Attacks.Subprefix_hijack
      && rejected sec3 secure Attacks.Prefix_hijack)

let test_simulate_pairs_rejects () =
  let g = Lazy.force g in
  let pairs = [| { Metric.attacker = 3; dst = 0 } |] in
  Alcotest.check_raises "route selection"
    (Invalid_argument
       "Attacks.simulate_pairs: the attack enters route selection")
    (fun () ->
      ignore
        (Attacks.simulate_pairs ~origin_auth:false g sec3 empty pairs
           Attacks.Prefix_hijack))

let () =
  Alcotest.run "attacks"
    [
      ( "origin validation",
        [
          Alcotest.test_case "validation gate" `Quick
            test_origin_validation_gate;
          Alcotest.test_case "filtered hijack is a no-op" `Quick
            test_filtered_hijack_is_noop;
          Alcotest.test_case "unfiltered subprefix hijack" `Quick
            test_unfiltered_subprefix_is_devastating;
          Alcotest.test_case "fabricated path ignores OA" `Quick
            test_fabricated_path_ignores_origin_auth;
          Alcotest.test_case "bad length" `Quick
            test_fabricated_path_requires_positive_length;
          Alcotest.test_case "names" `Quick test_strategy_names;
        ] );
      ( "properties",
        [ test_shorter_claims_stronger; test_hijack_at_least_as_strong ] );
      ( "experiment",
        [
          test_simulate_pairs;
          Alcotest.test_case "simulate_pairs rejects selected attacks" `Quick
            test_simulate_pairs_rejects;
          Alcotest.test_case "cached avg_happy = per-pair simulate" `Quick
            test_avg_happy_cached;
        ] );
    ]
