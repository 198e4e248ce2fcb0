(* Max-k-Security: the specification greedy vs brute force, CELF vs the
   specification greedy, argument validation, and the Theorem 5.1 /
   Appendix I set-cover reduction. *)

open Core
open Test_helpers

let sec3 = Policy.make Policy.Security_third

(* A random instance for the greedy-vs-brute-force properties: a small
   graph, one to three (attacker, destination) pairs, and every AS but
   the first pair's attacker as a candidate. *)
let small_instance rng =
  let g = random_graph rng ~max_n:12 in
  let n = Graph.n g in
  let pairs =
    Array.init (1 + Rng.int rng 3) (fun _ ->
        let dst = Rng.int rng n in
        { Metric.attacker = (dst + 1 + Rng.int rng (n - 1)) mod n; dst })
  in
  let m = pairs.(0).Metric.attacker in
  let candidates =
    Array.of_list (List.filter (fun v -> v <> m) (List.init n Fun.id))
  in
  (g, pairs, candidates)

(* Ground truth: the best lower bound over every k-subset. *)
let exhaustive_lb g pairs ~k ~candidates =
  let best = ref neg_infinity in
  Optimize.iter_subsets candidates k (fun subset ->
      let dep =
        Deployment.make ~n:(Graph.n g) ~full:(Array.of_list subset) ()
      in
      best := Float.max !best (Metric.h_metric g sec3 dep pairs).Metric.lb);
  !best

let test_greedy_le_exhaustive =
  qtest "greedy never beats exhaustive" ~count:40 (fun seed ->
      let rng = Rng.create seed in
      let g, pairs, candidates = small_instance rng in
      let k = 1 + Rng.int rng 2 in
      let r = Optimize.Max_k.greedy g sec3 ~pairs ~k ~candidates in
      r.Optimize.Max_k.score.Metric.lb <= exhaustive_lb g pairs ~k ~candidates)

(* At k = 1 the greedy scans every candidate, so it IS exhaustive: its
   one gain is the best single-AS gain. *)
let test_greedy_eq_exhaustive_k1 =
  qtest "greedy equals exhaustive at k = 1" ~count:40 (fun seed ->
      let rng = Rng.create seed in
      let g, pairs, candidates = small_instance rng in
      let r = Optimize.Max_k.greedy g sec3 ~pairs ~k:1 ~candidates in
      let base = r.Optimize.Max_k.baseline.Metric.lb in
      let best_gain =
        Array.fold_left
          (fun acc c ->
            let dep = Deployment.make ~n:(Graph.n g) ~full:[| c |] () in
            Float.max acc ((Metric.h_metric g sec3 dep pairs).Metric.lb -. base))
          neg_infinity candidates
      in
      r.Optimize.Max_k.achieved = 1
      && r.Optimize.Max_k.steps.(0).Optimize.Max_k.gain = best_gain)

let test_securing_helps =
  qtest "exhaustive never hurts (sec3 monotone)" ~count:40 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:12 in
      let n = Graph.n g in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if m = dst then true
      else
        let happy dep = Optimize.happy_with g sec3 dep ~attacker:m ~dst in
        happy (Deployment.make ~n ~full:[| dst |] ())
        >= happy (Deployment.empty n))

(* The upper-bound objective can only see more happy sources than the
   lower-bound one (ties resolve toward the attacker in the latter). *)
let test_objective_order =
  qtest "happy_with `Ub >= `Lb" ~count:40 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:12 in
      let n = Graph.n g in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if m = dst then true
      else
        let dep = random_deployment rng n in
        Optimize.happy_with ~objective:`Ub g sec3 dep ~attacker:m ~dst
        >= Optimize.happy_with ~objective:`Lb g sec3 dep ~attacker:m ~dst)

(* ---- argument validation and early stopping ---------------------- *)

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_validation () =
  let g = graph 4 [ c2p 1 0; c2p 2 0; c2p 3 1 ] in
  let candidates = [| 1; 2 |] in
  Alcotest.(check bool) "iter_subsets k < 0" true
    (raises_invalid (fun () -> Optimize.iter_subsets candidates (-1) ignore));
  Alcotest.(check bool) "iter_subsets k > n" true
    (raises_invalid (fun () -> Optimize.iter_subsets candidates 3 ignore));
  let pairs = [| { Metric.attacker = 3; dst = 0 } |] in
  Alcotest.(check bool) "Max_k.greedy k < 0" true
    (raises_invalid (fun () ->
         Optimize.Max_k.greedy g sec3 ~pairs ~k:(-1) ~candidates));
  Alcotest.(check bool) "Max_k.celf k < 0" true
    (raises_invalid (fun () ->
         Optimize.Max_k.celf g sec3 ~pairs ~k:(-1) ~candidates));
  Alcotest.(check bool) "Max_k.greedy empty pairs" true
    (raises_invalid (fun () ->
         Optimize.Max_k.greedy g sec3 ~pairs:[||] ~k:1 ~candidates));
  Alcotest.(check bool) "Max_k.celf bad base size" true
    (raises_invalid (fun () ->
         Optimize.Max_k.celf ~base:(Deployment.empty 3) g sec3 ~pairs ~k:1
           ~candidates))

let test_early_stop () =
  let g = graph 4 [ c2p 1 0; c2p 2 0; c2p 3 1 ] in
  let candidates = [| 1; 2 |] in
  let pairs = [| { Metric.attacker = 3; dst = 0 } |] in
  let rn = Optimize.Max_k.greedy g sec3 ~pairs ~k:5 ~candidates in
  Alcotest.(check int) "Max_k.greedy requested" 5 rn.Optimize.Max_k.requested;
  Alcotest.(check int) "Max_k.greedy chosen size" 2
    (Array.length rn.Optimize.Max_k.chosen);
  Alcotest.(check int) "Max_k.greedy achieved" 2 rn.Optimize.Max_k.achieved;
  Alcotest.(check int) "Max_k.greedy steps" 2
    (Array.length rn.Optimize.Max_k.steps);
  let rc = Optimize.Max_k.celf g sec3 ~pairs ~k:5 ~candidates in
  Alcotest.(check int) "Max_k.celf achieved" 2 rc.Optimize.Max_k.achieved

(* ---- CELF vs naive greedy ---------------------------------------- *)

(* The tentpole identity: on random instances the CELF lazy greedy must
   emit the bit-identical pick sequence and bounds as the naive
   full-re-eval greedy (Check.Optimize is the same gate at check
   scale). *)
let test_celf_eq_greedy =
  qtest "CELF equals naive greedy bit-for-bit" ~count:40 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:12 in
      let n = Graph.n g in
      if n < 6 then true
      else begin
        let d0 = Rng.int rng n in
        let d1 = (d0 + 1 + Rng.int rng (n - 1)) mod n in
        let dsts = [| d0; d1 |] in
        let rest =
          List.filter (fun v -> v <> d0 && v <> d1) (List.init n Fun.id)
        in
        match rest with
        | a0 :: a1 :: cands when cands <> [] ->
            let attackers = [| a0; a1 |] in
            let pairs = Metric.pairs ~attackers ~dsts () in
            (* Destinations sign so that transit candidates can matter. *)
            let base = Deployment.make ~n ~full:[||] ~simplex:dsts () in
            let candidates = Array.of_list cands in
            let k = 1 + Rng.int rng 3 in
            let policy = random_policy rng in
            let objective = if seed mod 2 = 0 then `Lb else `Ub in
            let naive =
              Optimize.Max_k.greedy ~objective ~base g policy ~pairs ~k
                ~candidates
            in
            let celf =
              Optimize.Max_k.celf ~objective ~base g policy ~pairs ~k
                ~candidates
            in
            let diags =
              Check.Optimize.compare_results ~label:"qcheck" naive celf
            in
            List.iter
              (fun d ->
                Printf.eprintf "%s\n%!" (Check.Diagnostic.to_string d))
              diags;
            diags = []
        | _ -> true
      end)

(* ---- the set-cover reduction ------------------------------------- *)

(* The reduction on a hand instance: universe {0,1,2}, sets {0,1}, {1,2},
   {2}.  A 2-cover exists ({0,1},{2}); no 1-cover does. *)
let test_reduction_hand () =
  let inst =
    { Optimize.Set_cover.universe = 3; sets = [| [ 0; 1 ]; [ 1; 2 ]; [ 2 ] |] }
  in
  let built = Optimize.Set_cover.build inst in
  Alcotest.(check bool) "graph acyclic" true
    (Graph.acyclic_hierarchy built.Optimize.Set_cover.graph);
  Alcotest.(check bool) "2-cover exists" true
    (Optimize.Set_cover.cover_exists inst ~gamma:2);
  Alcotest.(check bool) "no 1-cover" false
    (Optimize.Set_cover.cover_exists inst ~gamma:1);
  Alcotest.(check bool) "2-security achievable" true
    (Optimize.Set_cover.security_achievable built ~gamma:2);
  Alcotest.(check bool) "1-security not achievable" false
    (Optimize.Set_cover.security_achievable built ~gamma:1);
  (* Budgets are clamped into [0, number of sets]: over-budget decides
     like gamma = w, negative like gamma = 0. *)
  Alcotest.(check bool) "over-budget clamps to all sets" true
    (Optimize.Set_cover.cover_exists inst ~gamma:99);
  Alcotest.(check bool) "negative budget clamps to none" false
    (Optimize.Set_cover.cover_exists inst ~gamma:(-3));
  Alcotest.(check bool) "over-budget security achievable" true
    (Optimize.Set_cover.security_achievable built ~gamma:99);
  Alcotest.(check bool) "negative budget security" false
    (Optimize.Set_cover.security_achievable built ~gamma:(-3))

(* Theorem I.1's equivalence on random instances: a gamma-cover exists iff
   securing d, the elements, and gamma set-ASes makes everyone happy. *)
let test_reduction_equivalence =
  qtest "set-cover <=> max-k-security (Theorem 5.1)" ~count:60 (fun seed ->
      let rng = Rng.create seed in
      let universe = 2 + Rng.int rng 3 in
      let w = 2 + Rng.int rng 3 in
      let sets =
        Array.init w (fun _ ->
            List.filter (fun _ -> coin rng) (List.init universe Fun.id))
      in
      (* Ensure every element appears somewhere, else no cover can exist
         and the equivalence is trivially about unreachability. *)
      let sets =
        Array.mapi
          (fun j s -> if j < universe then List.sort_uniq compare (j :: s) else s)
          sets
      in
      let inst = { Optimize.Set_cover.universe; sets } in
      let built = Optimize.Set_cover.build inst in
      List.for_all
        (fun gamma ->
          Optimize.Set_cover.cover_exists inst ~gamma
          = Optimize.Set_cover.security_achievable built ~gamma)
        [ 1; 2; universe ])

(* In the reduction, an element AS is happy iff some secured set-AS covers
   it. *)
let test_reduction_element_semantics () =
  let inst =
    { Optimize.Set_cover.universe = 2; sets = [| [ 0 ]; [ 1 ] |] }
  in
  let built = Optimize.Set_cover.build inst in
  let g = built.Optimize.Set_cover.graph in
  let n = Graph.n g in
  (* Secure d, all elements, and set-AS 0 only. *)
  let full =
    Array.concat
      [
        [| built.Optimize.Set_cover.dst |];
        built.Optimize.Set_cover.element_as;
        [| built.Optimize.Set_cover.set_as.(0) |];
      ]
  in
  let dep = Deployment.make ~n ~full () in
  let out =
    Engine.compute g sec3 dep ~dst:built.Optimize.Set_cover.dst
      ~attacker:(Some built.Optimize.Set_cover.attacker)
  in
  Alcotest.(check bool) "covered element happy" true
    (Outcome.happy_lb out built.Optimize.Set_cover.element_as.(0));
  Alcotest.(check bool) "uncovered element unhappy" false
    (Outcome.happy_lb out built.Optimize.Set_cover.element_as.(1));
  (* Set ASes are immune regardless. *)
  Array.iter
    (fun s -> Alcotest.(check bool) "set AS happy" true (Outcome.happy_lb out s))
    built.Optimize.Set_cover.set_as

(* CELF greedily solves the gadget's coverage instance: the nested set is
   never picked, and both solvers agree (the check-pass gate in
   miniature). *)
let test_gadget_gate () =
  let items, diags = Check.Optimize.gadget () in
  Alcotest.(check bool) "gadget items counted" true (items > 0);
  List.iter
    (fun d -> Printf.eprintf "%s\n%!" (Check.Diagnostic.to_string d))
    diags;
  Alcotest.(check int) "gadget clean" 0 (List.length diags)

let () =
  Alcotest.run "optimize"
    [
      ( "heuristics",
        [
          test_greedy_le_exhaustive;
          test_greedy_eq_exhaustive_k1;
          test_securing_helps;
          test_objective_order;
        ] );
      ( "validation",
        [
          Alcotest.test_case "invalid arguments" `Quick test_validation;
          Alcotest.test_case "early stop" `Quick test_early_stop;
        ] );
      ( "celf",
        [
          test_celf_eq_greedy;
          Alcotest.test_case "gadget gate" `Quick test_gadget_gate;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "hand instance" `Quick test_reduction_hand;
          test_reduction_equivalence;
          Alcotest.test_case "element semantics" `Quick
            test_reduction_element_semantics;
        ] );
    ]
