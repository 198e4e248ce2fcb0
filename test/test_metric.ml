(* The H metric and the doomed/protectable/immune partitions. *)

open Core
open Test_helpers

let sec1 = Policy.make Policy.Security_first
let sec2 = Policy.make Policy.Security_second
let sec3 = Policy.make Policy.Security_third

(* The figures report a change in H like with like — pessimistic world
   against pessimistic, optimistic against optimistic — never the
   worst-case interval difference; and [to_bounds] is 0 on no sources. *)
let test_bounds_arith () =
  let after = { Metric.lb = 0.4; ub = 0.6 }
  and before = { Metric.lb = 0.1; ub = 0.2 } in
  let d = Metric.bounds_improvement after before in
  Alcotest.(check (float 1e-9)) "improvement lb" 0.3 d.Metric.lb;
  Alcotest.(check (float 1e-9)) "improvement ub" 0.4 d.Metric.ub;
  let h = Metric.to_bounds { Metric.happy_lb = 1; happy_ub = 3; sources = 4 } in
  Alcotest.(check (float 1e-9)) "to_bounds lb" 0.25 h.Metric.lb;
  Alcotest.(check (float 1e-9)) "to_bounds ub" 0.75 h.Metric.ub;
  let z = Metric.to_bounds { Metric.happy_lb = 0; happy_ub = 0; sources = 0 } in
  Alcotest.(check (float 1e-9)) "no sources" 0. z.Metric.ub

let test_happy_counts () =
  (* Figure 2 graph, security 3rd, S = {}: sources 1,2,3,5; under attack
     by 4: AS 3 is on the attack path (doomed), 2 doomed, 1 doomed
     (4-hop peer beats nothing else... 1's options: provider route len 1
     vs peer route len 4: LP prefers peer!  So 1 unhappy), 5 happy. *)
  let g =
    graph 6 [ c2p 1 0; p2p 1 2; p2p 2 0; c2p 3 2; c2p 4 3; c2p 5 0 ]
  in
  let out = Engine.compute g sec3 (Deployment.empty 6) ~dst:0 ~attacker:(Some 4) in
  let c = Metric.happy out in
  Alcotest.(check int) "sources" 4 c.Metric.sources;
  Alcotest.(check int) "happy lb" 1 c.Metric.happy_lb;
  Alcotest.(check int) "happy ub" 1 c.Metric.happy_ub

let test_pairs () =
  let ps = Metric.pairs ~attackers:[| 0; 1 |] ~dsts:[| 0; 2 |] () in
  Alcotest.(check int) "diagonal removed" 3 (Array.length ps);
  let rng = Rng.create 1 in
  let sampled =
    Metric.pairs ~rng ~max_pairs:2 ~attackers:[| 0; 1; 2 |] ~dsts:[| 3; 4; 5 |] ()
  in
  Alcotest.(check int) "sampled size" 2 (Array.length sampled)

let test_pairs_requires_rng () =
  Alcotest.check_raises "no rng" (Invalid_argument "Metric.pairs: sampling requires ~rng")
    (fun () ->
      ignore (Metric.pairs ~max_pairs:1 ~attackers:[| 0; 1 |] ~dsts:[| 2 |] ()))

let test_lb_below_ub =
  qtest "metric lower bound <= upper bound" ~count:100 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let policy = random_policy rng in
      let attackers = Rng.sample_without_replacement rng (min 3 n) n in
      let dsts = Rng.sample_without_replacement rng (min 3 n) n in
      let ps = Metric.pairs ~attackers ~dsts () in
      if Array.length ps = 0 then true
      else begin
        let b = Metric.h_metric g policy dep ps in
        b.Metric.lb <= b.Metric.ub +. 1e-9
      end)

(* The baseline metric H(emptyset) is model-independent: with no secure
   AS, the SecP step never fires. *)
let test_baseline_model_independent =
  qtest "baseline metric is model independent" ~count:100 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dep = Deployment.empty n in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if m = dst then true
      else begin
        let out p = Engine.compute g p dep ~dst ~attacker:(Some m) in
        let h p = Metric.happy (out p) in
        h sec1 = h sec2 && h sec2 = h sec3
      end)

(* Partition soundness: immune ASes are happy and doomed ASes unhappy in
   EVERY deployment (spot-checked with random deployments). *)
let test_partition_soundness =
  qtest "immune always happy, doomed never happy" ~count:150 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:25 in
      let n = Graph.n g in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if m = dst then true
      else begin
        let policy =
          match Rng.int rng 4 with
          | 0 -> sec1
          | 1 -> sec2
          | 2 -> sec3
          | _ -> Policy.make ~lp:(Policy.Lp_k (1 + Rng.int rng 3))
                   (match Rng.int rng 2 with
                   | 0 -> Policy.Security_second
                   | _ -> Policy.Security_third)
        in
        let classes = Partition.compute g policy ~attacker:m ~dst in
        let ok = ref true in
        for _ = 1 to 4 do
          let dep = random_deployment rng n in
          let out = Engine.compute g policy dep ~dst ~attacker:(Some m) in
          for v = 0 to n - 1 do
            if v <> dst && v <> m then begin
              match classes.(v) with
              | Partition.Immune ->
                  if not (Outcome.happy_lb out v) then begin
                    Printf.eprintf "seed %d: immune %d unhappy (%s)\n%!" seed v
                      (Policy.name policy);
                    ok := false
                  end
              | Partition.Doomed ->
                  if Outcome.happy_ub out v then begin
                    Printf.eprintf "seed %d: doomed %d happy (%s)\n%!" seed v
                      (Policy.name policy);
                    ok := false
                  end
              | Partition.Unreachable ->
                  if Outcome.reached out v then begin
                    Printf.eprintf "seed %d: unreachable %d reached (%s)\n%!"
                      seed v (Policy.name policy);
                    ok := false
                  end
              | Partition.Protectable -> ()
            end
          done
        done;
        !ok
      end)

(* Counting consistency. *)
let test_partition_counts =
  qtest "partition counts sum to sources" ~count:100 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if m = dst then true
      else begin
        let c = Partition.count g sec2 ~attacker:m ~dst in
        c.Partition.sources = n - 2
        && c.Partition.doomed + c.Partition.protectable + c.Partition.immune
           + c.Partition.unreachable
           = c.Partition.sources
      end)

(* Protectable ASes really are protectable in the security 1st model:
   securing everything makes every non-doomed, reachable AS happy. *)
let test_protectable_sec1 =
  qtest "sec1: full deployment rescues all protectable ASes" ~count:150
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:25 in
      let n = Graph.n g in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if m = dst then true
      else begin
        let classes = Partition.compute g sec1 ~attacker:m ~dst in
        let full =
          Deployment.of_modes (Array.make n Deployment.Full)
        in
        let out = Engine.compute g sec1 full ~dst ~attacker:(Some m) in
        let ok = ref true in
        for v = 0 to n - 1 do
          if v <> dst && v <> m then
            match classes.(v) with
            | Partition.Protectable | Partition.Immune ->
                if not (Outcome.happy_lb out v) then ok := false
            | Partition.Doomed | Partition.Unreachable -> ()
        done;
        !ok
      end)

(* Partition fractions feed the Figure 3 bounds: upper bound on H(S) =
   1 - doomed fraction; the metric for random S must respect it. *)
let test_partition_bounds_metric =
  qtest "H(S) within partition-derived bounds" ~count:100 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:25 in
      let n = Graph.n g in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if m = dst then true
      else begin
        let policy = List.nth [ sec1; sec2; sec3 ] (Rng.int rng 3) in
        let c = Partition.count g policy ~attacker:m ~dst in
        let doomed_frac, _, immune_frac = Partition.fractions c in
        let dep = random_deployment rng n in
        let out = Engine.compute g policy dep ~dst ~attacker:(Some m) in
        let h = Metric.to_bounds (Metric.happy out) in
        h.Metric.ub <= 1. -. doomed_frac +. 1e-9
        && h.Metric.lb >= immune_frac -. 1e-9
      end)

let test_h_metric_per_dst () =
  let g = graph 3 [ c2p 1 0; c2p 2 1 ] in
  let b =
    Metric.h_metric_per_dst g sec3 (Deployment.empty 3) ~attackers:[| 2; 0 |]
      ~dst:0
  in
  (* Only attacker 2 counts (0 = dst skipped).  Source AS 1: legit
     provider route len 1 vs bogus customer route len 2 via its customer
     2: LP prefers customer: unhappy. *)
  Alcotest.(check (float 1e-9)) "lb" 0.0 b.Metric.lb;
  Alcotest.(check (float 1e-9)) "ub" 0.0 b.Metric.ub

(* The decisive partition test: on tiny graphs, enumerate EVERY full/off
   deployment and check that the partition quantifies correctly over all
   of them — immune ASes are happy in every deployment, doomed in none,
   and protectable ASes see both outcomes (in bounds semantics, counting
   an AS as happy when some tiebreak makes it so). *)
let test_partition_exhaustive =
  qtest "partition = quantification over all deployments" ~count:60
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:9 in
      let n = Graph.n g in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if m = dst then true
      else begin
        let policy =
          match Rng.int rng 4 with
          | 0 -> sec1
          | 1 -> sec2
          | 2 -> sec3
          | _ ->
              Policy.make
                ~lp:(Policy.Lp_k (1 + Rng.int rng 2))
                (if coin rng then Policy.Security_second
                 else Policy.Security_third)
        in
        let classes = Partition.compute g policy ~attacker:m ~dst in
        (* ever_happy / ever_unhappy per source, over all 2^n secure
           sets. *)
        let ever_happy = Array.make n false in
        let ever_unhappy = Array.make n false in
        for mask = 0 to (1 lsl n) - 1 do
          let modes =
            Array.init n (fun v ->
                if mask land (1 lsl v) <> 0 then Deployment.Full
                else Deployment.Off)
          in
          let dep = Deployment.of_modes modes in
          let out = Engine.compute g policy dep ~dst ~attacker:(Some m) in
          for v = 0 to n - 1 do
            if v <> dst && v <> m then begin
              (* Bounds semantics: happy if some tiebreak reaches d,
                 unhappy if some tiebreak reaches m (or no route). *)
              if Outcome.happy_ub out v then ever_happy.(v) <- true;
              if not (Outcome.happy_lb out v) then ever_unhappy.(v) <- true
            end
          done
        done;
        let ok = ref true in
        for v = 0 to n - 1 do
          if v <> dst && v <> m then begin
            let fine =
              match classes.(v) with
              | Partition.Immune -> not ever_unhappy.(v)
              | Partition.Doomed -> not ever_happy.(v)
              | Partition.Protectable -> (
                  (* Under security 2nd, "protectable" is an
                     over-approximation (see Partition's documentation):
                     a class-compatible perceivable route may never be
                     chosen upstream.  Under 1st and 3rd the partition is
                     exact, so a protectable AS must be rescuable. *)
                  match (policy : Policy.t).model with
                  | Policy.Security_second -> true
                  | Policy.Security_first | Policy.Security_third ->
                      ever_happy.(v))
              | Partition.Unreachable ->
                  (not ever_happy.(v)) && ever_unhappy.(v)
            in
            if not fine then begin
              Printf.eprintf
                "seed %d: AS %d classified %s but ever_happy=%b ever_unhappy=%b (%s)\n%!"
                seed v
                (match classes.(v) with
                | Partition.Immune -> "immune"
                | Partition.Doomed -> "doomed"
                | Partition.Protectable -> "protectable"
                | Partition.Unreachable -> "unreachable")
                ever_happy.(v) ever_unhappy.(v) (Policy.name policy);
              ok := false
            end
          end
        done;
        !ok
      end)

(* The batched default path of h_metric (destination-major lane words)
   must be bit-identical — exact float equality — to the scalar
   per-pair fold, for random policies, deployments and pair sets with
   shared destinations. *)
let test_batched_h_metric_identity =
  qtest "batched h_metric = scalar per-pair fold" ~count:150 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let policy = random_policy rng in
      let pairs =
        Metric.pairs
          ~attackers:(Rng.sample_without_replacement rng (min 6 n) n)
          ~dsts:(Rng.sample_without_replacement rng (min 5 n) n)
          ()
      in
      Array.length pairs = 0
      ||
      let got = Metric.h_metric g policy dep pairs in
      let lb = ref 0. and ub = ref 0. in
      Array.iter
        (fun p ->
          let b = Metric.pair_bounds g policy dep p in
          lb := !lb +. b.Metric.lb;
          ub := !ub +. b.Metric.ub)
        pairs;
      let total = float_of_int (Array.length pairs) in
      got.Metric.lb = !lb /. total && got.Metric.ub = !ub /. total)

(* batch_plan covers each input position exactly once, groups by the
   position's destination and never exceeds the lane bound. *)
let test_batch_plan =
  qtest "batch_plan partitions the pair positions" ~count:200 (fun seed ->
      let rng = Rng.create seed in
      let npairs = 1 + Rng.int rng 300 in
      let pairs =
        Array.init npairs (fun _ ->
            {
              Metric.attacker = Rng.int rng 20;
              dst = 100 + Rng.int rng 5 (* few dsts: forces chunking *);
            })
      in
      let items = Metric.batch_plan pairs in
      let seen = Array.make npairs 0 in
      let ok = ref true in
      Array.iter
        (fun (dst, attackers, pos) ->
          if Array.length pos = 0 || Array.length pos > Batch.max_lanes then
            ok := false;
          if Array.length attackers <> Array.length pos then ok := false;
          Array.iteri
            (fun l j ->
              seen.(j) <- seen.(j) + 1;
              if pairs.(j).Metric.dst <> dst then ok := false;
              if pairs.(j).Metric.attacker <> attackers.(l) then ok := false)
            pos)
        items;
      !ok && Array.for_all (fun c -> c = 1) seen)

(* Per-lane partition counts off one batched solve = per-pair counts,
   security 3rd under both LP variants. *)
let test_sec3_count_batch =
  qtest "sec3 batched partition counts = per-pair counts" ~count:150
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dst = Rng.int rng n in
      let lanes = 1 + Rng.int rng (min 8 (n - 1)) in
      let attackers =
        Array.init lanes (fun _ ->
            let m = Rng.int rng (n - 1) in
            if m >= dst then m + 1 else m)
      in
      let policy =
        if coin rng then sec3
        else Policy.make ~lp:(Policy.Lp_k (1 + Rng.int rng 3)) Policy.Security_third
      in
      let batch = Partition.sec3_count_batch g policy ~dst ~attackers in
      let ok = ref true in
      Array.iteri
        (fun l m ->
          let want = Partition.count g policy ~attacker:m ~dst in
          if want <> batch.(l) then ok := false)
        attackers;
      !ok)

(* One full 63-lane word (lane 62 is the sign bit of the lane masks) on
   graphs of 70+ ASes, so per-lane counts carry into high planes of the
   lane counters: the batched h_metric, the replay's per-pair values and
   the batched partition counts must all equal their per-pair scalar
   folds bit for bit. *)
let test_full_word_identity =
  qtest "full 63-lane word = per-pair scalar folds" ~count:30 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph ~min_n:70 rng ~max_n:110 in
      let n = Graph.n g in
      let dst = Rng.int rng n in
      let attackers =
        Array.map
          (fun m -> if m >= dst then m + 1 else m)
          (Rng.sample_without_replacement rng Batch.max_lanes (n - 1))
      in
      let pairs = Array.map (fun m -> { Metric.attacker = m; dst }) attackers in
      let dep = random_deployment rng n in
      let policy = random_policy rng in
      let want = Array.map (Metric.pair_bounds g policy dep) pairs in
      let bits_equal a b =
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      in
      let same (a : Metric.bounds) (b : Metric.bounds) =
        bits_equal a.lb b.lb && bits_equal a.ub b.ub
      in
      let lb = ref 0. and ub = ref 0. in
      Array.iter
        (fun b ->
          lb := !lb +. b.Metric.lb;
          ub := !ub +. b.Metric.ub)
        want;
      let total = float_of_int (Array.length pairs) in
      let scalar = { Metric.lb = !lb /. total; ub = !ub /. total } in
      let rp = Metric.Replay.create g policy dep pairs in
      let replayed = Metric.Replay.eval rp in
      let sec3 =
        Policy.make
          ~lp:(if coin rng then Policy.Standard else Policy.Lp_k 2)
          Policy.Security_third
      in
      let counts = Partition.sec3_count_batch g sec3 ~dst ~attackers in
      same (Metric.h_metric g policy dep pairs) scalar
      && same replayed scalar
      && Array.for_all2 same (Metric.Replay.values rp) want
      && Array.for_all2
           (fun m c -> Partition.count g sec3 ~attacker:m ~dst = c)
           attackers counts)

let () =
  Alcotest.run "metric"
    [
      ( "h metric",
        [
          Alcotest.test_case "bounds arithmetic" `Quick test_bounds_arith;
          Alcotest.test_case "happy counts" `Quick test_happy_counts;
          Alcotest.test_case "pairs" `Quick test_pairs;
          Alcotest.test_case "pairs requires rng" `Quick test_pairs_requires_rng;
          Alcotest.test_case "per-destination metric" `Quick test_h_metric_per_dst;
          test_lb_below_ub;
          test_baseline_model_independent;
          test_batched_h_metric_identity;
          test_batch_plan;
          test_full_word_identity;
        ] );
      ( "partitions",
        [
          test_partition_soundness;
          test_partition_exhaustive;
          test_partition_counts;
          test_protectable_sec1;
          test_partition_bounds_metric;
          test_sec3_count_batch;
        ] );
    ]
