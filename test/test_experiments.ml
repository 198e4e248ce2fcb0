(* Experiment harness: every registry entry must run end to end on a
   small context and produce non-trivial output; context construction,
   sampling, and the registry itself are checked. *)

open Core

(* A small but structurally complete context, shared across cases. *)
let ctx =
  lazy (Experiments.Context.make ~n:1200 ~seed:3 ~scale:0.15 ())

let ixp_ctx =
  lazy (Experiments.Context.make ~n:1200 ~seed:3 ~ixp:true ~scale:0.1 ())

(* [ctx] on a one-domain pool: the experiments that fan out over the
   pool must print the same bytes whatever its width. *)
let ctx_1 =
  lazy (Experiments.Context.make ~n:1200 ~seed:3 ~scale:0.15 ~domains:1 ())

let test_context_basics () =
  let c = Lazy.force ctx in
  Alcotest.(check int) "all ASes listed" 1200
    (Array.length c.Experiments.Context.all);
  Alcotest.(check bool) "non-stub pool non-empty" true
    (Array.length c.Experiments.Context.non_stubs > 0);
  Alcotest.(check bool) "cps designated" true
    (Array.length c.Experiments.Context.cps > 0);
  Alcotest.(check string) "label" "base" c.Experiments.Context.label

let test_context_deterministic () =
  let a = Experiments.Context.make ~n:1200 ~seed:3 () in
  let b = Experiments.Context.make ~n:1200 ~seed:3 () in
  Alcotest.(check bool) "same graph" true
    (Graph.edges a.Experiments.Context.graph
    = Graph.edges b.Experiments.Context.graph);
  Alcotest.(check (array int)) "same samples"
    (Experiments.Context.sample a "x" a.Experiments.Context.all 10)
    (Experiments.Context.sample b "x" b.Experiments.Context.all 10)

let test_context_sampling () =
  let c = Lazy.force ctx in
  let s1 = Experiments.Context.sample c "p1" c.Experiments.Context.all 20 in
  let s2 = Experiments.Context.sample c "p2" c.Experiments.Context.all 20 in
  Alcotest.(check int) "size" 20 (Array.length s1);
  Alcotest.(check bool) "purposes draw differently" true (s1 <> s2);
  (* Oversampling clips to the pool. *)
  let s3 = Experiments.Context.sample c "p3" [| 1; 2; 3 |] 10 in
  Alcotest.(check int) "clipped" 3 (Array.length s3)

let test_sample_key_reuse () =
  let c = Lazy.force ctx in
  let pool1 = [| 2; 4; 6; 8; 10; 12 |] in
  let s1 = Experiments.Context.sample c "reuse" pool1 3 in
  (* Replaying the identical draw is legitimate... *)
  Alcotest.(check (array int)) "identical replay allowed" s1
    (Experiments.Context.sample c "reuse" pool1 3);
  (* ...but the same purpose against a different pool or size would
     silently replay one index stream over unrelated data — the Figure
     7(b) secure-destination bug — so it must raise. *)
  Alcotest.check_raises "different pool rejected"
    (Invalid_argument
       "Context.sample: purpose \"reuse\" reused with a different pool or size")
    (fun () -> ignore (Experiments.Context.sample c "reuse" [| 1; 3; 5 |] 3));
  Alcotest.check_raises "different size rejected"
    (Invalid_argument
       "Context.sample: purpose \"reuse\" reused with a different pool or size")
    (fun () -> ignore (Experiments.Context.sample c "reuse" pool1 4))

let test_priority_sample () =
  let c = Lazy.force ctx in
  let all = c.Experiments.Context.all in
  let small = Array.sub all 0 200 in
  let big = Array.sub all 0 400 in
  let s_small = Experiments.Context.priority_sample c "ps" small 50 in
  let s_big = Experiments.Context.priority_sample c "ps" big 50 in
  Alcotest.(check int) "k elements" 50 (Array.length s_small);
  Alcotest.(check (array int)) "deterministic" s_small
    (Experiments.Context.priority_sample c "ps" small 50);
  let mem pool v = Array.exists (( = ) v) pool in
  Alcotest.(check bool) "subset of pool" true
    (Array.for_all (mem small) s_small);
  (* Nested pools give nested-ish samples: every member of the bigger
     pool's sample that lies in the smaller pool must also be in the
     smaller pool's sample (the priority order is global). *)
  Alcotest.(check bool) "coupled across nested pools" true
    (Array.for_all
       (fun v -> (not (mem small v)) || mem s_small v)
       s_big);
  (* Clips like [sample]. *)
  Alcotest.(check int) "clipped" 3
    (Array.length (Experiments.Context.priority_sample c "ps" [| 7; 8; 9 |] 10));
  (* Unlike [sample], reuse across pools is the point — no exception. *)
  ignore (Experiments.Context.priority_sample c "ps" big 20)

let test_context_scaled () =
  let c = Experiments.Context.make ~n:1200 ~scale:2.5 () in
  Alcotest.(check int) "scaled up" 25 (Experiments.Context.scaled c 10);
  let c' = Experiments.Context.make ~n:1200 ~scale:0.01 () in
  Alcotest.(check int) "never below 1" 1 (Experiments.Context.scaled c' 10)

(* The CLI's context line must not round small scales away: at
   [%.1f] a 0.02-scale run used to report scale=0.0. *)
let test_describe_scale () =
  let c = Experiments.Context.make ~n:200 ~seed:3 ~scale:0.02 () in
  let d = Experiments.Context.describe c in
  (* scale is the line's last field *)
  Alcotest.(check bool) (d ^ " reports scale=0.02") true
    (String.ends_with ~suffix:" scale=0.02" d)

let test_ixp_context () =
  let base = Lazy.force ctx and ixp = Lazy.force ixp_ctx in
  Alcotest.(check string) "label" "ixp" ixp.Experiments.Context.label;
  Alcotest.(check bool) "more peer edges" true
    (Graph.num_peer_edges ixp.Experiments.Context.graph
    > Graph.num_peer_edges base.Experiments.Context.graph)

let test_registry () =
  let ids = Experiments.Registry.ids () in
  Alcotest.(check bool) "at least 12 experiments" true (List.length ids >= 12);
  Alcotest.(check bool) "ids unique" true
    (List.length (List.sort_uniq compare ids) = List.length ids);
  Alcotest.(check bool) "find works" true
    (Experiments.Registry.find "baseline" <> None);
  Alcotest.(check bool) "find rejects junk" true
    (Experiments.Registry.find "nope" = None)

(* MD5 of each experiment's output on the two contexts above.  Any
   change to a number, a row or a label moves a digest, so a refactor
   of the metric path that is meant to be output-neutral is checked
   byte for byte here, at n = 1 200, in seconds.  A change that is
   meant to move an output updates its digest, with the reason. *)
let base_digests =
  [
    ("baseline", "ed2df81eded03567de041f1be12f03b0");
    ("partitions", "dc126dc6463ea2f1ca7cb141326c9810");
    ("partitions-tier", "91ab087b9da63f4e3f02154bb9977e1a");
    ("rollout", "2eecd77d1df7db4d52aedc0257f741d9");
    ("per-destination", "986cd3678b571ad83bc89f2cfa6138b3");
    ("cp-fate", "b9767c146769784e75eda1c48a3c4038");
    ("early-adopters", "516848784a6b678ed0424311163cc682");
    ("root-cause", "9cf009daebe26782be2aec6b4f23735b");
    ("phenomena", "a4e7b433e66c9c5a75a562eb25b917f1");
    ("lpk", "538269c3e72a2cd40dde9fac5fab9c59");
    ("attacks", "7addaa88de312234d12f4b51fc9da69b");
    ("extensions", "320b09ccda8c1aedb2f9caec5e85c853");
    ("anecdotes", "52fa57a4102910a2dd57c67a51dfffa5");
    ("optimize", "dbeb24b6c361d87d70630eb5e6044392");
  ]

let ixp_digests =
  [
    ("baseline", "f06baa917ad3f347e7abf0097ececf52");
    ("partitions", "203085181e2dfb172e8f47c4a9f37de0");
    ("partitions-tier", "710823b29f34b171610509c77a553541");
    ("lpk", "63f52520e1605510ef1bf3692dd5b258");
  ]

let experiment_case ~digests ctx entry =
  let id = entry.Experiments.Registry.id in
  Alcotest.test_case id `Slow (fun () ->
      let out = entry.Experiments.Registry.run (Lazy.force ctx) in
      Alcotest.(check bool) (id ^ " produces output") true
        (String.length out > 100);
      Alcotest.(check (option string))
        (id ^ " output digest") (List.assoc_opt id digests)
        (Some (Digest.to_hex (Digest.string out)));
      (* Every experiment quotes its paper anchor in the header. *)
      Alcotest.(check bool)
        (entry.Experiments.Registry.id ^ " mentions the paper")
        true
        (String.length entry.Experiments.Registry.paper > 0))

(* The App. J robustness subset, re-run on the IXP-augmented graph
   (`sbgp run --ixp baseline partitions partitions-tier lpk`). *)
let app_j_ids = [ "baseline"; "partitions"; "partitions-tier"; "lpk" ]

let registry_entries ids =
  List.map
    (fun id ->
      match Experiments.Registry.find id with
      | Some e -> e
      | None -> failwith ("experiment missing from registry: " ^ id))
    ids

let app_j_entries = registry_entries app_j_ids

(* The baseline experiment's headline number must be in the paper's
   ballpark on the synthetic graph. *)
let test_baseline_value () =
  let c = Lazy.force ctx in
  let attackers = Experiments.Context.sample c "bv-att" c.Experiments.Context.all 25 in
  let dsts = Experiments.Context.sample c "bv-dst" c.Experiments.Context.all 25 in
  let pairs = Metric.pairs ~attackers ~dsts () in
  let b =
    Metric.h_metric c.Experiments.Context.graph Experiments.Context.sec3
      (Deployment.empty 1200) pairs
  in
  Alcotest.(check bool)
    (Printf.sprintf "baseline lb %.2f in [0.45, 0.8]" b.Metric.lb)
    true
    (b.Metric.lb > 0.45 && b.Metric.lb < 0.8)

(* DESIGN.md promises that the aggregate trends are stable across seeds:
   the Figure-3 shape must not depend on which synthetic graph we drew. *)
let test_seed_stability () =
  let shape seed =
    let c = Experiments.Context.make ~n:1200 ~seed ~scale:0.2 () in
    let attackers = Experiments.Context.sample c "ss-att" c.Experiments.Context.all 20 in
    let dsts = Experiments.Context.sample c "ss-dst" c.Experiments.Context.all 20 in
    let pairs = Metric.pairs ~attackers ~dsts () in
    let doomed, _, immune =
      Experiments.Util.partition_fractions c.Experiments.Context.graph
        Experiments.Context.sec3 pairs
    in
    (doomed, immune)
  in
  let d1, i1 = shape 11 and d2, i2 = shape 222 in
  Alcotest.(check bool)
    (Printf.sprintf "doomed stable (%.2f vs %.2f)" d1 d2)
    true
    (abs_float (d1 -. d2) < 0.12);
  Alcotest.(check bool)
    (Printf.sprintf "immune stable (%.2f vs %.2f)" i1 i2)
    true
    (abs_float (i1 -. i2) < 0.12)

(* At n = 500, seed 111, scale 0.02 the one attacker [cp-fate] samples
   is its first CP, which leaves that CP no pair: its "secure routes
   (normal)" column must still read the CP's normal state. *)
let test_cp_fate_lone_attacker () =
  let c = Experiments.Context.make ~n:500 ~seed:111 ~scale:0.02 () in
  let g = c.Experiments.Context.graph and dst = c.Experiments.Context.cps.(0) in
  Alcotest.(check (array int)) "the sample is the CP" [| dst |]
    (Experiments.Context.sample c "cpfate-att" c.Experiments.Context.non_stubs
       (Experiments.Context.scaled c 30));
  let dep =
    Deployment.tier1_and_stubs ~with_cps:true g c.Experiments.Context.tiers
  in
  let normal =
    Reference.compute g Experiments.Context.sec3 dep ~dst ~attacker:None
  in
  let n = Graph.n g in
  let secure =
    List.length
      (List.filter
         (fun v -> v <> dst && Outcome.secure normal v)
         (List.init n Fun.id))
  in
  Alcotest.(check bool) "some secure route" true (secure > 0);
  let row =
    List.find
      (String.starts_with ~prefix:(Printf.sprintf "CP1 (AS %d)" dst))
      (String.split_on_char '\n' (Experiments.Exp_cp_fate.run c))
  in
  let cells = List.filter (( <> ) "") (String.split_on_char ' ' row) in
  Alcotest.(check string) "secure column"
    (Experiments.Util.pct (float_of_int secure /. float_of_int (n - 1)))
    (List.nth cells 3);
  Alcotest.(check (list string)) "no sample, no fate" [ "-"; "-"; "-" ]
    (List.filteri (fun i _ -> i >= 4) cells)

let () =
  Alcotest.run "experiments"
    [
      ( "context",
        [
          Alcotest.test_case "basics" `Quick test_context_basics;
          Alcotest.test_case "deterministic" `Quick test_context_deterministic;
          Alcotest.test_case "sampling" `Quick test_context_sampling;
          Alcotest.test_case "sample-key reuse guard" `Quick
            test_sample_key_reuse;
          Alcotest.test_case "priority sampling" `Quick test_priority_sample;
          Alcotest.test_case "scaled" `Quick test_context_scaled;
          Alcotest.test_case "describe keeps small scales" `Quick
            test_describe_scale;
          Alcotest.test_case "ixp variant" `Quick test_ixp_context;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "baseline ballpark" `Slow test_baseline_value;
          Alcotest.test_case "stable across seeds" `Slow test_seed_stability;
          Alcotest.test_case "cp-fate lone attacker is a CP" `Quick
            test_cp_fate_lone_attacker;
        ] );
      ( "runs end to end",
        List.map
          (experiment_case ~digests:base_digests ctx)
          Experiments.Registry.all );
      ( "App. J on the IXP graph",
        List.map (experiment_case ~digests:ixp_digests ixp_ctx) app_j_entries );
      ( "one domain",
        List.map
          (experiment_case ~digests:base_digests ctx_1)
          (registry_entries [ "phenomena"; "root-cause" ]) );
    ]
