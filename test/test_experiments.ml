(* Experiment harness: every registry entry must run end to end on a
   small context and produce non-trivial output; context construction,
   sampling, and the registry itself are checked. *)

open Core

(* A small but structurally complete context, shared across cases. *)
let ctx =
  lazy (Experiments.Context.make ~n:1200 ~seed:3 ~scale:0.15 ())

let ixp_ctx =
  lazy (Experiments.Context.make ~n:1200 ~seed:3 ~ixp:true ~scale:0.1 ())

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

let experiment_case ctx entry =
  Alcotest.test_case entry.Experiments.Registry.id `Slow (fun () ->
      let out = entry.Experiments.Registry.run (Lazy.force ctx) in
      Alcotest.(check bool)
        (entry.Experiments.Registry.id ^ " produces output")
        true
        (String.length out > 100);
      (* Every experiment quotes its paper anchor in the header. *)
      Alcotest.(check bool)
        (entry.Experiments.Registry.id ^ " mentions the paper")
        true
        (String.length entry.Experiments.Registry.paper > 0))

(* The App. J robustness subset, re-run on the IXP-augmented graph
   (`sbgp run --ixp baseline partitions partitions-tier lpk`). *)
let app_j_ids = [ "baseline"; "partitions"; "partitions-tier"; "lpk" ]

let app_j_entries =
  List.map
    (fun id ->
      match Experiments.Registry.find id with
      | Some e -> e
      | None -> failwith ("App. J experiment missing from registry: " ^ id))
    app_j_ids

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
        ] );
      ( "runs end to end",
        List.map (experiment_case ctx) Experiments.Registry.all );
      ( "App. J on the IXP graph",
        List.map (experiment_case ixp_ctx) app_j_entries );
    ]
