(* Synthetic topology generator: structural invariants. *)

open Core

let gen ?(n = 1500) seed =
  Topogen.generate ~params:(Topogen.default_params ~n) (Rng.create seed)

let test_deterministic () =
  let a = gen 42 and b = gen 42 in
  Alcotest.(check bool) "same graph for same seed" true
    (Graph.edges a.Topogen.graph = Graph.edges b.Topogen.graph)

let test_seed_changes_graph () =
  let a = gen 1 and b = gen 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Graph.edges a.Topogen.graph <> Graph.edges b.Topogen.graph)

let structural_props seed =
  let r = gen seed in
  let g = r.Topogen.graph in
  let ok = ref true in
  let check name cond =
    if not cond then begin
      Printf.eprintf "topogen seed %d: %s failed\n%!" seed name;
      ok := false
    end
  in
  check "acyclic" (Result.is_ok (Graph.hierarchy g));
  check "connected" (Graph.connected g);
  (* Only the Tier 1s lack providers. *)
  let providerless = ref 0 in
  for v = 0 to Graph.n g - 1 do
    if Array.length (Graph.providers g v) = 0 then begin
      incr providerless;
      check "provider-less is level 0" (r.Topogen.levels.(v) = 0)
    end
  done;
  check "provider-less count = T1 count"
    (!providerless = (Topogen.default_params ~n:1500).Topogen.n_t1);
  (* Stub share is large (the paper's graph has ~85%). *)
  let stubs = ref 0 in
  for v = 0 to Graph.n g - 1 do
    if Graph.is_stub g v then incr stubs
  done;
  let frac = float_of_int !stubs /. float_of_int (Graph.n g) in
  check "stub fraction in [0.6, 0.95]" (frac > 0.6 && frac < 0.95);
  (* Some stubs are homed exclusively to Tier 1s (Section 5.2.3 needs
     them). *)
  let t1_stubs = ref 0 in
  for v = 0 to Graph.n g - 1 do
    if
      Graph.is_stub g v
      && Array.length (Graph.providers g v) > 0
      && Array.for_all (fun p -> r.Topogen.levels.(p) = 0) (Graph.providers g v)
    then incr t1_stubs
  done;
  check "has Tier-1 stubs" (!t1_stubs > 0);
  !ok

let test_structure =
  Test_helpers.qtest "structural invariants" ~count:15 structural_props

let test_tiers_alignment () =
  let r = gen 7 in
  let tiers = Topogen.tiers r in
  (* All designated CPs classify as CP. *)
  Array.iter
    (fun cp ->
      Alcotest.(check string) "designated CP classified CP" "CP"
        (Tiers.tier_name (Tiers.tier_of tiers cp)))
    r.Topogen.cps;
  (* Generated T1s (level 0) classify as T1. *)
  for v = 0 to Graph.n r.Topogen.graph - 1 do
    if r.Topogen.levels.(v) = 0 then
      Alcotest.(check string) "level-0 classified T1" "T1"
        (Tiers.tier_name (Tiers.tier_of tiers v))
  done

let test_degree_skew () =
  (* Customer degrees must be heavy-tailed: the top AS should dwarf the
     median transit AS. *)
  let r = gen 3 in
  let g = r.Topogen.graph in
  let degs =
    List.init (Graph.n g) (fun v -> Graph.customer_degree g v)
    |> List.sort (fun a b -> compare b a)
  in
  match degs with
  | top :: _ ->
      (* heavy tail: the largest customer cone should be a sizable
         fraction of the graph (n/20) and dwarf the mean customer
         degree. *)
      let mean =
        float_of_int (Graph.num_customer_provider_edges g)
        /. float_of_int (Graph.n g)
      in
      Alcotest.(check bool) "top customer degree > n/20" true
        (top > Graph.n g / 20);
      Alcotest.(check bool) "top degree >> mean" true
        (float_of_int top > 10. *. mean)
  | [] -> Alcotest.fail "empty graph"

let test_t1_clique () =
  let r = gen 11 in
  let g = r.Topogen.graph in
  let t1s =
    List.filter
      (fun v -> r.Topogen.levels.(v) = 0)
      (List.init (Graph.n g) (fun i -> i))
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a <> b then
            Alcotest.(check bool) "T1s peer pairwise" true
              (Array.exists (( = ) b) (Graph.peers g a)))
        t1s)
    t1s

let test_edge_ratio () =
  (* The peer/customer edge ratio should be in the rough vicinity of the
     UCLA graph's (62129/73442 ~ 0.85); we accept a broad band. *)
  let r = gen 19 in
  let g = r.Topogen.graph in
  let ratio =
    float_of_int (Graph.num_peer_edges g)
    /. float_of_int (Graph.num_customer_provider_edges g)
  in
  Alcotest.(check bool)
    (Printf.sprintf "peer/customer ratio %.2f in [0.3, 1.5]" ratio)
    true
    (ratio > 0.3 && ratio < 1.5)

let test_too_small_n () =
  Alcotest.(check bool) "small n raises" true
    (try
       ignore
         (Topogen.generate
            ~params:(Topogen.default_params ~n:2000)
            (Rng.create 0));
       (* n=2000 is fine; now force a contradiction. *)
       let p = { (Topogen.default_params ~n:2000) with Topogen.n = 300 } in
       ignore (Topogen.generate ~params:p (Rng.create 0));
       false
     with Invalid_argument _ -> true)

(* ---- Calibration scaling and knob validation (PR 9) --------------- *)

let test_calibration_params () =
  (* At and below the UCLA-2012 calibration point the defaults are the
     historical absolutes. *)
  let p = Topogen.default_params ~n:4000 in
  Alcotest.(check int) "n_t1 at 4000" 13 p.Topogen.n_t1;
  Alcotest.(check int) "n_t2 at 4000" 100 p.Topogen.n_t2;
  Alcotest.(check int) "n_small_cp at 4000" 300 p.Topogen.n_small_cp;
  let p = Topogen.default_params ~n:Topogen.calibration_n in
  Alcotest.(check int) "n_t2 at calibration" 100 p.Topogen.n_t2;
  Alcotest.(check int) "n_cp at calibration" 17 p.Topogen.n_cp;
  (* Above it, the transit/edge tiers scale proportionally with n. *)
  let p = Topogen.default_params ~n:(2 * Topogen.calibration_n) in
  Alcotest.(check int) "n_t2 doubles" 200 p.Topogen.n_t2;
  Alcotest.(check int) "n_t3 doubles" 200 p.Topogen.n_t3;
  Alcotest.(check int) "n_cp doubles" 34 p.Topogen.n_cp;
  Alcotest.(check int) "n_small_cp doubles" 600 p.Topogen.n_small_cp;
  Alcotest.(check int) "n_t1 stays 13" 13 p.Topogen.n_t1

let expect_knob what knob p =
  match Topogen.generate ~params:p (Rng.create 0) with
  | _ -> Alcotest.failf "%s: degenerate params accepted" what
  | exception Invalid_argument msg ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        m = 0 || go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names %S" what msg knob)
        true (contains msg knob)

let test_knob_validation () =
  let base = Topogen.default_params ~n:4000 in
  expect_knob "frac > 1" "frac_mid" { base with Topogen.frac_mid = 1.5 };
  expect_knob "frac < 0" "frac_t1_stub" { base with Topogen.frac_t1_stub = -0.1 };
  expect_knob "frac NaN" "frac_stub_x" { base with Topogen.frac_stub_x = Float.nan };
  expect_knob "p zero" "stub_provider_p" { base with Topogen.stub_provider_p = 0. };
  expect_knob "p above 1" "stub_provider_p"
    { base with Topogen.stub_provider_p = 1.5 };
  expect_knob "tier zero" "n_t1" { base with Topogen.n_t1 = 0 };
  expect_knob "tier negative" "n_small_cp" { base with Topogen.n_small_cp = -3 };
  expect_knob "degree negative" "cp_peer_degree"
    { base with Topogen.cp_peer_degree = -1 };
  (* Above the calibration point, keeping the small-n absolutes is a
     silent degeneration — rejected, naming the knob. *)
  let big = 3 * Topogen.calibration_n in
  expect_knob "stale tier above calibration" "n_t2"
    { (Topogen.default_params ~n:big) with Topogen.n_t2 = 100 };
  expect_knob "stale edge tier above calibration" "n_small_cp"
    { (Topogen.default_params ~n:big) with Topogen.n_small_cp = 300 }

let () =
  Alcotest.run "topogen"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_graph;
          test_structure;
          Alcotest.test_case "tiers align" `Quick test_tiers_alignment;
          Alcotest.test_case "degree skew" `Quick test_degree_skew;
          Alcotest.test_case "T1 clique" `Quick test_t1_clique;
          Alcotest.test_case "edge ratio" `Quick test_edge_ratio;
          Alcotest.test_case "n too small" `Quick test_too_small_n;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "default params scale" `Quick
            test_calibration_params;
          Alcotest.test_case "knob validation" `Quick test_knob_validation;
        ] );
    ]
