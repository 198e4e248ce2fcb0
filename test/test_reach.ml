(* Perceivable-route reachability closures (Routing.Reach). *)

open Core
open Test_helpers

let test_customer_chain () =
  (* d=0 <- 1 <- 2 (providers upward); 3 a customer of 2. *)
  let g = graph 4 [ c2p 0 1; c2p 1 2; c2p 3 2 ] in
  let r = Reach.compute g ~root:0 () in
  Alcotest.(check bool) "1 customer" true (Reach.customer r 1);
  Alcotest.(check bool) "2 customer (chain)" true (Reach.customer r 2);
  Alcotest.(check bool) "3 not customer" false (Reach.customer r 3);
  Alcotest.(check bool) "3 provider (down from 2)" true (Reach.provider r 3);
  Alcotest.(check bool) "root in no set" false (Reach.any r 0 )

let test_peer_hop () =
  (* 1 has a customer route to d=0; 2 peers with 1; 3 peers with 2. *)
  let g = graph 4 [ c2p 0 1; p2p 1 2; p2p 2 3 ] in
  let r = Reach.compute g ~root:0 () in
  Alcotest.(check bool) "2 has peer route" true (Reach.peer r 2);
  (* Peer routes do not chain: 3 has nothing. *)
  Alcotest.(check bool) "3 has no peer route" false (Reach.peer r 3);
  Alcotest.(check bool) "3 unreachable" false (Reach.any r 3)

let test_peer_of_root () =
  let g = graph 3 [ p2p 0 1; c2p 1 2 ] in
  let r = Reach.compute g ~root:0 () in
  Alcotest.(check bool) "direct peer of root" true (Reach.peer r 1);
  (* 1's peer route is not exported to its provider 2... 2 is 1's
     provider?  c2p 1 2 = 1 customer of 2: yes.  But 2 can still never
     hear it (Ex), and has no other path. *)
  Alcotest.(check bool) "provider of peer unreachable" false (Reach.any r 2)

let test_provider_closure_from_peer () =
  (* 1 customer of d's peer?  Build: d=0 peers 1; 2 customer of 1:
     2 gets a provider route via 1 (1's peer route exports to customers). *)
  let g = graph 3 [ p2p 0 1; c2p 2 1 ] in
  let r = Reach.compute g ~root:0 () in
  Alcotest.(check bool) "peer route at 1" true (Reach.peer r 1);
  Alcotest.(check bool) "provider route at 2" true (Reach.provider r 2);
  Alcotest.(check string) "best class of 2" "provider"
    (match Reach.best_class r 2 with
    | Some c -> Policy.class_name c
    | None -> "none")

let test_avoid () =
  (* Chain d=0 <- 1 <- 2; avoiding 1 cuts everything above. *)
  let g = graph 3 [ c2p 0 1; c2p 1 2 ] in
  let r = Reach.compute g ~root:0 ~avoid:1 () in
  Alcotest.(check bool) "1 skipped" false (Reach.any r 1);
  Alcotest.(check bool) "2 unreachable without 1" false (Reach.any r 2)

let test_bad_args () =
  let g = graph 2 [ c2p 0 1 ] in
  Alcotest.check_raises "root out of range"
    (Invalid_argument "Reach.compute: root out of range") (fun () ->
      ignore (Reach.compute g ~root:5 ()));
  Alcotest.check_raises "root = avoid"
    (Invalid_argument "Reach.compute: root = avoid") (fun () ->
      ignore (Reach.compute g ~root:0 ~avoid:0 ()))

(* Any AS the engine reaches (legitimately) must be in the closure, with
   a class at least as good; the closure is complete w.r.t. actual
   routing. *)
let test_reach_covers_engine =
  qtest "engine outcomes lie within the closures" ~count:200 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dst = Rng.int rng n in
      let dep = random_deployment rng n in
      let policy = random_policy rng in
      let out = Engine.compute g policy dep ~dst ~attacker:None in
      let r = Reach.compute g ~root:dst () in
      let ok = ref true in
      for v = 0 to n - 1 do
        if v <> dst && Outcome.reached out v then begin
          (* The chosen class must be one of the perceivable classes. *)
          if not (Reach.in_class r (Outcome.route_class out v) v) then begin
            Printf.eprintf "seed %d: AS %d chose %s not in closure\n%!" seed v
              (Policy.class_name (Outcome.route_class out v));
            ok := false
          end
        end
      done;
      !ok)

(* And conversely: an AS in any closure can actually be routed to the
   root under the standard policy (the closure is not vacuous). *)
let test_reach_sound_vs_engine =
  qtest "closure membership implies engine reachability" ~count:200
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dst = Rng.int rng n in
      let out =
        Engine.compute g
          (Policy.make Policy.Security_third)
          (Deployment.empty n) ~dst ~attacker:None
      in
      let r = Reach.compute g ~root:dst () in
      let ok = ref true in
      for v = 0 to n - 1 do
        if v <> dst && Reach.any r v && not (Outcome.reached out v) then begin
          Printf.eprintf "seed %d: AS %d in closure but unreached\n%!" seed v;
          ok := false
        end
      done;
      !ok)

(* The view-based closure over a delta overlay must agree with the
   closure on the materialized post-delta graph — the overlay is how the
   topology-delta cone measures "new side" reachability without building
   the edited graph. *)
let test_reach_overlay =
  qtest "closure over overlay equals closure on applied graph" ~count:200
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let delta = random_delta rng g in
      let applied = Graph.Delta.apply g delta in
      let root = Rng.int rng n in
      let a = Reach.compute_view (Graph.overlay g delta) ~root () in
      let b = Reach.compute applied ~root () in
      let ok = ref true in
      for v = 0 to n - 1 do
        if
          Reach.customer a v <> Reach.customer b v
          || Reach.peer a v <> Reach.peer b v
          || Reach.provider a v <> Reach.provider b v
        then begin
          Printf.eprintf "seed %d: AS %d closure mismatch over overlay\n%!"
            seed v;
          ok := false
        end
      done;
      !ok)

(* Lane-mask closures: lane [l] of every mask equals the scalar closure
   of that lane's root and avoided AS, for 1 to 63 lanes with repeated
   roots and lanes that avoid nothing, on acyclic hierarchies and on
   ones with a planted customer-provider cycle; the workspace is reused
   across graphs of different sizes. *)
let test_lanes_match_scalar =
  let ws = Reach.Lanes.create 0 in
  qtest "lane closures = per-lane scalar closures" ~count:150 (fun seed ->
      let rng = Rng.create seed in
      let cycle = coin rng in
      let g = random_graph ~cycle rng ~max_n:90 in
      let n = Graph.n g in
      let lanes = 1 + Rng.int rng 63 in
      let roots = Array.init lanes (fun _ -> Rng.int rng n) in
      let avoid =
        Array.map
          (fun r ->
            if coin rng then -1
            else
              let a = Rng.int rng (n - 1) in
              if a >= r then a + 1 else a)
          roots
      in
      Reach.Lanes.compute ws g ~lanes ~roots ~avoid;
      let ok = ref true in
      for l = 0 to lanes - 1 do
        let r = Reach.compute g ~root:roots.(l) ~avoid:avoid.(l) () in
        for v = 0 to n - 1 do
          let bit m = (m lsr l) land 1 = 1 in
          if
            bit (Reach.Lanes.customer ws v) <> Reach.customer r v
            || bit (Reach.Lanes.peer ws v) <> Reach.peer r v
            || bit (Reach.Lanes.provider ws v) <> Reach.provider r v
          then ok := false
        done
      done;
      !ok)

let test_lanes_bad_args () =
  let g = graph 3 [ c2p 1 0; c2p 2 0 ] in
  let ws = Reach.Lanes.create 3 in
  let raises what f =
    Alcotest.check_raises what (Invalid_argument ("Reach.Lanes.compute: " ^ what)) f
  in
  raises "root = avoid" (fun () ->
      Reach.Lanes.compute ws g ~lanes:1 ~roots:[| 1 |] ~avoid:[| 1 |]);
  raises "root out of range" (fun () ->
      Reach.Lanes.compute ws g ~lanes:1 ~roots:[| 3 |] ~avoid:[| -1 |]);
  raises "lane count out of range" (fun () ->
      Reach.Lanes.compute ws g ~lanes:0 ~roots:[||] ~avoid:[||]);
  raises "fewer roots than lanes" (fun () ->
      Reach.Lanes.compute ws g ~lanes:2 ~roots:[| 0 |] ~avoid:[| -1 |])

let () =
  Alcotest.run "reach"
    [
      ( "closures",
        [
          Alcotest.test_case "customer chain" `Quick test_customer_chain;
          Alcotest.test_case "peer hop" `Quick test_peer_hop;
          Alcotest.test_case "peer of root" `Quick test_peer_of_root;
          Alcotest.test_case "provider closure" `Quick
            test_provider_closure_from_peer;
          Alcotest.test_case "avoid" `Quick test_avoid;
          Alcotest.test_case "bad arguments" `Quick test_bad_args;
        ] );
      ( "vs engine",
        [ test_reach_covers_engine; test_reach_sound_vs_engine ] );
      ("overlay", [ test_reach_overlay ]);
      ( "lanes",
        [
          test_lanes_match_scalar;
          Alcotest.test_case "bad arguments" `Quick test_lanes_bad_args;
        ] );
    ]
