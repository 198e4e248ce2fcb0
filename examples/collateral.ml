(* Collateral damage and collateral benefit (Figures 14, 15, 17):
   securing some ASes can change what OTHER, insecure ASes see —
   sometimes rescuing them, sometimes exposing them.

   Run with:  dune exec examples/collateral.exe *)

open Core

let c2p a b = Graph.Customer_provider (a, b)
let p2p a b = Graph.Peer_peer (a, b)

let sec1 = Policy.make Policy.Security_first
let sec2 = Policy.make Policy.Security_second
let sec3 = Policy.make Policy.Security_third

let damage_sec2 () =
  print_endline "1. Collateral DAMAGE under security 2nd (Figure 14)";
  print_endline "   A secure ISP (u) prefers a longer secure route; its";
  print_endline "   insecure customer (v) loses the short legitimate path.";
  (* d=0; x=1 insecure middle; u=2 secure ISP; c1=3, c2=4, c3=5 secure
     chain; v=6 victim; w=7 v's other provider; w2=8; m=9 attacker.  The
     baseline is strictly happy for v (3 < 4 hops); securing u lengthens
     its route to 4 hops and v strictly loses. *)
  let g =
    Graph.of_edges ~n:10
      [
        c2p 0 1; c2p 1 2; c2p 0 3; c2p 3 4; c2p 4 5; c2p 5 2;
        c2p 6 2; c2p 6 7; c2p 8 7; c2p 9 8;
      ]
  in
  let s = Deployment.make ~n:10 ~full:[| 0; 2; 3; 4; 5 |] () in
  match Phenomena.sum g [ sec2; sec3 ] s [| { Metric.attacker = 9; dst = 0 } |] with
  | [ col; col3 ] ->
      Printf.printf "   damages: %d, benefits: %d\n\n" col.Phenomena.damage
        col.Phenomena.benefit;
      (* Theorem 6.1: impossible under security 3rd. *)
      Printf.printf
        "   same scenario under security 3rd (Theorem 6.1): damages = %d\n\n"
        col3.Phenomena.damage
  | _ -> assert false

let benefit_sec3 () =
  print_endline "2. Collateral BENEFIT under security 3rd (Figure 15)";
  print_endline "   A transit AS tied between two equal-looking routes picks";
  print_endline "   the secure one; its insecure customer is rescued.";
  let g = Graph.of_edges ~n:5 [ c2p 0 2; p2p 1 2; p2p 1 3; c2p 4 1 ] in
  let s = Deployment.make ~n:5 ~full:[| 0; 1; 2 |] () in
  let col =
    List.hd (Phenomena.sum g [ sec3 ] s [| { Metric.attacker = 3; dst = 0 } |])
  in
  Printf.printf "   benefits: %d, damages: %d\n\n" col.Phenomena.benefit
    col.Phenomena.damage

let damage_sec1 () =
  print_endline "3. Collateral DAMAGE under security 1st (Figure 17)";
  print_endline "   Optus switches to a secure PROVIDER route; the export";
  print_endline "   policy then silences its peer link, and Orange falls to";
  print_endline "   the bogus route.";
  let g =
    Graph.of_edges ~n:8
      [ c2p 7 1; c2p 0 7; p2p 1 2; c2p 1 3; c2p 2 5; c2p 4 5; c2p 6 3; c2p 0 6 ]
  in
  let s = Deployment.make ~n:8 ~full:[| 0; 1; 3; 6 |] () in
  let base = Engine.compute g sec1 (Deployment.empty 8) ~dst:0 ~attacker:(Some 4) in
  let dep = Engine.compute g sec1 s ~dst:0 ~attacker:(Some 4) in
  Printf.printf "   Orange happy before: %b, after: %b\n\n"
    (Outcome.happy_lb base 2) (Outcome.happy_lb dep 2)

let aggregate () =
  print_endline "4. How often does this happen?  (synthetic graph, sampled)";
  let result =
    Topogen.generate ~params:(Topogen.default_params ~n:2000) (Rng.create 5)
  in
  let g = result.Topogen.graph in
  let tiers = Topogen.tiers result in
  let dep = Deployment.tier1_tier2 g tiers ~n_t1:13 ~n_t2:50 in
  let rng = Rng.create 11 in
  let pairs = ref [] in
  for _ = 1 to 40 do
    let dst = Rng.int rng (Graph.n g) in
    let attacker = Rng.int rng (Graph.n g) in
    if dst <> attacker then pairs := { Metric.attacker; dst } :: !pairs
  done;
  let policies = [ sec1; sec2; sec3 ] in
  List.iter2
    (fun policy col ->
      Printf.printf "   %-14s benefits: %5d   damages: %5d\n"
        (Policy.name policy) col.Phenomena.benefit col.Phenomena.damage)
    policies
    (Phenomena.sum g policies dep (Array.of_list !pairs));
  print_endline
    "   (as in Table 3: benefits everywhere, damages never under 3rd)"

let () =
  damage_sec2 ();
  benefit_sec3 ();
  damage_sec1 ();
  aggregate ()
