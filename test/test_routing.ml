(* Routing engine: hand-computed scenarios (including the paper's
   Figure 2 protocol-downgrade example) and cross-validation of the
   generalized label-setting engine against the literal Appendix-B staged
   algorithm. *)

open Core
open Test_helpers

let sec1 = Policy.make Policy.Security_first
let sec2 = Policy.make Policy.Security_second
let sec3 = Policy.make Policy.Security_third

let deployment_of_list n full =
  Deployment.make ~n ~full:(Array.of_list full) ()

(* A 4-node chain: d <- a <- b, and peer b--c, c customer of a.
   Checks classes, lengths and Ex. *)
let test_chain_basics () =
  (* ids: d=0, a=1, b=2, c=3.  a customer of... make a provider of d:
     d customer of a?  We want: a has customer route to d. *)
  let g = graph 4 [ c2p 0 1; c2p 1 2; p2p 2 3; c2p 3 1 ] in
  (* d=0 is customer of a=1; a is customer of b=2; b peers with c=3;
     c is customer of a. *)
  let dep = Deployment.empty 4 in
  let out = Engine.compute g sec3 dep ~dst:0 ~attacker:None in
  Alcotest.(check int) "a's length" 1 (Outcome.length out 1);
  Alcotest.(check string) "a's class" "customer"
    (Policy.class_name (Outcome.route_class out 1));
  Alcotest.(check int) "b's length" 2 (Outcome.length out 2);
  Alcotest.(check string) "b's class" "customer"
    (Policy.class_name (Outcome.route_class out 2));
  (* c hears from its provider a (provider route, length 2).  b's customer
     route is announced to peers too, but c's provider route via a is...
     LP prefers provider < peer: so c should take the PEER route via b of
     length 3?  No: LP prefers peer over provider, so c takes the peer
     route via b (length 3) over the provider route via a (length 2). *)
  Alcotest.(check string) "c's class" "peer"
    (Policy.class_name (Outcome.route_class out 3));
  Alcotest.(check int) "c's length" 3 (Outcome.length out 3);
  Alcotest.(check bool) "everyone happy" true
    (Outcome.happy_lb out 1 && Outcome.happy_lb out 2 && Outcome.happy_lb out 3)

(* Ex: a peer route must not propagate to peers or providers. *)
let test_export_policy () =
  (* d=0 peers with a=1; b=2 is a's peer; p=3 is a's provider; c=4 is a's
     customer.  a hears d's origination (peer route).  Ex forbids a from
     announcing it to b (peer) and p (provider); only the customer c
     hears it. *)
  let g = graph 5 [ p2p 0 1; p2p 1 2; c2p 1 3; c2p 4 1 ] in
  let out = Engine.compute g sec3 (Deployment.empty 5) ~dst:0 ~attacker:None in
  Alcotest.(check bool) "a reached" true (Outcome.reached out 1);
  Alcotest.(check string) "a's class" "peer"
    (Policy.class_name (Outcome.route_class out 1));
  Alcotest.(check bool) "peer b not reached" false (Outcome.reached out 2);
  Alcotest.(check bool) "provider p not reached" false (Outcome.reached out 3);
  Alcotest.(check bool) "customer c reached" true (Outcome.reached out 4);
  Alcotest.(check string) "c's class" "provider"
    (Policy.class_name (Outcome.route_class out 4))

(* Paper Figure 2: the protocol downgrade attack on a Tier 1 destination.
   ids: dst 3356 = 0, webhost 21740 = 1, Cogent 174 = 2, 3491 = 3,
   attacker m = 4, stub 3536 = 5. *)
let figure2_graph () =
  graph 6
    [
      c2p 1 0 (* 21740 customer of Level3 *);
      p2p 1 2 (* 21740 peers with Cogent *);
      p2p 2 0 (* Cogent peers with Level3 *);
      c2p 3 2 (* 3491 customer of Cogent *);
      c2p 4 3 (* m customer of 3491 *);
      c2p 5 0 (* stub 3536 customer of Level3 *);
    ]

let test_figure2_normal () =
  let g = figure2_graph () in
  let dep = deployment_of_list 6 [ 0; 1; 5 ] in
  List.iter
    (fun policy ->
      let out = Engine.compute g policy dep ~dst:0 ~attacker:None in
      (* 21740 uses its secure provider route to Level3 directly; no peer
         route via Cogent exists thanks to Ex. *)
      Alcotest.(check string) "21740 class" "provider"
        (Policy.class_name (Outcome.route_class out 1));
      Alcotest.(check int) "21740 length" 1 (Outcome.length out 1);
      Alcotest.(check bool) "21740 secure" true (Outcome.secure out 1))
    [ sec1; sec2; sec3 ]

let test_figure2_attack_downgrade () =
  let g = figure2_graph () in
  let dep = deployment_of_list 6 [ 0; 1; 5 ] in
  let check_model policy ~happy_21740 ~secure_21740 =
    let out = Engine.compute g policy dep ~dst:0 ~attacker:(Some 4) in
    (* 3491 takes the bogus customer route (m, d), exports it to its
       provider Cogent, which prefers the 3-hop customer route over its
       1-hop peer route to Level3; Cogent is doomed. *)
    Alcotest.(check bool) "174 unhappy" false (Outcome.happy_ub out 2);
    Alcotest.(check string) "174 class" "customer"
      (Policy.class_name (Outcome.route_class out 2));
    (* The webhost sees a 4-hop bogus peer route via Cogent vs its 1-hop
       secure provider route. *)
    Alcotest.(check bool)
      (Policy.name policy ^ ": 21740 happy")
      happy_21740 (Outcome.happy_lb out 1);
    Alcotest.(check bool)
      (Policy.name policy ^ ": 21740 secure")
      secure_21740 (Outcome.secure out 1);
    (* The single-homed stub is immune. *)
    Alcotest.(check bool) "3536 happy" true (Outcome.happy_lb out 5)
  in
  (* Security 1st: the secure route is kept (Theorem 3.1). *)
  check_model sec1 ~happy_21740:true ~secure_21740:true;
  (* Security 2nd and 3rd: protocol downgrade — the insecure peer route
     wins on LP. *)
  check_model sec2 ~happy_21740:false ~secure_21740:false;
  check_model sec3 ~happy_21740:false ~secure_21740:false

(* The attacker's claimed path counts one extra hop. *)
let test_attacker_length () =
  let g = graph 3 [ c2p 1 0; c2p 2 1 ] in
  (* d=0 <- a=1 <- b=2 providers... a customer of d?  No: 1 is customer
     of 0, 2 customer of 1.  Attack from 2 against 0: 1 hears the bogus
     (2,0) from its customer 2 as a 2-hop customer route, vs its own
     1-hop customer... 0 is 1's provider.  1's legit route is a customer
     route?  1 is customer of 0, so 1's route via 0 is a provider route
     of length 1; the bogus route via 2 is a customer route of length 2.
     LP: customer wins — 1 is doomed. *)
  let out =
    Engine.compute g sec3 (Deployment.empty 3) ~dst:0 ~attacker:(Some 2)
  in
  Alcotest.(check int) "perceived length via attacker" 2 (Outcome.length out 1);
  Alcotest.(check string) "class via attacker" "customer"
    (Policy.class_name (Outcome.route_class out 1));
  Alcotest.(check bool) "doomed" false (Outcome.happy_ub out 1);
  Alcotest.(check (list int)) "claimed path" [ 1; 2; 0 ] (Outcome.path out 1)

(* Simplex stubs: secure as destinations, insecure as sources. *)
let test_simplex_semantics () =
  (* chain: d=0 <- a=1 <- b=2 (customer chains up). *)
  let g = graph 3 [ c2p 0 1; c2p 1 2 ] in
  (* d simplex, a full: a's route to d is secure. *)
  let dep =
    Deployment.make ~n:3 ~full:[| 1 |] ~simplex:[| 0 |] ()
  in
  let out = Engine.compute g sec1 dep ~dst:0 ~attacker:None in
  Alcotest.(check bool) "full AS validates simplex origin" true
    (Outcome.secure out 1);
  (* b insecure: route insecure. *)
  Alcotest.(check bool) "off AS has insecure route" false (Outcome.secure out 2);
  (* Now make b simplex: still insecure as a source. *)
  let dep2 = Deployment.make ~n:3 ~full:[| 1 |] ~simplex:[| 0; 2 |] () in
  let out2 = Engine.compute g sec1 dep2 ~dst:0 ~attacker:None in
  Alcotest.(check bool) "simplex AS does not validate" false
    (Outcome.secure out2 2)

(* A secure AS only treats a route as secure if the whole chain is
   secure. *)
let test_secure_chain_break () =
  let g = graph 4 [ c2p 0 1; c2p 1 2; c2p 2 3 ] in
  (* d=0 <- 1 <- 2 <- 3; secure: 0, 1, 3 (gap at 2). *)
  let dep = deployment_of_list 4 [ 0; 1; 3 ] in
  let out = Engine.compute g sec1 dep ~dst:0 ~attacker:None in
  Alcotest.(check bool) "1 secure" true (Outcome.secure out 1);
  Alcotest.(check bool) "2 insecure (not deployed)" false (Outcome.secure out 2);
  Alcotest.(check bool) "3 insecure (gap in chain)" false (Outcome.secure out 3)

(* Security 2nd: a secure AS prefers a longer secure customer route over a
   shorter insecure one — the root of collateral damage (Figure 14). *)
let test_sec2_prefers_secure_customer () =
  (* u=2 has two customer routes to d=0: a short one through the insecure
     x=1 (length 2), and a longer fully-secure one through c1=3, c2=4
     (length 3). *)
  let g = graph 5 [ c2p 0 1; c2p 1 2; c2p 0 3; c2p 3 4; c2p 4 2 ] in
  let dep = deployment_of_list 5 [ 0; 2; 3; 4 ] in
  let out = Engine.compute g sec2 dep ~dst:0 ~attacker:None in
  Alcotest.(check bool) "u takes the secure route" true (Outcome.secure out 2);
  Alcotest.(check int) "u's length is 3" 3 (Outcome.length out 2);
  let out3 = Engine.compute g sec3 dep ~dst:0 ~attacker:None in
  Alcotest.(check int) "sec3: u keeps the short route" 2 (Outcome.length out3 2);
  Alcotest.(check bool) "sec3: short route insecure" false (Outcome.secure out3 2)

(* Cross-validation: the generalized engine agrees with the literal
   Appendix-B staged algorithm on random instances, for all three models
   (standard LP). *)
let test_engine_vs_staged =
  qtest "engine = staged algorithm (random instances)" ~count:300 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let dst = Rng.int rng n in
      let attacker =
        if coin rng then
          let m = Rng.int rng n in
          if m = dst then None else Some m
        else None
      in
      List.for_all
        (fun policy ->
          let a = Engine.compute g policy dep ~dst ~attacker in
          let b = Staged.compute g policy dep ~dst ~attacker in
          check_none (Policy.name policy) (outcome_mismatch a b))
        [ sec1; sec2; sec3 ])

(* The lower bound can never exceed the upper bound, and tiebreak
   resolution stays within the bounds. *)
let test_bounds_consistency =
  qtest "deterministic TB lies within the bounds" ~count:300 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:40 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let dst = Rng.int rng n in
      let m = Rng.int rng n in
      let attacker = if m = dst then None else Some m in
      let policy = random_policy rng in
      let bounds = Engine.compute g policy dep ~dst ~attacker in
      let det =
        Engine.compute ~tiebreak:Engine.Lowest_next_hop g policy dep ~dst
          ~attacker
      in
      let ok = ref true in
      for v = 0 to n - 1 do
        if Some v <> attacker && v <> dst then begin
          if Outcome.happy_lb bounds v && not (Outcome.happy_lb det v) then
            ok := false;
          if Outcome.happy_lb det v && not (Outcome.happy_ub bounds v) then
            ok := false;
          (* Rank-visible fields must agree exactly. *)
          if Outcome.reached bounds v <> Outcome.reached det v then ok := false;
          if
            Outcome.reached bounds v
            && (Outcome.length bounds v <> Outcome.length det v
               || Outcome.secure bounds v <> Outcome.secure det v)
          then ok := false
        end
      done;
      !ok)

(* Theorem 3.1: security 1st admits no protocol downgrade — an AS with a
   secure route avoiding the attacker keeps a secure route under attack. *)
let test_no_downgrade_sec1 =
  qtest "Theorem 3.1: no downgrades when security is 1st" ~count:300
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:40 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let dst = Rng.int rng n in
      let m = Rng.int rng n in
      if m = dst then true
      else begin
        let normal = Engine.compute g sec1 dep ~dst ~attacker:None in
        let attack = Engine.compute g sec1 dep ~dst ~attacker:(Some m) in
        let ok = ref true in
        for v = 0 to n - 1 do
          if
            v <> dst && v <> m
            && Outcome.secure normal v
            && not (List.mem m (Outcome.path normal v))
            && not (Outcome.secure attack v)
          then ok := false
        done;
        !ok
      end)

(* Theorem 6.1 (monotonicity of security 3rd): growing the secure set
   never makes a definitely-happy AS unhappy. *)
let test_monotonicity_sec3 =
  qtest "Theorem 6.1: security 3rd is monotone" ~count:300 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:40 in
      let n = Graph.n g in
      let dst = Rng.int rng n in
      let m = Rng.int rng n in
      if m = dst then true
      else begin
        let small = random_deployment rng n in
        (* Grow: upgrade a random subset of ASes. *)
        let modes =
          Array.init n (fun v ->
              match Deployment.mode small v with
              | Deployment.Full -> Deployment.Full
              | (Deployment.Simplex | Deployment.Off) as mode ->
                  if Rng.int rng 3 = 0 then Deployment.Full else mode)
        in
        let large = Deployment.of_modes modes in
        let a = Engine.compute g sec3 small ~dst ~attacker:(Some m) in
        let b = Engine.compute g sec3 large ~dst ~attacker:(Some m) in
        let ok = ref true in
        for v = 0 to n - 1 do
          if
            v <> dst && v <> m
            && Outcome.happy_lb a v
            && not (Outcome.happy_lb b v)
          then ok := false
        done;
        !ok
      end)

let () =
  Alcotest.run "routing"
    [
      ( "hand examples",
        [
          Alcotest.test_case "chain basics" `Quick test_chain_basics;
          Alcotest.test_case "export policy Ex" `Quick test_export_policy;
          Alcotest.test_case "figure 2 normal conditions" `Quick
            test_figure2_normal;
          Alcotest.test_case "figure 2 downgrade attack" `Quick
            test_figure2_attack_downgrade;
          Alcotest.test_case "attacker path length" `Quick test_attacker_length;
          Alcotest.test_case "simplex semantics" `Quick test_simplex_semantics;
          Alcotest.test_case "secure chain break" `Quick
            test_secure_chain_break;
          Alcotest.test_case "sec2 prefers secure customer" `Quick
            test_sec2_prefers_secure_customer;
        ] );
      ( "properties",
        [
          test_engine_vs_staged;
          test_bounds_consistency;
          test_no_downgrade_sec1;
          test_monotonicity_sec3;
        ] );
    ]
