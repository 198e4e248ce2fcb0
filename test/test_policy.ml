(* Policy: reference comparator sanity + rank/compare isomorphism. *)

open Core

let std model = Policy.make model
let lp2 model = Policy.make ~lp:(Policy.Lp_k 2) model

let cmp p a b = Policy.compare_routes p a b

let check_pref name p better worse =
  Alcotest.(check bool) name true (cmp p better worse < 0)

let test_sec1_prefers_secure () =
  let p = std Policy.Security_first in
  (* A secure provider route beats a short insecure customer route. *)
  check_pref "secure provider > insecure customer" p
    (Policy.Provider, 9, true) (Policy.Customer, 1, false);
  check_pref "secure peer > insecure customer" p
    (Policy.Peer, 5, true) (Policy.Customer, 1, false);
  (* Among secure routes, normal LP/SP order. *)
  check_pref "secure customer > secure peer" p
    (Policy.Customer, 5, true) (Policy.Peer, 2, true);
  check_pref "secure short > secure long (same class)" p
    (Policy.Customer, 2, true) (Policy.Customer, 3, true)

let test_sec2_prefers_lp_first () =
  let p = std Policy.Security_second in
  (* LP beats security... *)
  check_pref "insecure customer > secure peer" p
    (Policy.Customer, 6, false) (Policy.Peer, 2, true);
  check_pref "insecure peer > secure provider" p
    (Policy.Peer, 6, false) (Policy.Provider, 1, true);
  (* ...but security beats length within a class. *)
  check_pref "long secure customer > short insecure customer" p
    (Policy.Customer, 6, true) (Policy.Customer, 2, false)

let test_sec3_prefers_length () =
  let p = std Policy.Security_third in
  check_pref "short insecure > long secure (same class)" p
    (Policy.Customer, 2, false) (Policy.Customer, 3, true);
  check_pref "secure breaks exact ties" p
    (Policy.Customer, 3, true) (Policy.Customer, 3, false);
  check_pref "customer > peer regardless of security" p
    (Policy.Customer, 9, false) (Policy.Peer, 1, true)

let test_lp2_interleaving () =
  let p = lp2 Policy.Security_third in
  (* LP2: C1 < P1 < C2 < P2 < C>2 < P>2 < provider. *)
  check_pref "peer/1 > customer/2" p (Policy.Peer, 1, false)
    (Policy.Customer, 2, false);
  check_pref "peer/2 > customer/3" p (Policy.Peer, 2, false)
    (Policy.Customer, 3, false);
  check_pref "customer/3 > peer/3" p (Policy.Customer, 3, false)
    (Policy.Peer, 3, false);
  check_pref "customer/9 > peer/3" p (Policy.Customer, 9, false)
    (Policy.Peer, 3, false);
  check_pref "peer/9 > provider/1" p (Policy.Peer, 9, false)
    (Policy.Provider, 1, false)

let all_policies =
  List.concat_map
    (fun model ->
      List.map
        (fun lp -> Policy.make ~lp model)
        [
          Policy.Standard;
          Policy.Lp_k 1;
          Policy.Lp_k 2;
          Policy.Lp_k 5;
          Policy.Lp_k 1000;
        ])
    Policy.all_models

(* The dense rank must be order-isomorphic to the reference comparator for
   every policy.  This is the property the Engine's correctness rests on. *)
let test_rank_isomorphism =
  Test_helpers.qtest "rank is order-isomorphic to compare_routes" ~count:500
    (fun seed ->
      let rng = Rng.create seed in
      let max_len = 1 + Rng.int rng 30 in
      let random_route () =
        let cls =
          match Rng.int rng 3 with
          | 0 -> Policy.Customer
          | 1 -> Policy.Peer
          | _ -> Policy.Provider
        in
        (cls, 1 + Rng.int rng max_len, Test_helpers.coin rng)
      in
      List.for_all
        (fun p ->
          let (c1, l1, s1) = random_route () and (c2, l2, s2) = random_route () in
          let r1 = Policy.rank p ~max_len c1 ~len:l1 ~secure:s1 in
          let r2 = Policy.rank p ~max_len c2 ~len:l2 ~secure:s2 in
          let c = Policy.compare_routes p (c1, l1, s1) (c2, l2, s2) in
          r1 < Policy.max_rank p ~max_len
          && r2 < Policy.max_rank p ~max_len
          && r1 >= 0 && r2 >= 0
          && compare r1 r2 = compare c 0)
        all_policies)

(* Extending a route by one hop must strictly worsen its rank — the
   monotonicity that makes label-setting correct. *)
let test_rank_monotone_extension =
  Test_helpers.qtest "route extension strictly worsens the rank" ~count:500
    (fun seed ->
      let rng = Rng.create seed in
      let max_len = 2 + Rng.int rng 30 in
      List.for_all
        (fun p ->
          let cls =
            match Rng.int rng 3 with
            | 0 -> Policy.Customer
            | 1 -> Policy.Peer
            | _ -> Policy.Provider
          in
          let len = 1 + Rng.int rng (max_len - 1) in
          let secure = Test_helpers.coin rng in
          let parent = Policy.rank p ~max_len cls ~len ~secure in
          (* Extensions permitted by Ex: to a provider as a customer route
             (only from customer routes), to a peer (only from customer
             routes), and to a customer as a provider route (always). *)
          let extensions =
            match cls with
            | Policy.Customer ->
                [ Policy.Customer; Policy.Peer; Policy.Provider ]
            | Policy.Peer | Policy.Provider -> [ Policy.Provider ]
          in
          List.for_all
            (fun cls' ->
              List.for_all
                (fun secure' ->
                  (* A child can keep security only if the parent had it. *)
                  if secure' && not secure then true
                  else
                    Policy.rank p ~max_len cls' ~len:(len + 1) ~secure:secure'
                    > parent)
                [ true; false ])
            extensions)
        all_policies)

let () =
  Alcotest.run "policy"
    [
      ( "comparator",
        [
          Alcotest.test_case "security 1st prefers secure" `Quick
            test_sec1_prefers_secure;
          Alcotest.test_case "security 2nd prefers LP first" `Quick
            test_sec2_prefers_lp_first;
          Alcotest.test_case "security 3rd prefers length" `Quick
            test_sec3_prefers_length;
          Alcotest.test_case "LP2 interleaves customers and peers" `Quick
            test_lp2_interleaving;
        ] );
      ( "rank",
        [ test_rank_isomorphism; test_rank_monotone_extension ] );
    ]
