(* Protocol downgrades, collateral benefits/damages, root causes
   (Section 6 of the paper). *)

open Core
open Test_helpers

let sec1 = Policy.make Policy.Security_first
let sec2 = Policy.make Policy.Security_second
let sec3 = Policy.make Policy.Security_third

(* [Phenomena.sum] of a single pair under each given policy. *)
let classify g policies dep ~attacker ~dst =
  Phenomena.sum g policies dep [| { Metric.attacker; dst } |]

let one g policy dep ~attacker ~dst =
  List.hd (classify g [ policy ] dep ~attacker ~dst)

(* Table 3's count: downgrades not exempted by Theorem 3.1. *)
let table3_downgrades (t : Phenomena.t) = t.downgraded - t.exempt_lost

(* Figure 2 downgrade quantified. *)
let test_downgrade_fig2 () =
  let g =
    graph 6 [ c2p 1 0; p2p 1 2; p2p 2 0; c2p 3 2; c2p 4 3; c2p 5 0 ]
  in
  let dep = Deployment.make ~n:6 ~full:[| 0; 1; 5 |] () in
  let dg2 = one g sec2 dep ~attacker:4 ~dst:0 in
  (* Under normal conditions ASes 1 and 5 have secure routes, neither
     through the attacker. *)
  Alcotest.(check int) "secure normal" 2 dg2.secure_normal;
  Alcotest.(check int) "none exempt" 0 dg2.exempt;
  (* Under attack, AS 1 downgrades (peer LP beats secure provider); the
     stub 5 keeps its secure route. *)
  Alcotest.(check int) "downgraded (sec2)" 1 (table3_downgrades dg2);
  Alcotest.(check int) "secure after (sec2)" 1
    (dg2.wasted + dg2.protecting);
  let dg1 = one g sec1 dep ~attacker:4 ~dst:0 in
  Alcotest.(check int) "downgraded (sec1)" 0 (table3_downgrades dg1)

(* The two downgrade counts differ.  d = 0, m = 1 provider of d, s = 2
   customer of m, all secure: s's secure normal route runs through m,
   and under attack m announces only the bogus "m d", so s holds an
   insecure route.  Figure 16 counts that as a downgrade even under
   security 1st; Table 3 exempts it (Theorem 3.1). *)
let test_exempt_downgrade () =
  let g = graph 3 [ c2p 0 1; c2p 2 1 ] in
  let dep = Deployment.make ~n:3 ~full:[| 0; 1; 2 |] () in
  List.iter
    (fun (t : Phenomena.t) ->
      Alcotest.(check int) "secure normal" 1 t.secure_normal;
      Alcotest.(check int) "exempt" 1 t.exempt;
      Alcotest.(check int) "Figure 16 downgrade" 1 t.downgraded;
      Alcotest.(check int) "exempt and lost" 1 t.exempt_lost;
      Alcotest.(check int) "Table 3 downgrade" 0 (table3_downgrades t))
    (classify g [ sec1; sec2; sec3 ] dep ~attacker:1 ~dst:0)

(* Collateral damage in the security 2nd model (the Figure 14 mechanism):
   a secure provider chooses a longer secure route, pushing its insecure
   customer onto the bogus path.
   ids: d=0, x=1 (insecure middle), u=2 (secure ISP), c1=3, c2=4 (secure
   chain), v=5 (victim customer of u), w=6 (v's other provider),
   m=7 (attacker, customer of w). *)
let damage_graph () =
  graph 8
    [
      c2p 0 1 (* d customer of x *);
      c2p 1 2 (* x customer of u *);
      c2p 0 3 (* d customer of c1 *);
      c2p 3 4 (* c1 customer of c2 *);
      c2p 4 2 (* c2 customer of u *);
      c2p 5 2 (* v customer of u *);
      c2p 5 6 (* v customer of w *);
      c2p 7 6 (* m customer of w *);
    ]

let test_collateral_damage_sec2 () =
  let g = damage_graph () in
  let s = Deployment.make ~n:8 ~full:[| 0; 2; 3; 4 |] () in
  let empty = Deployment.empty 8 in
  (* Baseline: u picks the short insecure customer route (len 2 via x);
     v's provider route via u is len 3, beating the bogus len 3 via w...
     both len 3!  Make sure: v via u = 1 + u.len = 3; v via w = 1 +
     w.len; w picks the bogus customer route (m,d) len 2, so v via w is
     len 3 — a tie.  To get strict baseline happiness u must pick the
     direct customer route d (len 1).  Rebuild: x IS d.  We instead check
     with the deployment-free engine directly. *)
  let base = Engine.compute g sec2 empty ~dst:0 ~attacker:(Some 7) in
  let dep = Engine.compute g sec2 s ~dst:0 ~attacker:(Some 7) in
  (* Baseline: u len 2 insecure; v provider routes: via u len 3 to d,
     via w len 3 to m: tie -> not definitely happy.  With S: u takes the
     secure len 3 route, v's legit option becomes len 4: strictly worse —
     v definitely unhappy. *)
  Alcotest.(check int) "u baseline length" 2 (Outcome.length base 2);
  Alcotest.(check int) "u secure length" 3 (Outcome.length dep 2);
  Alcotest.(check bool) "u secure" true (Outcome.secure dep 2);
  Alcotest.(check bool) "v had a legitimate option" true (Outcome.to_d base 5);
  Alcotest.(check bool) "v loses it: to_d gone" false (Outcome.to_d dep 5);
  Alcotest.(check bool) "v unhappy (collateral damage)" true
    (Outcome.to_m dep 5 && not (Outcome.to_d dep 5));
  (* Theorem 6.1: no such damage under security 3rd. *)
  let base3 = Engine.compute g sec3 empty ~dst:0 ~attacker:(Some 7) in
  let dep3 = Engine.compute g sec3 s ~dst:0 ~attacker:(Some 7) in
  Alcotest.(check bool) "sec3: v keeps its option" true
    (Outcome.to_d base3 5 && Outcome.to_d dep3 5);
  (* v's baseline is a tie, so under the pessimistic tiebreak it was
     unhappy already: the classification counts no damage here. *)
  match classify g [ sec2; sec3 ] s ~attacker:7 ~dst:0 with
  | [ c2; c3 ] ->
      Alcotest.(check int) "sec2: no strict damage" 0 c2.damage;
      Alcotest.(check int) "sec3: no damage" 0 c3.damage
  | _ -> Alcotest.fail "one total per policy"

(* Collateral benefit in the security 3rd model (Figure 15): a tie at a
   transit AS is broken toward the secure legitimate route, rescuing its
   insecure customer.
   ids: d=0, t=1 (transit with two peer routes), y=2 (peer of t with
   customer route to d), m=3 (peer of t), c=4 (customer of t). *)
let test_collateral_benefit_sec3 () =
  let g =
    graph 5
      [
        c2p 0 2 (* d customer of y *);
        p2p 1 2 (* t peers with y *);
        p2p 1 3 (* t peers with m *);
        c2p 4 1 (* c customer of t *);
      ]
  in
  let s = Deployment.make ~n:5 ~full:[| 0; 1; 2 |] () in
  let col = one g sec3 s ~attacker:3 ~dst:0 in
  (* Insecure sources: y?  y is secure... insecure sources are m's
     customers... sources not in S: 4 (c) and 3 is the attacker.  c
     benefits: baseline t ties between (y,d) and (m,d) peer routes ->
     pessimistically unhappy; with S the (y,d) route is secure and wins
     the SecP tiebreak. *)
  Alcotest.(check int) "one collateral benefit" 1 col.benefit;
  Alcotest.(check int) "no collateral damage" 0 col.damage

(* Figure 17: collateral damage under security 1st via export policy — a
   secure AS switches to a provider route and may no longer export to its
   peer.  ids: d=0, opt=1 (7474), orange=2 (4805), p=3 (7473, provider of
   opt), m=4, prov2=5 (2647, provider of orange), x=6 joins p to d
   securely. *)
let test_collateral_damage_sec1_export () =
  let g =
    graph 8
      [
        c2p 7 1 (* z (insecure) customer of opt *);
        c2p 0 7 (* d customer of z *);
        p2p 1 2 (* opt peers with orange *);
        c2p 1 3 (* opt customer of p *);
        c2p 2 5 (* orange customer of prov2 *);
        c2p 4 5 (* m customer of prov2 *);
        c2p 6 3 (* x customer of p *);
        c2p 0 6 (* d customer of x *);
      ]
  in
  let empty = Deployment.empty 8 in
  (* Secure: d, opt, p, x — opt's provider route via p -> x -> d is
     fully secure, while its shorter customer route via z is not. *)
  let s = Deployment.make ~n:8 ~full:[| 0; 1; 3; 6 |] () in
  let base = Engine.compute g sec1 empty ~dst:0 ~attacker:(Some 4) in
  (* Baseline: orange hears opt's customer route via z over the peer link
     and prefers it over the bogus provider route via prov2. *)
  Alcotest.(check bool) "orange happy at baseline" true (Outcome.happy_lb base 2);
  let dep = Engine.compute g sec1 s ~dst:0 ~attacker:(Some 4) in
  (* With S, security-1st opt prefers the secure provider route via p;
     Ex then forbids exporting it to the peer orange, which falls back to
     the bogus provider route: collateral damage. *)
  Alcotest.(check bool) "opt picks the secure route" true (Outcome.secure dep 1);
  Alcotest.(check string) "opt's class is provider" "provider"
    (Policy.class_name (Outcome.route_class dep 1));
  Alcotest.(check bool) "orange collaterally damaged" true
    (Outcome.to_m dep 2 && not (Outcome.to_d dep 2));
  let col = one g sec1 s ~attacker:4 ~dst:0 in
  Alcotest.(check bool) "classified as collateral damage" true
    (col.damage >= 1)

(* The per-pair definitions [Phenomena.sum] replaced, kept as its
   oracle: three {!Reference} solves per pair (normal with S, attack
   with S, attack with S = {}) and one scalar pass over the sources,
   Theorem 3.1's exemption read off the representative normal path as a
   list; plus one normal solve per destination for [secure_by_dst]. *)
let through_attacker normal ~attacker v =
  Outcome.reached normal v && List.mem attacker (Outcome.path normal v)

let zero : Phenomena.t =
  {
    sources = 0;
    secure_normal = 0;
    downgraded = 0;
    wasted = 0;
    protecting = 0;
    benefit = 0;
    damage = 0;
    happy_base = 0;
    happy_dep = 0;
    exempt = 0;
    exempt_lost = 0;
    secure_by_dst = 0;
  }

(* Sources with a secure route in [out], a state toward [dst]. *)
let secure_sources out ~dst =
  List.length
    (List.filter
       (fun v -> v <> dst && Outcome.secure out v)
       (List.init (Outcome.n out) Fun.id))

let per_pair g policy dep ~attacker ~dst : Phenomena.t =
  let n = Graph.n g in
  let normal = Reference.compute g policy dep ~dst ~attacker:None in
  let attack = Reference.compute g policy dep ~dst ~attacker:(Some attacker) in
  let base =
    Reference.compute g policy (Deployment.empty n) ~dst
      ~attacker:(Some attacker)
  in
  let t = ref zero in
  let b x = if x then 1 else 0 in
  for v = 0 to n - 1 do
    if v <> attacker && v <> dst then begin
      let a = !t in
      let sn = Outcome.secure normal v and sa = Outcome.secure attack v in
      let hb = Outcome.happy_lb base v and hd = Outcome.happy_lb attack v in
      let insecure = not (Deployment.is_full dep v) in
      let th = sn && through_attacker normal ~attacker v in
      t :=
        {
          sources = a.sources + 1;
          secure_normal = a.secure_normal + b sn;
          downgraded = a.downgraded + b (sn && not sa);
          wasted = a.wasted + b (sn && sa && hb);
          protecting = a.protecting + b (sn && sa && not hb);
          benefit = a.benefit + b (insecure && (not hb) && hd);
          damage = a.damage + b (insecure && hb && not hd);
          happy_base = a.happy_base + b hb;
          happy_dep = a.happy_dep + b hd;
          exempt = a.exempt + b th;
          exempt_lost = a.exempt_lost + b (th && not sa);
          secure_by_dst = 0;
        }
    end
  done;
  !t

let oracle g policies dep pairs =
  let dsts =
    List.sort_uniq Int.compare
      (Array.to_list (Array.map (fun p -> p.Metric.dst) pairs))
  in
  List.map
    (fun policy ->
      let secure_by_dst =
        List.fold_left
          (fun c dst ->
            c
            + secure_sources ~dst
                (Reference.compute g policy dep ~dst ~attacker:None))
          0 dsts
      in
      Array.fold_left
        (fun (acc : Phenomena.t) { Metric.attacker; dst } ->
          let p = per_pair g policy dep ~attacker ~dst in
          {
            sources = acc.sources + p.sources;
            secure_normal = acc.secure_normal + p.secure_normal;
            downgraded = acc.downgraded + p.downgraded;
            wasted = acc.wasted + p.wasted;
            protecting = acc.protecting + p.protecting;
            benefit = acc.benefit + p.benefit;
            damage = acc.damage + p.damage;
            happy_base = acc.happy_base + p.happy_base;
            happy_dep = acc.happy_dep + p.happy_dep;
            exempt = acc.exempt + p.exempt;
            exempt_lost = acc.exempt_lost + p.exempt_lost;
            secure_by_dst;
          })
        zero pairs)
    policies

(* Random attackers for one destination: [k] distinct ASes other than
   [dst]. *)
let attackers_of rng ~n ~dst k =
  Array.map
    (fun m -> if m >= dst then m + 1 else m)
    (Rng.sample_without_replacement rng k (n - 1))

(* Theorem 3.1's exemption is marked once per word over the normal
   state's next hops; it must count exactly the sources whose path, as
   a list, contains the attacker. *)
let test_exempt_matches_path =
  qtest "Theorem 3.1 exemption = attacker on the normal path" ~count:200
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dst = Rng.int rng n in
      let attackers = attackers_of rng ~n ~dst (1 + Rng.int rng (n - 1)) in
      let pairs = Array.map (fun m -> { Metric.attacker = m; dst }) attackers in
      let dep = random_deployment rng n in
      let policy = random_policy rng in
      List.for_all2
        (fun (got : Phenomena.t) (want : Phenomena.t) ->
          got.exempt = want.exempt && got.exempt_lost = want.exempt_lost)
        (Phenomena.sum g [ policy ] dep pairs)
        (oracle g [ policy ] dep pairs))

(* The whole classification against the per-pair oracle, for the three
   models at once (each with its own local-preference variant, so the
   S = {} word is shared only where the variants agree): one destination
   with every other AS as attacker — a full 63-lane word (lane 62 is the
   sign bit of the masks) plus a second word — and a few pairs toward
   other destinations. *)
let test_sum_matches_oracle =
  qtest "sum = per-pair three-Engine classification (63-lane words)"
    ~count:60 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph ~min_n:70 rng ~max_n:100 in
      let n = Graph.n g in
      let dst = Rng.int rng n in
      let full = attackers_of rng ~n ~dst (n - 1) in
      let others =
        Array.init 6 (fun _ ->
            let d = Rng.int rng n in
            { Metric.attacker = (attackers_of rng ~n ~dst:d 1).(0); dst = d })
      in
      let pairs =
        Array.append
          (Array.map (fun m -> { Metric.attacker = m; dst }) full)
          others
      in
      let dep = random_deployment rng n in
      let policies =
        List.map
          (fun model -> Policy.make ~lp:(random_policy rng).Policy.lp model)
          [ Policy.Security_first; Policy.Security_second; Policy.Security_third ]
      in
      Phenomena.sum g policies dep pairs = oracle g policies dep pairs)

(* Figure 13 ([cp-fate]) reads its columns off [sum [sec3]]: per
   destination, over an attacker sample with any attacker equal to the
   destination left out, "lost to downgrade" is [downgraded], "kept,
   immune source" [wasted] and "kept, other" [protecting] — recounted
   here per pair from the security-3rd [Partition.compute] class
   (Corollary E.1) and the attacked state — and "secure routes
   (normal)" is [secure_by_dst], the normal state's count.  The sample
   always holds one of the destinations. *)
let test_cp_fate_identity =
  qtest "cp-fate columns = per-pair immune recount" ~count:150 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let dsts = Rng.sample_without_replacement rng (min n 3) n in
      let attackers = Rng.sample_without_replacement rng (min n 4) n in
      if not (Array.mem dsts.(0) attackers) then attackers.(0) <- dsts.(0);
      Array.for_all
        (fun dst ->
          let pairs =
            Array.of_list
              (List.filter_map
                 (fun attacker ->
                   if attacker = dst then None
                   else Some { Metric.attacker; dst })
                 (Array.to_list attackers))
          in
          let t = List.hd (Phenomena.sum g [ sec3 ] dep pairs) in
          let normal = Engine.compute g sec3 dep ~dst ~attacker:None in
          let down = ref 0 and immune = ref 0 and other = ref 0 in
          Array.iter
            (fun { Metric.attacker; _ } ->
              let classes = Partition.compute g sec3 ~attacker ~dst in
              let attack =
                Engine.compute g sec3 dep ~dst ~attacker:(Some attacker)
              in
              for v = 0 to n - 1 do
                if v <> dst && v <> attacker && Outcome.secure normal v then
                  if not (Outcome.secure attack v) then incr down
                  else if classes.(v) = Partition.Immune then incr immune
                  else incr other
              done)
            pairs;
          (t.downgraded, t.wasted, t.protecting, t.secure_by_dst)
          = (!down, !immune, !other, secure_sources normal ~dst))
        dsts)

(* Root-cause accounting identities on random instances. *)
let test_root_cause_identities =
  qtest "root-cause decomposition is internally consistent" ~count:150
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:25 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let policy = random_policy rng in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if m = dst then true
      else begin
        let rc = one g policy dep ~attacker:m ~dst in
        (* Secure routes under normal conditions split into downgraded /
           wasted / protecting; the exempt ones are some of them. *)
        rc.downgraded + rc.wasted + rc.protecting = rc.secure_normal
        && rc.sources = n - 2
        && rc.exempt <= rc.secure_normal
        && rc.exempt_lost <= rc.exempt
        && rc.exempt_lost <= rc.downgraded
        && rc.benefit <= rc.sources
        && rc.happy_base <= rc.sources
        && rc.happy_dep <= rc.sources
      end)

(* No collateral damage in the security 3rd model (Theorem 6.1), measured
   through the phenomena API. *)
let test_no_damage_sec3 =
  qtest "Theorem 6.1: zero collateral damage when security is 3rd"
    ~count:200 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if m = dst then true
      else begin
        let dep = random_deployment rng n in
        (one g sec3 dep ~attacker:m ~dst).damage = 0
      end)

let () =
  Alcotest.run "phenomena"
    [
      ( "hand examples",
        [
          Alcotest.test_case "figure 2 downgrades" `Quick test_downgrade_fig2;
          Alcotest.test_case "Theorem 3.1 exempts a route through m" `Quick
            test_exempt_downgrade;
          Alcotest.test_case "collateral damage (sec2)" `Quick
            test_collateral_damage_sec2;
          Alcotest.test_case "collateral benefit (sec3)" `Quick
            test_collateral_benefit_sec3;
          Alcotest.test_case "collateral damage via Ex (sec1)" `Quick
            test_collateral_damage_sec1_export;
        ] );
      ( "properties",
        [
          test_root_cause_identities;
          test_no_damage_sec3;
          test_exempt_matches_path;
          test_sum_matches_oracle;
          test_cp_fate_identity;
        ] );
    ]
