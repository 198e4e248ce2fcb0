(* Dynamic message-passing simulator: equivalence with the static engine,
   schedule independence (Theorem 2.1), and the BGP Wedgie of Figure 1. *)

open Core
open Test_helpers

let sec1 = Policy.make Policy.Security_first
let sec2 = Policy.make Policy.Security_second
let sec3 = Policy.make Policy.Security_third

(* The dynamic simulator must converge to the stable state the static
   engine computes, for all models and LP variants, under deterministic
   lowest-next-hop tiebreaking. *)
let test_sim_vs_engine =
  qtest "dynamic simulation = static engine" ~count:2000 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:25 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let policy = random_policy rng in
      let dst = Rng.int rng n in
      let m = Rng.int rng n in
      let attacker = if m = dst then None else Some m in
      let static =
        Engine.compute ~tiebreak:Engine.Lowest_next_hop g policy dep ~dst
          ~attacker
      in
      let sim =
        match attacker with
        | Some m -> Bgpsim.create g policy dep ~dst ~attacker:m ()
        | None -> Bgpsim.create g policy dep ~dst ()
      in
      let (_ : int) = Bgpsim.run sim in
      check_none (Policy.name policy)
        (outcome_mismatch static (Bgpsim.to_outcome sim)))

(* Theorem 2.1: with consistent policies the outcome is independent of the
   activation schedule. *)
let test_schedule_independence =
  qtest "outcome independent of activation schedule" ~count:100 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:20 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let policy = random_policy rng in
      let dst = Rng.int rng n in
      let m = Rng.int rng n in
      let run schedule =
        let sim =
          if m = dst then Bgpsim.create g policy dep ~dst ()
          else Bgpsim.create g policy dep ~dst ~attacker:m ()
        in
        let (_ : int) = Bgpsim.run ?schedule sim in
        Bgpsim.snapshot sim
      in
      let reference = run None in
      List.for_all
        (fun s -> run (Some (Rng.create s)) = reference)
        [ seed + 1; seed + 2; seed + 3 ])

(* Convergence must also hold under attack (cf. [35]); bounded sweeps. *)
let test_convergence_bounded =
  qtest "convergence within few sweeps" ~count:100 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:25 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let policy = random_policy rng in
      let dst = Rng.int rng n in
      let m = Rng.int rng n in
      let sim =
        if m = dst then Bgpsim.create g policy dep ~dst ()
        else Bgpsim.create g policy dep ~dst ~attacker:m ()
      in
      Bgpsim.run ~max_sweeps:100 sim <= 100)

(* Figure 1: the S*BGP Wedgie.  AS 29518 ranks security below LP while AS
   31283 ranks it 1st.  After a link flap the system settles in a different
   stable state.  ids: 3=0 (dst), 8928=1, 34226=2, 31283=3, 29518=4,
   31027=5. *)
let wedgie_setup () =
  (* Relationships per the figure: the destination AS 3 has providers
     31027 and 8928 (arrows point customer -> provider).  34226 is 8928's
     provider, 31283 is 34226's... in the figure: 3 -> 31027 and
     3 -> 8928 (customer-to-provider), 8928 -> 34226, 34226 -> 31283,
     31283 -> 29518, and 29518 -> 31027 ... 29518 peers? The figure shows
     29518 with customer 31283 and provider/peer 31027.  We encode:
     dst(0) customer of 31027(5) and of 8928(1); 8928 customer of
     34226(2); 34226 customer of 31283(3); 31283 customer of 29518(4);
     29518 customer of 31027(5). *)
  let g =
    graph 6 [ c2p 0 5; c2p 0 1; c2p 1 2; c2p 2 3; c2p 3 4; c2p 4 5 ]
  in
  (* Everyone secure except AS 8928 (id 1). *)
  let dep = Deployment.make ~n:6 ~full:[| 0; 2; 3; 4; 5 |] () in
  (* 29518 (4) places security below LP (security 3rd); 31283 (3) places
     it 1st; everyone else's placement is irrelevant — use sec3. *)
  let policy_of v = if v = 3 then sec1 else sec3 in
  let sim = Bgpsim.create ~policy_of g sec3 dep ~dst:0 () in
  (g, sim)

let test_wedgie () =
  let _, sim = wedgie_setup () in
  (* Reach the intended state: converge with 31283's customer link down,
     so it locks onto the secure provider path, then restore the link —
     security-1st 31283 sticks with the secure path. *)
  Bgpsim.set_link sim 2 3 ~up:false;
  let (_ : int) = Bgpsim.run sim in
  Bgpsim.set_link sim 2 3 ~up:true;
  let (_ : int) = Bgpsim.run sim in
  (* Intended state: 31283 (3) prefers the secure provider route via
     29518 (4) -> 31027 (5) -> dst over the insecure customer route via
     34226 (2): path 4,5,0. *)
  Alcotest.(check (option (list int)))
    "31283 uses the secure provider path" (Some [ 4; 5; 0 ])
    (Bgpsim.chosen_path sim 3);
  (* Fail the link 31027 - dst and reconverge. *)
  Bgpsim.set_link sim 5 0 ~up:false;
  let (_ : int) = Bgpsim.run sim in
  Alcotest.(check (option (list int)))
    "31283 falls back to the customer path" (Some [ 2; 1; 0 ])
    (Bgpsim.chosen_path sim 3);
  (* Restore the link: BGP does NOT return to the intended state — the
     wedgie.  29518 (4) now prefers its customer route via 31283 (3), and
     31283's secure provider path no longer exists. *)
  Bgpsim.set_link sim 5 0 ~up:true;
  let (_ : int) = Bgpsim.run sim in
  Alcotest.(check (option (list int)))
    "wedged: 31283 keeps the customer path" (Some [ 2; 1; 0 ])
    (Bgpsim.chosen_path sim 3);
  Alcotest.(check (option (list int)))
    "wedged: 29518 prefers its customer route" (Some [ 3; 2; 1; 0 ])
    (Bgpsim.chosen_path sim 4)

(* Link failures: withdrawals propagate and the state matches a fresh
   computation on the pruned graph. *)
let test_link_failure_equivalence =
  qtest "link flap converges to the pruned-graph state" ~count:100
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:15 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let policy = random_policy rng in
      let dst = Rng.int rng n in
      let edges = Graph.edges g in
      let nth = Rng.int rng (List.length edges) in
      let a, b =
        match List.nth edges nth with
        | Graph.Customer_provider (c, p) -> (c, p)
        | Graph.Peer_peer (x, y) -> (x, y)
      in
      let sim = Bgpsim.create g policy dep ~dst () in
      let (_ : int) = Bgpsim.run sim in
      Bgpsim.set_link sim a b ~up:false;
      let (_ : int) = Bgpsim.run sim in
      (* Fresh graph without that edge. *)
      let pruned =
        Graph.of_edges ~n
          (List.filter
             (fun e ->
               match e with
               | Graph.Customer_provider (c, p) ->
                   not ((c = a && p = b) || (c = b && p = a))
               | Graph.Peer_peer (x, y) ->
                   not ((x = a && y = b) || (x = b && y = a)))
             edges)
      in
      let fresh = Bgpsim.create pruned policy dep ~dst () in
      let (_ : int) = Bgpsim.run fresh in
      Bgpsim.snapshot sim = Bgpsim.snapshot fresh)

(* Golden corpus: what every [run] returns (or its [Failure]) and a digest
   of the state it leaves, over fixed seeded instances.  The expected
   values were recorded with the previous simulator (per-AS relationship
   tables, every AS re-selected on every sweep); the simulator must
   reproduce them exactly — sweep counts and failures included. *)

type transcript = {
  buf : Buffer.t;
  mutable runs : int;
  mutable failures : int;
  mutable sweeps : int;
}

let transcript () =
  { buf = Buffer.create 4096; runs = 0; failures = 0; sweeps = 0 }

(* One [run], then the state it leaves: chosen paths, [route_secure] and
   [uses_attacker] of every AS. *)
let record tr ?schedule ?max_sweeps sim =
  tr.runs <- tr.runs + 1;
  (match Bgpsim.run ?schedule ?max_sweeps sim with
  | k ->
      tr.sweeps <- tr.sweeps + k;
      Printf.bprintf tr.buf "run %d\n" k
  | exception Failure msg ->
      tr.failures <- tr.failures + 1;
      Printf.bprintf tr.buf "failure %s\n" msg);
  Array.iteri
    (fun v path ->
      (match path with
      | None -> Buffer.add_char tr.buf '-'
      | Some p -> List.iter (Printf.bprintf tr.buf "%d.") p);
      Printf.bprintf tr.buf " %b %b\n"
        (Bgpsim.route_secure sim v)
        (Bgpsim.uses_attacker sim v))
    (Bgpsim.snapshot sim)

let summary tr =
  Printf.sprintf "runs=%d failures=%d sweeps=%d md5=%s" tr.runs tr.failures
    tr.sweeps
    (Digest.to_hex (Digest.string (Buffer.contents tr.buf)))

(* The Section-8 extension families, on the graph the [extensions]
   experiment uses: a Topogen graph of 800 ASes. *)
let golden_topogen =
  lazy
    (let r =
       Topogen.generate ~params:(Topogen.default_params ~n:800) (Rng.create 5)
     in
     (r.Topogen.graph, Topogen.tiers r))

(* Hysteresis double run: converge with the attack silenced, then launch
   it against the established state. *)
let golden_hysteresis () =
  let g, tiers = Lazy.force golden_topogen in
  let n = Graph.n g in
  let dep = Deployment.tier1_tier2 g tiers ~n_t1:13 ~n_t2:50 in
  let tr = transcript () in
  List.iter
    (fun hysteresis ->
      let rng = Rng.create 11 in
      for _ = 1 to 25 do
        let dst = Rng.int rng n and attacker = Rng.int rng n in
        if dst <> attacker then begin
          let sim = Bgpsim.create ~hysteresis g sec3 dep ~dst ~attacker () in
          Bgpsim.set_attack sim ~active:false;
          record tr sim;
          Bgpsim.set_attack sim ~active:true;
          record tr ~max_sweeps:300 sim
        end
      done)
    [ false; true ];
  summary tr

(* Security-1st islands: the Tier 2s and CPs rank security 1st. *)
let golden_islands () =
  let g, tiers = Lazy.force golden_topogen in
  let n = Graph.n g in
  let island =
    Array.append (Tiers.members tiers Tiers.T2) (Tiers.members tiers Tiers.Cp)
  in
  let dep = Deployment.make ~n ~full:island () in
  let in_island = Array.make n false in
  Array.iter (fun v -> in_island.(v) <- true) island;
  let tr = transcript () in
  List.iter
    (fun policy_of ->
      let rng = Rng.create 13 in
      for _ = 1 to 20 do
        let dst = island.(Rng.int rng (Array.length island)) in
        let attacker = Rng.int rng n in
        if dst <> attacker then
          record tr ~max_sweeps:300
            (Bgpsim.create ~policy_of g sec3 dep ~dst ~attacker ())
      done)
    [
      (fun _ -> sec3);
      (fun v -> if in_island.(v) then sec1 else sec3);
      (fun _ -> sec1);
    ];
  summary tr

(* The operator-survey mix: 10 % security 1st, 20 % 2nd, the rest 3rd. *)
let golden_survey () =
  let g, tiers = Lazy.force golden_topogen in
  let n = Graph.n g in
  let dep = Deployment.tier1_tier2 g tiers ~n_t1:13 ~n_t2:50 in
  let assign = Rng.create 17 in
  let mix =
    Array.init n (fun _ ->
        let r = Rng.int assign 100 in
        if r < 10 then sec1 else if r < 30 then sec2 else sec3)
  in
  let tr = transcript () in
  List.iter
    (fun policy_of ->
      let rng = Rng.create 19 in
      for _ = 1 to 20 do
        let dst = Rng.int rng n and attacker = Rng.int rng n in
        if dst <> attacker then
          record tr ~max_sweeps:300
            (Bgpsim.create ~policy_of g sec3 dep ~dst ~attacker ())
      done)
    [ (fun _ -> sec3); (fun v -> mix.(v)); (fun _ -> sec2) ];
  summary tr

(* A small random instance: per-AS policy mixes (so some instances
   oscillate and fail), cyclic hierarchies, hysteresis, an attacker. *)
let golden_instance rng =
  let g = random_graph ~cycle:(coin rng) rng ~max_n:25 in
  let n = Graph.n g in
  let dep = random_deployment rng n in
  let policy = random_policy rng in
  let policy_of =
    if coin rng then
      let mix = Array.init n (fun _ -> random_policy rng) in
      fun v -> mix.(v)
    else fun _ -> policy
  in
  let hysteresis = coin rng in
  let dst = Rng.int rng n and m = Rng.int rng n in
  let sim =
    if m = dst then Bgpsim.create ~policy_of ~hysteresis g policy dep ~dst ()
    else Bgpsim.create ~policy_of ~hysteresis g policy dep ~dst ~attacker:m ()
  in
  (g, sim, m <> dst)

(* Random graphs under seeded activation schedules, attack launched
   against the established state where there is an attacker. *)
let golden_schedules () =
  let tr = transcript () in
  for seed = 1 to 300 do
    let rng = Rng.create (1000 + seed) in
    let _, sim, attacked = golden_instance rng in
    let schedule = Rng.create seed in
    if attacked then begin
      Bgpsim.set_attack sim ~active:false;
      record tr ~schedule ~max_sweeps:60 sim;
      Bgpsim.set_attack sim ~active:true
    end;
    record tr ~schedule ~max_sweeps:60 sim
  done;
  summary tr

(* Link flaps in the middle of convergence: cut [run] short with a small
   [max_sweeps] (its [Failure] is part of the transcript), fail a link,
   run, restore it, run to the end. *)
let golden_flaps () =
  let tr = transcript () in
  for seed = 1 to 300 do
    let rng = Rng.create (2000 + seed) in
    let g, sim, _ = golden_instance rng in
    let edges = Array.of_list (Graph.edges g) in
    let a, b =
      match edges.(Rng.int rng (Array.length edges)) with
      | Graph.Customer_provider (a, b) | Graph.Peer_peer (a, b) -> (a, b)
    in
    let schedule = if coin rng then Some (Rng.create seed) else None in
    record tr ?schedule ~max_sweeps:(1 + Rng.int rng 3) sim;
    Bgpsim.set_link sim a b ~up:false;
    record tr ?schedule ~max_sweeps:(1 + Rng.int rng 3) sim;
    Bgpsim.set_link sim a b ~up:true;
    record tr ?schedule ~max_sweeps:60 sim;
    Bgpsim.set_link sim b a ~up:false;
    record tr ?schedule ~max_sweeps:60 sim
  done;
  summary tr

let golden_case (name, family, expected) =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name expected (family ()))

let golden =
  [
    ("extensions hysteresis", golden_hysteresis,
      "runs=100 failures=0 sweeps=385 md5=cdd28a2e70092b9477d29ee70ff7507a" );
    ("extensions islands", golden_islands,
      "runs=60 failures=0 sweeps=239 md5=81b1cf6261d30b47aa8f3ae8f0715f98" );
    ("extensions survey mix", golden_survey,
      "runs=60 failures=0 sweeps=290 md5=9872d276e7b30a034056e45fcfcaf8fc" );
    ("random graphs under schedules", golden_schedules,
      "runs=570 failures=0 sweeps=1746 md5=138b3a17208c7cbd5ab7d93caee134e2" );
    ("link flaps mid-convergence", golden_flaps,
      "runs=1200 failures=330 sweeps=1474 md5=4bec3ee79baa6150171c1681cec9c14b" );
  ]

let () =
  Alcotest.run "bgpsim"
    [
      ( "equivalence",
        [ test_sim_vs_engine; test_schedule_independence;
          test_link_failure_equivalence ] );
      ("convergence", [ test_convergence_bounded ]);
      ("wedgie", [ Alcotest.test_case "figure 1 wedgie" `Quick test_wedgie ]);
      ("golden", List.map golden_case golden);
    ]
