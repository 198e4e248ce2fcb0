(* Flat CSR kernel: bit-identity of the packed-state engine against the
   fresh-buffer path, the pre-change reference engine and the literal
   Appendix-B staged algorithm, plus the hoisted rank table against
   Policy.rank. *)

open Core
open Test_helpers

let sec1 = Policy.make Policy.Security_first
let sec2 = Policy.make Policy.Security_second
let sec3 = Policy.make Policy.Security_third
let standard_models = [ sec1; sec2; sec3 ]

(* The rank table must reproduce Policy.rank bit-for-bit on every
   (class, length, security) cell, for random policies and length
   bounds — the affine-piece derivation is only correct if the encoding
   really is piecewise affine with the single breakpoint the table
   assumes. *)
let test_rank_table_exhaustive =
  qtest "Rank_table.rank = Policy.rank (exhaustive per policy)" ~count:300
    (fun seed ->
      let rng = Rng.create seed in
      let policy = random_policy rng in
      let max_len = 1 + Rng.int rng 60 in
      let tbl = Policy.Rank_table.make policy ~max_len in
      let ok = ref (tbl.Policy.Rank_table.max_rank = Policy.max_rank policy ~max_len) in
      List.iter
        (fun (cls, cls_code) ->
          for len = 1 to max_len do
            List.iter
              (fun secure ->
                let want = Policy.rank policy ~max_len cls ~len ~secure in
                let got =
                  Policy.Rank_table.rank tbl ~cls_code ~len
                    ~sbit:(if secure then 0 else 1)
                in
                if want <> got then begin
                  Printf.eprintf
                    "rank table mismatch: %s max_len=%d cls=%d len=%d \
                     secure=%b: %d vs %d\n\
                     %!"
                    (Policy.name policy) max_len cls_code len secure want got;
                  ok := false
                end)
              [ true; false ]
          done)
        [ (Policy.Customer, 0); (Policy.Peer, 1); (Policy.Provider, 2) ];
      !ok)

(* A random (graph, deployment, pair, policy, tiebreak) instance; the
   attacker is None one time in four. *)
let random_instance rng ~max_n =
  let g = random_graph rng ~max_n in
  let n = Graph.n g in
  let dep = random_deployment rng n in
  let dst = Rng.int rng n in
  let attacker =
    if Rng.int rng 4 = 0 then None
    else
      let m = Rng.int rng n in
      if m = dst then None else Some m
  in
  let tiebreak =
    if coin rng then Engine.Bounds else Engine.Lowest_next_hop
  in
  let claim = Rng.int rng 3 in
  (g, dep, dst, attacker, tiebreak, claim)

(* The packed CSR engine, the fresh-buffer path of the same engine, and
   the pre-change reference engine agree bit-for-bit on random instances
   under every policy (including Lp_k), both tiebreaks and random
   attacker claims. *)
let test_engine_vs_reference =
  qtest "packed engine = reference engine (random instances)" ~count:400
    (fun seed ->
      let rng = Rng.create seed in
      let g, dep, dst, attacker, tiebreak, claim =
        random_instance rng ~max_n:30
      in
      let policy = random_policy rng in
      let ws = Engine.Workspace.create (Graph.n g) in
      let fresh =
        Engine.compute ~tiebreak ~attacker_claim:claim g policy dep ~dst
          ~attacker
      in
      let packed =
        Engine.compute ~tiebreak ~attacker_claim:claim ~ws g policy dep ~dst
          ~attacker
      in
      let reference =
        Reference.compute ~tiebreak ~attacker_claim:claim g policy dep ~dst
          ~attacker
      in
      check_none "ws vs fresh" (outcome_mismatch fresh packed)
      && check_none "engine vs reference" (outcome_mismatch fresh reference))

(* Against the executable Appendix-B specification: standard LP, all
   three models, Bounds tiebreak (Staged always merges the BPR set). *)
let test_engine_vs_staged =
  qtest "packed engine = staged specification" ~count:300 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:24 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let dst = Rng.int rng n in
      let attacker =
        if Rng.int rng 4 = 0 then None
        else
          let m = Rng.int rng n in
          if m = dst then None else Some m
      in
      List.for_all
        (fun policy ->
          let a = Engine.compute g policy dep ~dst ~attacker in
          let b = Staged.compute g policy dep ~dst ~attacker in
          check_none (Policy.name policy) (outcome_mismatch a b))
        standard_models)

(* One workspace reused across a growing sequence of graph sizes: the
   grow-in-place path must never leak state from a smaller (or larger)
   previous computation. *)
let test_workspace_across_sizes =
  qtest "workspace reuse across growing graph sizes" ~count:100 (fun seed ->
      let rng = Rng.create seed in
      let ws = Engine.Workspace.create 0 in
      let sizes = [ 5; 9; 17; 33; 12; 40 ] in
      List.for_all
        (fun max_n ->
          let g = random_graph rng ~max_n in
          let n = Graph.n g in
          let dep = random_deployment rng n in
          let dst = Rng.int rng n in
          let m = Rng.int rng n in
          let attacker = if m = dst then None else Some m in
          let policy = random_policy rng in
          List.for_all
            (fun tiebreak ->
              let reused =
                Engine.compute ~tiebreak ~ws g policy dep ~dst ~attacker
              in
              let fresh = Engine.compute ~tiebreak g policy dep ~dst ~attacker in
              check_none "reuse across sizes" (outcome_mismatch fresh reused))
            [ Engine.Bounds; Engine.Lowest_next_hop ])
        sizes)

(* attacker:None — normal-conditions outcomes agree across all three
   paths too (the reference engine and the staged specification). *)
let test_no_attacker =
  qtest "normal conditions: engine = reference = staged" ~count:200
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:24 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let dst = Rng.int rng n in
      let ws = Engine.Workspace.create n in
      List.for_all
        (fun policy ->
          let a = Engine.compute ~ws g policy dep ~dst ~attacker:None in
          let r = Reference.compute g policy dep ~dst ~attacker:None in
          let s = Staged.compute g policy dep ~dst ~attacker:None in
          check_none "engine vs reference" (outcome_mismatch a r)
          && check_none "engine vs staged" (outcome_mismatch a s))
        standard_models)

(* Destination-major batched kernel: decoding each lane of one batched
   solve must be bit-identical to a scalar Engine.compute against that
   lane's attacker — random policies (Lp_k included), both tiebreaks,
   random claims, duplicate attackers allowed (two lanes may share an
   attacker and must still decode independently). *)
let random_attackers rng ~n ~dst =
  let lanes = 1 + Rng.int rng (min Batch.max_lanes (2 * (n - 1))) in
  Array.init lanes (fun _ ->
      let m = Rng.int rng (n - 1) in
      if m >= dst then m + 1 else m)

let test_batch_vs_engine =
  qtest "batched kernel = scalar engine per lane" ~count:300 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let dst = Rng.int rng n in
      let attackers = random_attackers rng ~n ~dst in
      let policy = random_policy rng in
      let tiebreak =
        if coin rng then Engine.Bounds else Engine.Lowest_next_hop
      in
      let claim = Rng.int rng 3 in
      let b =
        Batch.compute ~tiebreak ~attacker_claim:claim g policy dep ~dst
          ~attackers
      in
      let ok = ref true in
      Array.iteri
        (fun lane m ->
          let want =
            Engine.compute ~tiebreak ~attacker_claim:claim g policy dep ~dst
              ~attacker:(Some m)
          in
          let got = Batch.decode b ~lane in
          if
            not
              (check_none
                 (Printf.sprintf "lane %d (attacker %d)" lane m)
                 (outcome_mismatch want got))
          then ok := false)
        attackers;
      !ok)

(* All three standard models with the Appendix-B staged specification as
   the oracle: the batch path must not drift from the paper's semantics
   either (Bounds tiebreak, claim 1, like Staged). *)
let test_batch_vs_staged =
  qtest "batched kernel = staged specification per lane" ~count:150
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:20 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let dst = Rng.int rng n in
      let attackers = random_attackers rng ~n ~dst in
      List.for_all
        (fun policy ->
          let b = Batch.compute g policy dep ~dst ~attackers in
          let ok = ref true in
          Array.iteri
            (fun lane m ->
              let want = Staged.compute g policy dep ~dst ~attacker:(Some m) in
              let got = Batch.decode b ~lane in
              if
                not
                  (check_none
                     (Printf.sprintf "%s lane %d" (Policy.name policy) lane)
                     (outcome_mismatch want got))
              then ok := false)
            attackers;
          !ok)
        standard_models)

(* One batch workspace reused across growing and shrinking graph sizes,
   with a reused decode outcome: the epoch-stamped slabs must never leak
   groups from a previous solve, and a result must go stale the moment
   its workspace is reused.  The slabs are plane-major with a stride of
   the workspace's capacity, so the sequence mixes random-width words
   with full 63-lane words on graphs of at least 70 ASes, and solves
   both kinds after a larger graph grew the workspace (capacity above
   [n]: a 100..120-AS graph precedes a 70..90-AS full word and the small
   graphs).  Every lane decodes against a scalar Engine solve, and
   [Batch.groups] counts exactly the groups [iter_fixed] visits. *)
let test_batch_workspace_reuse =
  qtest "batch workspace reuse across sizes" ~count:60 (fun seed ->
      let rng = Rng.create seed in
      let ws = Batch.Workspace.create 0 in
      let into = Outcome.create ~n:1 ~dst:0 ~attacker:None in
      let stale = ref None in
      let ok =
        List.for_all
          (fun (min_n, max_n, full) ->
            let g = random_graph rng ~min_n ~max_n in
            let n = Graph.n g in
            let dep = random_deployment rng n in
            let dst = Rng.int rng n in
            let attackers =
              if full then
                Array.init Batch.max_lanes (fun _ ->
                    let m = Rng.int rng (n - 1) in
                    if m >= dst then m + 1 else m)
              else random_attackers rng ~n ~dst
            in
            let policy = random_policy rng in
            let b = Batch.compute ~ws g policy dep ~dst ~attackers in
            stale := Some b;
            let visited = ref 0 in
            Batch.iter_fixed b (fun ~v:_ ~mask:_ ~word:_ ~parent:_ ->
                incr visited);
            let ok = ref (Batch.groups b = !visited) in
            Array.iteri
              (fun lane m ->
                let want =
                  Engine.compute g policy dep ~dst ~attacker:(Some m)
                in
                let got = Batch.decode ~into b ~lane in
                if
                  not
                    (check_none
                       (Printf.sprintf "reused ws + into, n %d lane %d" n lane)
                       (outcome_mismatch want got))
                then ok := false)
              attackers;
            !ok)
          [
            (3, 5, false);
            (3, 9, false);
            (70, 90, true);
            (3, 17, false);
            (3, 33, false);
            (100, 120, true);
            (3, 12, false);
            (70, 90, true);
            (3, 40, false);
          ]
      in
      ok
      &&
      match !stale with
      | None -> false
      | Some b -> (
          (* The last result is live; recompute on the same workspace and
             the accessors must refuse it. *)
          let g = random_graph rng ~max_n:8 in
          let n = Graph.n g in
          let dep = random_deployment rng n in
          let (_ : Batch.t) =
            Batch.compute ~ws g (random_policy rng) dep ~dst:0
              ~attackers:[| 1 |]
          in
          try
            Batch.iter_fixed b (fun ~v:_ ~mask:_ ~word:_ ~parent:_ -> ());
            false
          with Invalid_argument _ -> true))

let test_batch_validation () =
  let rng = Rng.create 7 in
  let g = random_graph rng ~max_n:10 in
  let dep = Deployment.empty (Graph.n g) in
  Alcotest.check_raises "attacker = dst"
    (Invalid_argument "Batch.compute: attacker = dst") (fun () ->
      ignore (Batch.compute g sec3 dep ~dst:0 ~attackers:[| 1; 0 |]));
  Alcotest.check_raises "no lanes"
    (Invalid_argument "Batch.compute: lane count 0 outside 1..63") (fun () ->
      ignore (Batch.compute g sec3 dep ~dst:0 ~attackers:[||]))

(* The CSR view itself: segments match the per-class adjacency arrays on
   random graphs. *)
let test_csr_segments =
  qtest "CSR segments = adjacency arrays" ~count:200 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:40 in
      let n = Graph.n g in
      let csr = Graph.csr g in
      let adj = csr.Graph.Csr.adj and xs = csr.Graph.Csr.xs in
      let ok = ref true in
      let segment lo hi = Array.init (hi - lo) (fun i -> adj.{lo + i}) in
      for v = 0 to n - 1 do
        let b = 3 * v in
        if segment xs.{b} xs.{b + 1} <> Graph.customers g v then ok := false;
        if segment xs.{b + 1} xs.{b + 2} <> Graph.peers g v then ok := false;
        if segment xs.{b + 2} xs.{b + 3} <> Graph.providers g v then
          ok := false
      done;
      !ok && xs.{0} = 0)

let () =
  Alcotest.run "kernel"
    [
      ( "rank table",
        [ test_rank_table_exhaustive ] );
      ( "bit identity",
        [
          test_engine_vs_reference;
          test_engine_vs_staged;
          test_workspace_across_sizes;
          test_no_attacker;
        ] );
      ( "batched kernel",
        [
          test_batch_vs_engine;
          test_batch_vs_staged;
          test_batch_workspace_reuse;
          Alcotest.test_case "validation" `Quick test_batch_validation;
        ] );
      ( "csr",
        [ test_csr_segments ] );
    ]
