module D = Diagnostic
module G = Topology.Graph
module P = Routing.Policy
module E = Routing.Engine
module O = Routing.Outcome

let sec1 = P.make P.Security_first
let sec3 = P.make P.Security_third

(* ---- topology mutants -------------------------------------------- *)

let self_loop () =
  (* AS 0 peers with itself. *)
  let g =
    G.unsafe_of_adjacency
      ~customers:[| [||]; [||] |]
      ~providers:[| [||]; [||] |]
      ~peers:[| [| 0; 1 |]; [| 0 |] |]
  in
  Lint.graph g

let duplicate_edge () =
  (* The peer edge 0-1 appears twice in AS 0's table. *)
  let g =
    G.unsafe_of_adjacency
      ~customers:[| [||]; [||] |]
      ~providers:[| [||]; [||] |]
      ~peers:[| [| 1; 1 |]; [| 0 |] |]
  in
  Lint.graph g

let asymmetric () =
  (* AS 1 lists 0 as a customer, but 0 does not list 1 as a provider. *)
  let g =
    G.unsafe_of_adjacency
      ~customers:[| [||]; [| 0 |] |]
      ~providers:[| [||]; [||] |]
      ~peers:[| [||]; [||] |]
  in
  Lint.graph g

let relationship_conflict () =
  Lint.edges ~n:2
    [ G.Customer_provider (0, 1); G.Peer_peer (0, 1) ]

let cp_cycle () =
  (* 0 pays 1 pays 2 pays 0: a money loop of_edges accepts happily. *)
  let g =
    G.of_edges ~n:3
      [
        G.Customer_provider (0, 1);
        G.Customer_provider (1, 2);
        G.Customer_provider (2, 0);
      ]
  in
  Lint.graph g

let tier_mismatch () =
  (* Classify one graph, lint another: AS 0 is a stub in the first but
     has a customer in the second. *)
  let g1 = G.of_edges ~n:2 [ G.Customer_provider (0, 1) ] in
  let g2 = G.of_edges ~n:2 [ G.Customer_provider (1, 0) ] in
  let tiers = Topology.Tiers.classify g1 in
  Lint.graph ~tiers g2

let ixp_non_peer () =
  (* The "augmentation" slips in a customer-provider edge. *)
  let base = G.of_edges ~n:3 [ G.Peer_peer (0, 1) ] in
  let augmented =
    G.of_edges ~n:3 [ G.Peer_peer (0, 1); G.Customer_provider (2, 0) ]
  in
  Lint.ixp ~base ~augmented

(* ---- routing-state mutants --------------------------------------- *)

let verify g out = Verify.outcome g sec3 (Deployment.empty (G.n g)) out

let tiebreak_flip () =
  (* Diamond: AS 3 has equally-best provider routes via 1 and 2; the
     representative next hop must be the lowest (1), the mutant picks 2. *)
  let g =
    G.of_edges ~n:4
      [
        G.Customer_provider (1, 0);
        G.Customer_provider (2, 0);
        G.Customer_provider (3, 1);
        G.Customer_provider (3, 2);
      ]
  in
  let out = E.compute g sec3 (Deployment.empty 4) ~dst:0 ~attacker:None in
  O.fix out 3 ~cls:P.Provider ~len:2 ~secure:false ~to_d:true ~to_m:false
    ~parent:2;
  verify g out

let export_leak () =
  (* AS 1 holds a peer route, which it must not export to its peer 2;
     the mutant routes 2 through 1 anyway. *)
  let g =
    G.of_edges ~n:3
      [
        G.Peer_peer (0, 1);
        G.Customer_provider (2, 0);
        G.Peer_peer (1, 2);
      ]
  in
  let out = E.compute g sec3 (Deployment.empty 3) ~dst:0 ~attacker:None in
  O.fix out 2 ~cls:P.Peer ~len:2 ~secure:false ~to_d:true ~to_m:false
    ~parent:1;
  verify g out

let suboptimal () =
  (* AS 2 has a direct customer route but the mutant records the longer
     peer route via 1. *)
  let g =
    G.of_edges ~n:3
      [
        G.Customer_provider (0, 1);
        G.Peer_peer (1, 2);
        G.Customer_provider (0, 2);
      ]
  in
  let out = E.compute g sec3 (Deployment.empty 3) ~dst:0 ~attacker:None in
  O.fix out 2 ~cls:P.Peer ~len:2 ~secure:false ~to_d:true ~to_m:false
    ~parent:1;
  verify g out

let secure_outside_s () =
  (* Nobody deploys S*BGP, yet AS 1's route claims to be secure. *)
  let g = G.of_edges ~n:2 [ G.Customer_provider (1, 0) ] in
  let out = E.compute g sec3 (Deployment.empty 2) ~dst:0 ~attacker:None in
  O.fix out 1 ~cls:P.Provider ~len:1 ~secure:true ~to_d:true ~to_m:false
    ~parent:0;
  verify g out

(* ---- theorem mutants --------------------------------------------- *)

let sec1_downgrade () =
  (* Security 3rd lets the shorter bogus route beat AS 3's secure
     customer route — feeding those outcomes to the Theorem 3.1 checker
     must flag the downgrade. *)
  let g =
    G.of_edges ~n:5
      [
        G.Customer_provider (0, 1);
        G.Customer_provider (1, 2);
        G.Customer_provider (2, 3);
        G.Customer_provider (4, 3);
      ]
  in
  let dep = Deployment.make ~n:5 ~full:[| 0; 1; 2; 3 |] () in
  let normal = E.compute g sec3 dep ~dst:0 ~attacker:None in
  let attacked =
    E.compute ~attacker_claim:1 g sec3 dep ~dst:0 ~attacker:(Some 4)
  in
  Verify.no_downgrade_sec1 ~normal ~attacked

let sec3_nonmonotone () =
  (* Under security 1st, securing {2, 3} flips AS 2 onto a secure
     provider route that is no longer exported to its peer 4, so AS 4
     falls to the bogus route — growing S made it unhappy, which the
     Theorem 6.1 checker must flag. *)
  let g =
    G.of_edges ~n:6
      [
        G.Customer_provider (0, 1);
        G.Customer_provider (1, 2);
        G.Customer_provider (0, 3);
        G.Customer_provider (2, 3);
        G.Peer_peer (2, 4);
        G.Peer_peer (4, 5);
      ]
  in
  let dep_sub = Deployment.make ~n:6 ~full:[| 0 |] () in
  let dep_super = Deployment.make ~n:6 ~full:[| 0; 2; 3 |] () in
  let sub =
    E.compute ~attacker_claim:3 g sec1 dep_sub ~dst:0 ~attacker:(Some 5)
  in
  let super =
    E.compute ~attacker_claim:3 g sec1 dep_super ~dst:0 ~attacker:(Some 5)
  in
  Verify.sec3_monotone ~sub ~super

(* ---- batched-kernel mutants -------------------------------------- *)

(* Re-fix every fixed AS of [src] into [into] (same size).  The stale-lane
   mutant uses it to smear one lane's decode across the word. *)
let copy_fixed ~src ~into =
  for v = 0 to O.n src - 1 do
    if O.reached src v then
      if v = O.dst src || Some v = O.attacker src then
        O.fix_root into v ~len:(O.length src v) ~secure:(O.secure src v)
          ~to_d:(O.to_d src v) ~to_m:(O.to_m src v)
          ~parent:(O.next_hop src v)
      else
        O.fix into v ~cls:(O.route_class src v) ~len:(O.length src v)
          ~secure:(O.secure src v) ~to_d:(O.to_d src v) ~to_m:(O.to_m src v)
          ~parent:(O.next_hop src v)
  done

let batch_tie_drop () =
  (* AS 3's equally-best provider routes (via 1 to d, via the attacker 2)
     tie in Bounds mode, so to-d and to-m are both set; the tamper drops
     the to-d flag — emulating a batch relax that loses a lane's flag bit
     on an equal-rank merge. *)
  let g =
    G.of_edges ~n:4
      [
        G.Customer_provider (1, 0);
        G.Customer_provider (3, 1);
        G.Customer_provider (3, 2);
      ]
  in
  let tamper ~lane:_ got =
    for v = 0 to O.n got - 1 do
      if
        O.reached got v
        && v <> O.dst got
        && Some v <> O.attacker got
        && O.to_d got v && O.to_m got v
      then
        O.fix got v ~cls:(O.route_class got v) ~len:(O.length got v)
          ~secure:(O.secure got v) ~to_d:false ~to_m:true
          ~parent:(O.next_hop got v)
    done
  in
  let _, diags =
    Kernel.analyze_batch ~tamper g [ sec3 ] (Deployment.empty 4)
      [| (0, [| 2 |]) |]
  in
  diags

let batch_stale_lane () =
  (* Every lane beyond the first decodes to lane 0's routing tree —
     emulating a batch kernel whose group masks smear one lane across
     the whole word.  The two lanes attack from opposite ends of a
     provider chain, so the stale copy must diverge. *)
  let g =
    G.of_edges ~n:5
      [
        G.Customer_provider (1, 0);
        G.Customer_provider (2, 1);
        G.Customer_provider (3, 2);
        G.Customer_provider (4, 3);
      ]
  in
  let stale = ref None in
  let tamper ~lane got =
    if lane = 0 then begin
      let dup =
        O.create ~n:(O.n got) ~dst:(O.dst got) ~attacker:(O.attacker got)
      in
      copy_fixed ~src:got ~into:dup;
      stale := Some dup
    end
    else
      match !stale with
      | None -> ()
      | Some s ->
          ignore
            (O.reset got ~n:(O.n got) ~dst:(O.dst s) ~attacker:(O.attacker s));
          copy_fixed ~src:s ~into:got
  in
  let _, diags =
    Kernel.analyze_batch ~tamper g [ sec3 ] (Deployment.empty 5)
      [| (0, [| 4; 2 |]) |]
  in
  diags

(* ---- determinism mutant ------------------------------------------ *)

let stale_workspace () =
  (* A "buggy engine" that, on every third workspace-reusing call,
     returns the previous outcome without recomputing — exactly what a
     broken epoch stamp would produce.  Only sequential configurations
     are replayed so the shared history is well-defined. *)
  let g =
    G.of_edges ~n:4
      [
        G.Customer_provider (1, 0);
        G.Customer_provider (2, 1);
        G.Customer_provider (3, 2);
      ]
  in
  let dep = Deployment.empty 4 in
  let pairs = [| (0, None); (1, None); (2, None); (3, None) |] in
  let count = ref 0 in
  let prev = ref None in
  let compute ~ws g policy dep ~dst ~attacker =
    match ws with
    | None -> E.compute g policy dep ~dst ~attacker
    | Some ws ->
        incr count;
        (match !prev with
        | Some stale when !count mod 3 = 0 -> stale
        | _ ->
            let out = E.compute ~ws g policy dep ~dst ~attacker in
            prev := Some out;
            out)
  in
  Determinism.analyze
    ~configs:
      [ Determinism.baseline; { Determinism.domains = 1; reuse_ws = true } ]
    ~compute g sec3 dep pairs

(* ---- allocation-gate mutants ------------------------------------- *)

(* A provider chain big enough for the gate's batch and metric probes. *)
let alloc_graph () =
  G.of_edges ~n:12 (List.init 11 (fun i -> G.Customer_provider (i + 1, i)))

let alloc_site_dropped () =
  (* Emulates a per-pair allocation regression the static A9 walk
     cannot see (introduced by inlining, say): every measured batch
     solve allocates ~1k minor words on the side, ~90 per lane of the
     gadget's 11-lane word.  Blocks stay under Max_young_wosize so they
     land in the minor heap. *)
  let tamper () =
    for _ = 1 to 8 do
      ignore (Sys.opaque_identity (Array.make 128 0))
    done
  in
  snd (Alloc_check.analyze ~tamper ~seed:11 (alloc_graph ()) [ sec3 ])

let purity_taint_ignored () =
  (* Emulates a history-dependent metric cache: the cache-served rerun
     returns bounds nudged off the cold run's. *)
  let taint b =
    { b with Metric.H_metric.lb = b.Metric.H_metric.lb +. 0.125 }
  in
  snd (Alloc_check.analyze ~taint ~seed:11 (alloc_graph ()) [ sec3 ])

(* ---- suite ------------------------------------------------------- *)

type t = {
  name : string;
  expected_rule : string;
  description : string;
  run : unit -> Diagnostic.t list;
}

let all =
  [
    {
      name = "topo-self-loop";
      expected_rule = "topo/self-loop";
      description = "an AS peers with itself";
      run = self_loop;
    };
    {
      name = "topo-duplicate-edge";
      expected_rule = "topo/duplicate-edge";
      description = "one neighbor table lists the same edge twice";
      run = duplicate_edge;
    };
    {
      name = "topo-asymmetric";
      expected_rule = "topo/asymmetric";
      description = "customer link without the matching provider entry";
      run = asymmetric;
    };
    {
      name = "topo-relationship-conflict";
      expected_rule = "topo/relationship-conflict";
      description = "one AS pair declared both c2p and p2p";
      run = relationship_conflict;
    };
    {
      name = "topo-cp-cycle";
      expected_rule = "topo/cp-cycle";
      description = "customer-to-provider cycle of length 3";
      run = cp_cycle;
    };
    {
      name = "topo-tier-mismatch";
      expected_rule = "topo/tier";
      description = "tier table from a different graph (stub with customers)";
      run = tier_mismatch;
    };
    {
      name = "topo-ixp-non-peer";
      expected_rule = "topo/ixp";
      description = "IXP augmentation adds a customer-provider edge";
      run = ixp_non_peer;
    };
    {
      name = "route-tiebreak-flip";
      expected_rule = "route/tiebreak";
      description = "representative next hop is not the lowest equal-best";
      run = tiebreak_flip;
    };
    {
      name = "route-export-leak";
      expected_rule = "route/export";
      description = "a peer route leaked to a peer and selected";
      run = export_leak;
    };
    {
      name = "route-suboptimal";
      expected_rule = "route/suboptimal";
      description = "peer route chosen while a customer route exists";
      run = suboptimal;
    };
    {
      name = "route-secure-outside-s";
      expected_rule = "route/secure";
      description = "secure flag on an AS outside the deployment";
      run = secure_outside_s;
    };
    {
      name = "thm-sec1-downgrade";
      expected_rule = "thm/sec1-downgrade";
      description = "security-3rd outcomes violate the Theorem 3.1 check";
      run = sec1_downgrade;
    };
    {
      name = "thm-sec3-nonmonotone";
      expected_rule = "thm/sec3-monotone";
      description = "security-1st outcomes violate the Theorem 6.1 check";
      run = sec3_nonmonotone;
    };
    {
      name = "batch-tie-drop";
      expected_rule = "kernel/batch-divergence";
      description = "a batch lane loses the to-d flag on an equal-rank merge";
      run = batch_tie_drop;
    };
    {
      name = "batch-stale-lane";
      expected_rule = "kernel/batch-divergence";
      description = "every later lane decodes to lane 0's routing tree";
      run = batch_stale_lane;
    };
    {
      name = "det-stale-workspace";
      expected_rule = "det/divergence";
      description = "every third workspace reuse returns a stale outcome";
      run = stale_workspace;
    };
    {
      name = "opt-stale-gain-trusted";
      expected_rule = "opt/divergence";
      description =
        "CELF selects a stale queue top without re-scoring it; on the \
         set-cover gadget the stale gain outranks the true best pick";
      run =
        (fun () ->
          snd (Opt_check.gadget ~fault:Optimize.Max_k.Trust_stale_gains ()));
    };
    {
      name = "opt-queue-priority-flip";
      expected_rule = "opt/divergence";
      description =
        "the CELF priority queue pops the smallest gain first, flipping \
         even the opening pick";
      run =
        (fun () ->
          snd (Opt_check.gadget ~fault:Optimize.Max_k.Flip_queue_priority ()));
    };
    {
      name = "alloc-site-dropped";
      expected_rule = "alloc/minor-budget";
      description =
        "every measured batch solve allocates ~1k minor words on the \
         side, emulating a regression the static A9 walk cannot see";
      run = alloc_site_dropped;
    };
    {
      name = "purity-taint-ignored";
      expected_rule = "alloc/cache-consistency";
      description =
        "the cache-served H rerun returns bounds nudged off the cold \
         run, emulating a history-dependent metric cache";
      run = purity_taint_ignored;
    };
  ]

let report () =
  let diags =
    List.concat_map
      (fun m ->
        if D.has_rule (m.run ()) m.expected_rule then []
        else
          [
            D.error ~rule:"check/false-negative"
              (Printf.sprintf
                 "mutant %s (%s) was not flagged with %s" m.name
                 m.description m.expected_rule);
          ])
      all
  in
  D.add_pass D.empty_report "mutants" ~items:(List.length all) diags
