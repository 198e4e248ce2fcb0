(* The paper's running examples, reproduced on their exact (anonymized)
   mini-topologies: the S*BGP Wedgie (Figure 1), the protocol downgrade
   attack (Figure 2), collateral damage and benefit (Figures 14, 15) and
   export-policy collateral damage under security 1st (Figure 17). *)

let name = "anecdotes"
let title = "Figures 1, 2, 14, 15, 17: the paper's running examples"
let paper = "Figures 1, 2, 14, 15, 17"

let c2p a b = Topology.Graph.Customer_provider (a, b)
let p2p a b = Topology.Graph.Peer_peer (a, b)
let sec1 = Context.sec1
let sec2 = Context.sec2
let sec3 = Context.sec3

(* The Section-6 classification of one pair under one policy. *)
let phenomena g policy dep ~attacker ~dst =
  List.hd
    (Metric.Phenomena.sum g [ policy ] dep [| { Metric.H_metric.attacker; dst } |])

let path_str out v =
  match Routing.Outcome.path out v with
  | [] -> "(no route)"
  | p -> String.concat " -> " (List.map string_of_int p)

let figure2 () =
  let buf = Buffer.create 512 in
  (* ids: Level3 dst=0, webhost 21740=1, Cogent 174=2, 3491=3, m=4,
     stub 3536=5. *)
  let g =
    Topology.Graph.of_edges ~n:6
      [ c2p 1 0; p2p 1 2; p2p 2 0; c2p 3 2; c2p 4 3; c2p 5 0 ]
  in
  let dep = Deployment.make ~n:6 ~full:[| 0; 1; 5 |] () in
  Buffer.add_string buf
    "Figure 2 - protocol downgrade against a Tier 1 destination\n\
     (0=Level3/dst, 1=webhost 21740, 2=Cogent, 3=AS3491, 4=attacker, 5=stub)\n";
  let normal = Routing.Engine.compute g sec2 dep ~dst:0 ~attacker:None in
  Buffer.add_string buf
    (Printf.sprintf "  normal: webhost path %s (secure=%b)\n"
       (path_str normal 1) (Routing.Outcome.secure normal 1));
  List.iter
    (fun (label, policy) ->
      let attack = Routing.Engine.compute g policy dep ~dst:0 ~attacker:(Some 4) in
      Buffer.add_string buf
        (Printf.sprintf "  under attack, %s: webhost path %s (secure=%b, %s)\n"
           label (path_str attack 1)
           (Routing.Outcome.secure attack 1)
           (if Routing.Outcome.happy_lb attack 1 then "happy"
            else "DOWNGRADED to the bogus route")))
    [ ("security 1st", sec1); ("security 2nd", sec2); ("security 3rd", sec3) ];
  Buffer.contents buf

let figure1 () =
  let buf = Buffer.create 512 in
  (* ids: AS3 dst=0, 8928=1, 34226=2, 31283=3, 29518=4, 31027=5. *)
  let g =
    Topology.Graph.of_edges ~n:6
      [ c2p 0 5; c2p 0 1; c2p 1 2; c2p 2 3; c2p 3 4; c2p 4 5 ]
  in
  let dep = Deployment.make ~n:6 ~full:[| 0; 2; 3; 4; 5 |] () in
  let policy_of v = if v = 3 then sec1 else sec3 in
  let sim = Bgpsim.create ~policy_of g sec3 dep ~dst:0 () in
  Buffer.add_string buf
    "Figure 1 - S*BGP Wedgie under inconsistent security placement\n\
     (0=dst AS3, 3=AS31283 ranks security 1st, 4=AS29518 ranks it 3rd)\n";
  Bgpsim.set_link sim 2 3 ~up:false;
  ignore (Bgpsim.run sim);
  Bgpsim.set_link sim 2 3 ~up:true;
  ignore (Bgpsim.run sim);
  let show label =
    Buffer.add_string buf
      (Printf.sprintf "  %s: AS31283 path %s, AS29518 path %s\n" label
         (match Bgpsim.chosen_path sim 3 with
         | Some p -> String.concat " -> " (List.map string_of_int p)
         | None -> "(none)")
         (match Bgpsim.chosen_path sim 4 with
         | Some p -> String.concat " -> " (List.map string_of_int p)
         | None -> "(none)"))
  in
  show "intended state";
  Bgpsim.set_link sim 5 0 ~up:false;
  ignore (Bgpsim.run sim);
  show "after link 31027-AS3 fails";
  Bgpsim.set_link sim 5 0 ~up:true;
  ignore (Bgpsim.run sim);
  show "after the link recovers (wedged!)";
  Buffer.contents buf

let figure14 () =
  let buf = Buffer.create 512 in
  (* Collateral damage mechanism under security 2nd; strictly-happy
     baseline (see examples/collateral.ml for the construction). *)
  let g =
    Topology.Graph.of_edges ~n:10
      [
        c2p 0 1; c2p 1 2; c2p 0 3; c2p 3 4; c2p 4 5; c2p 5 2;
        c2p 6 2; c2p 6 7; c2p 8 7; c2p 9 8;
      ]
  in
  let s = Deployment.make ~n:10 ~full:[| 0; 2; 3; 4; 5 |] () in
  Buffer.add_string buf
    "Figure 14 - collateral damage under security 2nd\n\
     (0=dst, 2=secure ISP, 6=insecure victim, 9=attacker)\n";
  let base =
    Routing.Engine.compute g sec2 (Deployment.empty 10) ~dst:0 ~attacker:(Some 9)
  in
  let dep = Routing.Engine.compute g sec2 s ~dst:0 ~attacker:(Some 9) in
  Buffer.add_string buf
    (Printf.sprintf
       "  before S*BGP: ISP 2 uses %s; victim 6 happy: %b\n"
       (path_str base 2) (Routing.Outcome.happy_lb base 6));
  Buffer.add_string buf
    (Printf.sprintf
       "  after S*BGP:  ISP 2 prefers the longer secure %s; victim 6 happy: %b (collateral damage)\n"
       (path_str dep 2) (Routing.Outcome.happy_lb dep 6));
  let col3 = phenomena g sec3 s ~attacker:9 ~dst:0 in
  Buffer.add_string buf
    (Printf.sprintf
       "  same scenario under security 3rd: %d damages (Theorem 6.1)\n"
       col3.damage);
  Buffer.contents buf

let figure15 () =
  let buf = Buffer.create 512 in
  let g =
    Topology.Graph.of_edges ~n:5 [ c2p 0 2; p2p 1 2; p2p 1 3; c2p 4 1 ]
  in
  let s = Deployment.make ~n:5 ~full:[| 0; 1; 2 |] () in
  Buffer.add_string buf
    "Figure 15 - collateral benefit under security 3rd\n\
     (0=dst Pandora, 1=AS3267, 3=attacker, 4=insecure customer AS34223)\n";
  let col = phenomena g sec3 s ~attacker:3 ~dst:0 in
  Buffer.add_string buf
    (Printf.sprintf
       "  AS3267 ties between two equal peer routes; securing breaks the tie toward the destination.\n\
       \  collateral benefits: %d, damages: %d (Theorem 6.1: none possible)\n"
       col.benefit col.damage);
  Buffer.contents buf

let figure17 () =
  let buf = Buffer.create 512 in
  let g =
    Topology.Graph.of_edges ~n:8
      [ c2p 7 1; c2p 0 7; p2p 1 2; c2p 1 3; c2p 2 5; c2p 4 5; c2p 6 3; c2p 0 6 ]
  in
  let s = Deployment.make ~n:8 ~full:[| 0; 1; 3; 6 |] () in
  Buffer.add_string buf
    "Figure 17 - collateral damage under security 1st via export policy\n\
     (0=dst, 1=Optus, 2=Orange, 4=attacker)\n";
  let base =
    Routing.Engine.compute g sec1 (Deployment.empty 8) ~dst:0 ~attacker:(Some 4)
  in
  let dep = Routing.Engine.compute g sec1 s ~dst:0 ~attacker:(Some 4) in
  Buffer.add_string buf
    (Printf.sprintf "  before: Optus uses %s; Orange happy: %b\n"
       (path_str base 1) (Routing.Outcome.happy_lb base 2));
  Buffer.add_string buf
    (Printf.sprintf
       "  after:  Optus switches to the secure provider route %s; Ex silences the peer link; Orange happy: %b\n"
       (path_str dep 1) (Routing.Outcome.happy_lb dep 2));
  Buffer.contents buf

let run (_ctx : Context.t) =
  Util.header title paper
  ^ String.concat "\n" [ figure1 (); figure2 (); figure14 (); figure15 (); figure17 () ]
