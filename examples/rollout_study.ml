(* A deployment study an operator could run: compare candidate S*BGP
   rollouts on a topology (synthetic here; load your own CAIDA-style
   file with Serial.load_remapped, the CLI's loader) and decide
   whether the juice is worth the squeeze.

   Run with:  dune exec examples/rollout_study.exe *)

open Core

let () =
  let result =
    Topogen.generate ~params:(Topogen.default_params ~n:2500) (Rng.create 3)
  in
  let g = result.Topogen.graph in
  let tiers = Topogen.tiers result in
  let n = Graph.n g in
  Printf.printf "topology: %d ASes\n\n" n;

  (* Candidate rollouts (Section 5). *)
  let scenarios =
    [
      ("Tier 1s + their stubs", Deployment.tier1_and_stubs g tiers);
      ( "Tier 1s + CPs + stubs",
        Deployment.tier1_and_stubs ~with_cps:true g tiers );
      ("13 largest Tier 2s + stubs", Deployment.tier2_only g tiers ~n_t2:13);
      ("all Tier 2s + stubs", Deployment.tier2_only g tiers ~n_t2:100);
      ( "T1s + T2s + stubs",
        Deployment.tier1_tier2 g tiers ~n_t1:13 ~n_t2:100 );
      ("all non-stubs", Deployment.non_stubs g tiers);
      ( "T1+T2+stubs, stubs simplex",
        Deployment.tier1_tier2 ~stub_mode:Deployment.Simplex g tiers ~n_t1:13
          ~n_t2:100 );
    ]
  in

  (* Sampled attacker-destination pairs (non-stub attackers, Section 5). *)
  let rng = Rng.create 99 in
  let attackers =
    let pool = Tiers.non_stubs tiers in
    Array.map (fun i -> pool.(i))
      (Rng.sample_without_replacement rng 25 (Array.length pool))
  in
  let dsts = Rng.sample_without_replacement rng 40 n in
  let pairs = Metric.pairs ~attackers ~dsts () in

  let table =
    Table.create
      ~header:[ "rollout"; "secure ASes"; "sec 1st"; "sec 2nd"; "sec 3rd" ]
  in
  let baseline policy = Metric.h_metric g policy (Deployment.empty n) pairs in
  List.iter
    (fun (label, dep) ->
      let cells =
        List.map
          (fun model ->
            let policy = Policy.make model in
            let b = baseline policy in
            let w = Metric.h_metric g policy dep pairs in
            Printf.sprintf "%+.1f%%" (100. *. (w.Metric.lb -. b.Metric.lb)))
          [ Policy.Security_first; Policy.Security_second; Policy.Security_third ]
      in
      Table.add_row table
        ([ label; string_of_int (Deployment.count_secure dep) ] @ cells))
    scenarios;
  Table.print table;
  print_endline
    "\n(improvement in the happy-source fraction over origin authentication\n\
     alone, lower bounds; compare rows to pick early adopters — as in the\n\
     paper, Tier 2s beat Tier 1s unless security is ranked 1st)"
