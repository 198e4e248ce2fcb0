module Diagnostic = Diagnostic
module Lint = Lint
module Verify = Verify
module Kernel = Kernel
module Determinism = Determinism
module Incremental = Incremental
module Optimize = Opt_check
module Topo = Topo_check
module Alloc = Alloc_check
module Mutants = Mutants
module D = Diagnostic
module G = Topology.Graph
module P = Routing.Policy
module E = Routing.Engine

let sec1 = P.make P.Security_first
let sec3 = P.make P.Security_third

type options = {
  pairs : int;
  det_pairs : int;
  inc_pairs : int;
  policies : P.t list;
  attacker_claim : int;
  seed : int;
}

let default_options =
  {
    pairs = 12;
    det_pairs = 6;
    inc_pairs = 6;
    policies =
      [ sec1; P.make P.Security_second; sec3 ];
    attacker_claim = 1;
    seed = 42;
  }

let enabled () =
  match Sys.getenv_opt "SBGP_CHECK" with
  | Some ("1" | "true" | "yes") -> true
  | Some ("0" | "false" | "no") | None -> false
  | Some v ->
      invalid_arg
        (Printf.sprintf
           "SBGP_CHECK must be 1|true|yes or 0|false|no, got %S" v)

(* Deterministic mixed deployments exercising every mode; the sparse one
   is a pointwise subset of the mixed one, as the monotonicity theorem
   requires. *)
let dep_sparse n =
  Deployment.of_modes
    (Array.init n (fun v ->
         if v mod 5 = 0 then Deployment.Full else Deployment.Off))

let dep_mixed n =
  Deployment.of_modes
    (Array.init n (fun v ->
         match v mod 5 with
         | 0 | 1 -> Deployment.Full
         | 2 -> Deployment.Simplex
         | _ -> Deployment.Off))

(* Mix attacked and attacker-free pairs; a collision falls back to
   attacker-free rather than resampling, keeping the draw count fixed. *)
let sample_pairs rng n k =
  Array.init k (fun i ->
      let dst = Rng.int rng n in
      if i mod 3 = 2 || n < 2 then (dst, None)
      else
        let m = Rng.int rng n in
        if m = dst then (dst, None) else (dst, Some m))

let verify_pass options ?deployments g =
  let n = G.n g in
  let rng = Rng.create options.seed in
  let deps =
    match deployments with
    | Some l -> l
    | None -> [ Deployment.empty n; dep_mixed n ]
  in
  let pairs = sample_pairs rng n options.pairs in
  let items = ref 0 in
  let diags = ref [] in
  List.iter
    (fun policy ->
      List.iter
        (fun dep ->
          Array.iter
            (fun (dst, attacker) ->
              List.iter
                (fun tiebreak ->
                  let out =
                    E.compute ~tiebreak ~attacker_claim:options.attacker_claim
                      g policy dep ~dst ~attacker
                  in
                  incr items;
                  diags :=
                    !diags
                    @ Verify.outcome ~tiebreak
                        ~attacker_claim:options.attacker_claim g policy dep
                        out)
                [ E.Bounds; E.Lowest_next_hop ])
            pairs)
        deps)
    options.policies;
  (!items, !diags)

let theorem_pass options g =
  let n = G.n g in
  let rng = Rng.create (options.seed + 1) in
  let sub_dep = dep_sparse n in
  let super_dep = dep_mixed n in
  let k = max 1 (options.pairs / 2) in
  let items = ref 0 in
  let diags = ref [] in
  if n >= 2 then
    for _ = 1 to k do
      let dst = Rng.int rng n in
      let m = (dst + 1 + Rng.int rng (n - 1)) mod n in
      (* Theorem 3.1: security 1st never downgrades. *)
      let normal = E.compute g sec1 super_dep ~dst ~attacker:None in
      let attacked =
        E.compute ~attacker_claim:options.attacker_claim g sec1 super_dep
          ~dst ~attacker:(Some m)
      in
      diags := !diags @ Verify.no_downgrade_sec1 ~normal ~attacked;
      (* Theorem 6.1: security 3rd is monotone in the deployment. *)
      let sub =
        E.compute ~attacker_claim:options.attacker_claim g sec3 sub_dep ~dst
          ~attacker:(Some m)
      in
      let super =
        E.compute ~attacker_claim:options.attacker_claim g sec3 super_dep
          ~dst ~attacker:(Some m)
      in
      diags := !diags @ Verify.sec3_monotone ~sub ~super;
      items := !items + 2
    done;
  (!items, !diags)

(* (dst, attacker-set) configurations spanning the lane-count spectrum:
   a single lane, a partial word and a full word (capped by the graph),
   duplicates allowed — the batched kernel must decode lanes sharing an
   attacker independently. *)
let sample_batches rng n =
  if n < 2 then [||]
  else
    Array.of_list
      (List.map
         (fun lanes ->
           let lanes = min lanes (n - 1) in
           let dst = Rng.int rng n in
           let attackers =
             Array.init lanes (fun _ ->
                 let m = Rng.int rng (n - 1) in
                 if m >= dst then m + 1 else m)
           in
           (dst, attackers))
         [ 1; 7; 63 ])

let kernel_pass options g =
  let n = G.n g in
  let rng = Rng.create (options.seed + 4) in
  let pairs = sample_pairs rng n (max 1 (options.pairs / 2)) in
  let items, diags =
    Kernel.analyze ~attacker_claim:options.attacker_claim g options.policies
      (dep_mixed n) pairs
  in
  let batches = sample_batches rng n in
  let bitems, bdiags =
    Kernel.analyze_batch ~attacker_claim:options.attacker_claim g
      options.policies (dep_mixed n) batches
  in
  (* The partition sample: the attacked pairs, then every lane of the
     batches — a full word of one destination after pairs that mix
     destinations, with repeats. *)
  let pair dst m = { Metric.H_metric.attacker = m; dst } in
  let ppairs =
    Array.of_list
      (List.filter_map
         (fun (dst, attacker) -> Option.map (pair dst) attacker)
         (Array.to_list pairs)
      @ List.concat_map
          (fun (dst, attackers) -> List.map (pair dst) (Array.to_list attackers))
          (Array.to_list batches))
  in
  let pitems, pdiags = Kernel.analyze_partitions g ppairs in
  (items + bitems + pitems, diags @ bdiags @ pdiags)

let run_kernel ?(options = default_options) g =
  let items, diags = kernel_pass options g in
  D.add_pass D.empty_report "kernel" ~items diags

let determinism_pass options g =
  let n = G.n g in
  let rng = Rng.create (options.seed + 2) in
  let pairs = sample_pairs rng n options.det_pairs in
  let configs = Determinism.default_configs () in
  let diags =
    Determinism.analyze ~attacker_claim:options.attacker_claim ~configs g
      sec3 (dep_mixed n) pairs
  in
  (Array.length pairs * List.length configs, diags)

let incremental_pass options g =
  Incremental.analyze ~seed:(options.seed + 3) ~pairs:options.inc_pairs g
    options.policies

let optimize_pass ?pool options g =
  Opt_check.analyze ?pool ~seed:(options.seed + 5) g options.policies

let topology_pass options g =
  Topo_check.analyze ~seed:(options.seed + 6) ~pairs:options.inc_pairs g
    options.policies

let run ?(options = default_options) ?tiers ?base ?deployments g =
  let n = G.n g in
  let report = D.empty_report in
  let lint =
    Lint.graph ?tiers g
    @ match base with None -> [] | Some b -> Lint.ixp ~base:b ~augmented:g
  in
  let report = D.add_pass report "lint" ~items:n lint in
  if n = 0 then report
  else begin
    let vitems, vdiags = verify_pass options ?deployments g in
    let report = D.add_pass report "verify" ~items:vitems vdiags in
    let titems, tdiags = theorem_pass options g in
    let report = D.add_pass report "theorems" ~items:titems tdiags in
    let kitems, kdiags = kernel_pass options g in
    let report = D.add_pass report "kernel" ~items:kitems kdiags in
    let ditems, ddiags = determinism_pass options g in
    let report = D.add_pass report "determinism" ~items:ditems ddiags in
    let iitems, idiags = incremental_pass options g in
    let report = D.add_pass report "incremental" ~items:iitems idiags in
    let oitems, odiags = optimize_pass options g in
    let report = D.add_pass report "optimize" ~items:oitems odiags in
    let titems, tdiags = topology_pass options g in
    D.add_pass report "topology" ~items:titems tdiags
  end

let run_incremental ?(options = default_options) ?pool g =
  let items, diags =
    Incremental.analyze ?pool ~seed:(options.seed + 3)
      ~pairs:options.inc_pairs g options.policies
  in
  D.add_pass D.empty_report "incremental" ~items diags

let run_optimize ?(options = default_options) ?pool g =
  let items, diags = optimize_pass ?pool options g in
  D.add_pass D.empty_report "optimize" ~items diags

let run_topology ?(options = default_options) g =
  let items, diags = topology_pass options g in
  D.add_pass D.empty_report "topology" ~items diags

(* Not part of {!run}'s pass sequence: the allocation gate wants a
   quiet single-domain process (Gc counters are per-domain and the
   measured loops must not share minor heaps with pool workers), so it
   runs standalone behind `sbgp check --alloc` and tools/ci.sh. *)
let run_alloc ?(options = default_options) g =
  let items, diags =
    Alloc_check.analyze ~pairs:(max 4 options.pairs)
      ~seed:(options.seed + 7) g options.policies
  in
  D.add_pass D.empty_report "alloc" ~items diags
