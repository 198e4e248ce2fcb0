(* Command-line interface to the reproduction: generate/save topologies
   and run any of the paper's experiments at any scale. *)

open Cmdliner

let n_arg =
  let doc = "Number of ASes in the synthetic topology." in
  Arg.(value & opt int 4000 & info [ "n"; "size" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Seed for topology generation and sampling." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let ixp_arg =
  let doc =
    "Use the IXP-augmented graph (extra synthetic peering edges, \
     Appendix J)."
  in
  Arg.(value & flag & info [ "ixp" ] ~doc)

let scale_arg =
  let doc =
    "Multiply every sample size (attackers, destinations) by this factor; \
     larger is slower and closer to the paper's exhaustive averages."
  in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc)

let domains_arg =
  let doc =
    "Number of worker domains for parallel experiment evaluation \
     (default: the SBGP_DOMAINS environment variable, else the number of \
     cores).  Results are identical for every value."
  in
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some d when d >= 1 -> Ok d
      | Some _ -> Error (`Msg "must be >= 1")
      | None -> Error (`Msg "expected an integer")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value & opt (some positive) None & info [ "domains"; "j" ] ~docv:"D" ~doc)

let graph_arg =
  let doc =
    "Load the AS graph from this file instead of generating one (see `sbgp \
     gen`): either a CAIDA-style relationship file or a binary snapshot \
     (`sbgp gen --snapshot`), detected by content.  Content providers \
     default to the 17 highest-peering-degree non-T1 ASes."
  in
  Arg.(value & opt (some string) None & info [ "graph" ] ~docv:"FILE" ~doc)

(* Sniff the file format: binary snapshots start with the 8-byte magic,
   relationship files are plain text. *)
let is_snapshot path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let m = String.length Core.Serial.snapshot_magic in
      in_channel_length ic >= m
      &&
      let b = really_input_string ic m in
      String.equal b Core.Serial.snapshot_magic)

let load_graph path =
  if is_snapshot path then Core.Serial.load_snapshot path
  else
    (* Real CAIDA relationship files use sparse AS numbers; remap them
       onto dense ids. *)
    fst (Core.Serial.load_remapped path)

let context n seed ixp scale domains graph_file =
  match graph_file with
  | None -> Core.Experiments.Context.make ~n ~seed ~ixp ~scale ?domains ()
  | Some path ->
      (* Malformed, truncated or unreadable input is a usage error: one
         line naming the defect, exit 2 (as for a bad SBGP_CHECK). *)
      let g =
        try load_graph path
        with Failure msg | Sys_error msg ->
          prerr_endline ("sbgp: " ^ msg);
          exit 2
      in
      let g =
        if ixp then fst (Core.Ixp.augment (Core.Rng.create (seed + 1)) g)
        else g
      in
      (* Pick CPs: top peering-degree ASes with providers. *)
      let candidates =
        List.init (Core.Graph.n g) Fun.id
        |> List.filter (fun v -> Array.length (Core.Graph.providers g v) > 0)
        |> List.sort (fun a b ->
               compare (Core.Graph.peer_degree g b) (Core.Graph.peer_degree g a))
      in
      let cps = Array.of_list (List.filteri (fun i _ -> i < 17) candidates) in
      Core.Experiments.Context.of_graph ~seed ~scale ?domains
        ~label:(Filename.basename path) g ~cps

let gen_cmd =
  let out =
    Arg.(
      value
      & opt string "as-graph.txt"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let snapshot =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Also write the graph as a binary snapshot (versioned, \
             digest-protected, mmap-loadable in milliseconds; see `sbgp run \
             --graph`).")
  in
  let run n seed ixp out snapshot =
    let r =
      Core.Topogen.generate
        ~params:(Core.Topogen.default_params ~n)
        (Core.Rng.create seed)
    in
    let g, added =
      if ixp then Core.Ixp.augment (Core.Rng.create (seed + 1)) r.Core.Topogen.graph
      else (r.Core.Topogen.graph, 0)
    in
    Core.Serial.save out g;
    (match snapshot with
    | None -> ()
    | Some path ->
        Core.Serial.save_snapshot path g;
        Printf.printf "wrote snapshot %s\n" path);
    let tiers = Core.Tiers.classify ~cps:(Array.to_list r.Core.Topogen.cps) g in
    Printf.printf "wrote %s\n%s" out (Core.Tiers.summary g tiers);
    if ixp then Printf.printf "IXP augmentation added %d peer edges\n" added;
    Printf.printf "designated CPs: %s\n"
      (String.concat ", "
         (Array.to_list (Array.map string_of_int r.Core.Topogen.cps)))
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic AS topology and save it.")
    Term.(const run $ n_arg $ seed_arg $ ixp_arg $ out $ snapshot)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-16s %s (%s)\n" e.Core.Experiments.Registry.id
          e.Core.Experiments.Registry.title e.Core.Experiments.Registry.paper)
      Core.Experiments.Registry.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List available experiments.")
    Term.(const run $ const ())

let run_experiment ?out_dir ctx entry =
  let t0 = Unix.gettimeofday () in
  let output = entry.Core.Experiments.Registry.run ctx in
  (match out_dir with
  | None -> print_string output
  | Some dir ->
      let path =
        Filename.concat dir (entry.Core.Experiments.Registry.id ^ ".txt")
      in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc output);
      Printf.printf "wrote %s\n%!" path);
  Printf.printf "[%s completed in %.1fs]\n\n%!"
    entry.Core.Experiments.Registry.id
    (Unix.gettimeofday () -. t0)

let exp_cmd =
  let which =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiment ids to run (default: all; see `sbgp list`).")
  in
  let out_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Write each experiment's output to DIR/<id>.txt instead of stdout.")
  in
  let check_flag =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Self-audit the context with the invariant checker (see `sbgp \
             check`) before running anything, and abort on errors.  Also \
             enabled by SBGP_CHECK=1 in the environment.")
  in
  let run n seed ixp scale domains graph_file out_dir check which =
    let check =
      match Core.Check.enabled () with
      | env -> check || env
      | exception Invalid_argument msg ->
          prerr_endline ("sbgp: " ^ msg);
          exit 2
    in
    (match out_dir with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | _ -> ());
    let ctx = context n seed ixp scale domains graph_file in
    Printf.printf "context: %s\n\n%!" (Core.Experiments.Context.describe ctx);
    if check then begin
      let report = Core.Experiments.Context.self_audit ctx in
      print_string (Core.Check.Diagnostic.summary report);
      print_newline ();
      if not (Core.Check.Diagnostic.ok report) then begin
        prerr_endline "sbgp: self-audit found errors; aborting run";
        exit 1
      end
    end;
    let entries =
      match which with
      | [] -> Core.Experiments.Registry.all
      | ids ->
          List.map
            (fun id ->
              match Core.Experiments.Registry.find id with
              | Some e -> e
              | None ->
                  prerr_endline
                    ("unknown experiment: " ^ id ^ " (see `sbgp list`)");
                  exit 2)
            ids
    in
    List.iter (run_experiment ?out_dir ctx) entries
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run one or more experiments (all of them by default).")
    Term.(
      const run $ n_arg $ seed_arg $ ixp_arg $ scale_arg $ domains_arg
      $ graph_arg $ out_dir $ check_flag $ which)

(* `sbgp check` runs one pass: the checker passes together by default,
   or the one its flag names. *)
type checks = All | Incremental | Kernel | Optimize | Topology | Alloc
type pass = Rules | Static | Checks of checks

let check_cmd =
  let pairs_arg =
    Arg.(
      value
      & opt int Core.Check.default_options.Core.Check.pairs
      & info [ "pairs" ] ~docv:"K"
          ~doc:
            "Number of sampled (destination, attacker) pairs for the \
             routing-state verifier (scaled by --scale).")
  in
  let det_pairs_arg =
    Arg.(
      value
      & opt int Core.Check.default_options.Core.Check.det_pairs
      & info [ "det-pairs" ] ~docv:"K"
          ~doc:
            "Number of pairs replayed by the parallel-determinism \
             analyzer (scaled by --scale).")
  in
  let claim_arg =
    Arg.(
      value
      & opt int Core.Check.default_options.Core.Check.attacker_claim
      & info [ "claim" ] ~docv:"L"
          ~doc:"Length of the attacker's bogus path announcement.")
  in
  let mutants_arg =
    Arg.(
      value & flag
      & info [ "mutants" ]
          ~doc:
            "Also run the mutant suite: deliberately broken inputs the \
             checker must flag (guards against false negatives).")
  in
  let inc_pairs_arg =
    Arg.(
      value
      & opt int Core.Check.default_options.Core.Check.inc_pairs
      & info [ "inc-pairs" ] ~docv:"K"
          ~doc:
            "Number of pairs compared by the incremental-evaluation pass \
             (scaled by --scale).")
  in
  let pass_arg =
    let pass v name doc = (v, Arg.info [ name ] ~doc) in
    Arg.(
      value
      & vflag (Checks All)
          [
            pass Rules "rules"
              "List every diagnostic rule id with a description and exit.";
            pass Static "static"
              "Run only the typed-AST static analysis (rules ast/*): scan \
               the .cmt artifacts of lib/ and bin/ for polymorphic/float \
               comparison in hot paths, determinism taint, unsafe array \
               access, exception swallowing, and the domain-safety rules \
               (mutable state escaping into parallel closures, \
               lock-discipline violations, workspaces crossing a parallel \
               boundary), honoring tools/astlint/allowlist.txt.  Requires \
               a prior dune build (set SBGP_CMT_ROOT to point at the build \
               root explicitly).";
            pass (Checks Incremental) "incremental"
              "Run only the incremental pass: evaluation along a seeded \
               rollout chain must be bit-identical to from-scratch \
               computation at every step (uses the context's worker pool).";
            pass (Checks Kernel) "kernel"
              "Run only the kernel pass: the packed CSR engine and the \
               destination-major batched kernel are replayed against the \
               reference kernel and must be bit-identical (the batched \
               sub-pass decodes every lane of sampled attacker words and \
               pinpoints the first divergent destination/word/bit).";
            pass (Checks Optimize) "optimize"
              "Run only the optimize pass: the CELF lazy greedy of the \
               Max-k optimizer is replayed against the naive full-re-eval \
               greedy on the Appendix-I set-cover gadget and seeded \
               instances over the context graph, demanding the \
               bit-identical pick sequence and H bounds (H is not proven \
               submodular, so laziness is gated, not assumed).";
            pass (Checks Topology) "topology"
              "Run only the topology pass: the off-heap CSR is compared \
               against the adjacency-table view, binary snapshots must \
               round-trip bit-identically (and reject a corrupted payload), \
               and topology-delta replay must be bit-identical to \
               from-scratch computation along a seeded delta chain.";
            pass (Checks Alloc) "alloc"
              "Run only the allocation gate: minor words per (destination, \
               attacker) pair of the scalar, batched and reference kernels \
               with reused workspaces, measured against recorded budgets; \
               every measured loop is identity-gated and a cold-vs-warm \
               probe of the metric cache demands bit-identical H.  Runs \
               single-domain — the dynamic complement of the static \
               ast/hot-alloc and ast/cache-pure rules.";
          ])
  in
  let run_static () =
    match Core.Analysis.Cmt_loader.locate_build_root () with
    | None ->
        prerr_endline
          "check --static: no build root with .cmt artifacts found; run \
           `dune build @check` first (or set SBGP_CMT_ROOT)";
        exit 2
    | Some root ->
        let manifest name =
          List.find_opt Sys.file_exists
            [ Filename.concat root name; name ]
        in
        let allowlist_file = manifest "tools/astlint/allowlist.txt" in
        let budget_file = manifest "tools/astlint/alloc_budget.txt" in
        let outcome =
          Core.Analysis.analyze ?allowlist_file ?budget_file ~root
            ~dirs:Core.Analysis.default_dirs ()
        in
        print_string
          (Core.Check.Diagnostic.summary outcome.Core.Analysis.report);
        if not (Core.Check.Diagnostic.ok outcome.Core.Analysis.report) then
          exit 1
  in
  let run n seed ixp scale domains graph_file pairs det_pairs claim mutants
      inc_pairs pass =
    match pass with
    | (Rules | Static) when mutants ->
        prerr_endline
          "sbgp: --mutants cannot be combined with --rules or --static";
        exit 2
    | Rules ->
        List.iter
          (fun (id, doc) -> Printf.printf "%-26s %s\n" id doc)
          Core.Check.Diagnostic.catalogue
    | Static -> run_static ()
    | Checks checks ->
        let ctx = context n seed ixp scale domains graph_file in
        Printf.printf "context: %s\n%!" (Core.Experiments.Context.describe ctx);
        let scaled = Core.Experiments.Context.scaled ctx in
        let options =
          {
            Core.Check.default_options with
            Core.Check.seed;
            pairs = scaled pairs;
            det_pairs = scaled det_pairs;
            inc_pairs = scaled inc_pairs;
            attacker_claim = claim;
          }
        in
        let g = ctx.Core.Experiments.Context.graph in
        (* Only the passes that fan out force the context's pool: the
           allocation gate wants a process whose minor heap no worker
           domain has shared. *)
        let pool () = Core.Experiments.Context.pool ctx in
        let report =
          match checks with
          | Incremental -> Core.Check.run_incremental ~options ~pool:(pool ()) g
          | Kernel -> Core.Check.run_kernel ~options g
          | Optimize -> Core.Check.run_optimize ~options ~pool:(pool ()) g
          | Topology -> Core.Check.run_topology ~options g
          | Alloc -> Core.Check.run_alloc ~options g
          | All ->
              (* With --ixp on a generated graph, the pre-augmentation
                 base is reproducible from the seed; hand it to the lint
                 pass so the augmentation itself is checked too. *)
              let base =
                if ixp && graph_file = None then
                  Some
                    (Core.Topogen.generate
                       ~params:(Core.Topogen.default_params ~n)
                       (Core.Rng.create seed))
                      .Core.Topogen.graph
                else None
              in
              Core.Check.run ~options
                ~tiers:ctx.Core.Experiments.Context.tiers ?base g
        in
        let report =
          if mutants then
            Core.Check.Diagnostic.merge report (Core.Check.Mutants.report ())
          else report
        in
        print_string (Core.Check.Diagnostic.summary report);
        if not (Core.Check.Diagnostic.ok report) then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Check the topology, routing invariants and parallel determinism \
          (structured diagnostics; exit 1 on errors).")
    Term.(
      const run $ n_arg $ seed_arg $ ixp_arg $ scale_arg $ domains_arg
      $ graph_arg $ pairs_arg $ det_pairs_arg $ claim_arg $ mutants_arg
      $ inc_pairs_arg $ pass_arg)

let info_cmd =
  let run n seed ixp scale domains graph_file =
    let ctx = context n seed ixp scale domains graph_file in
    print_string (Core.Experiments.Context.describe ctx);
    print_newline ();
    print_string (Core.Tiers.summary ctx.Core.Experiments.Context.graph
                    ctx.Core.Experiments.Context.tiers)
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Describe the experiment context (graph, tiers).")
    Term.(
      const run $ n_arg $ seed_arg $ ixp_arg $ scale_arg $ domains_arg
      $ graph_arg)

let main =
  Cmd.group
    (Cmd.info "sbgp" ~version:"1.0.0"
       ~doc:
         "Reproduction of 'BGP Security in Partial Deployment: Is the \
          Juice Worth the Squeeze?' (SIGCOMM 2013).")
    [ gen_cmd; list_cmd; exp_cmd; check_cmd; info_cmd ]

let () = exit (Cmd.eval main)
