(* The typed-AST analyzer (lib/analysis + sbgp-astlint).

   Three layers: the deliberately-bad fixture corpus must match its
   golden diagnostic list exactly (so a rule cannot silently widen or
   narrow); the per-rule false-negative guard must hold (every seeded
   defect caught, the clean control silent); and the production tree
   itself must be clean under the checked-in allowlist — the same gate
   `dune build @lint` enforces.  Plus unit tests for the symbol
   canonicalizer and the allowlist parser, which the rules lean on. *)

module A = Core.Analysis
module D = Core.Check.Diagnostic

let root =
  match A.Cmt_loader.locate_build_root () with
  | Some r -> r
  | None -> Alcotest.fail "no build root with .cmt artifacts found"

let fixture_outcome =
  lazy (A.analyze ~config:A.fixture_config ~root ~dirs:[ A.fixture_dir ] ())

(* ---- golden corpus ------------------------------------------------ *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let test_golden () =
  let outcome = Lazy.force fixture_outcome in
  let actual = List.map D.to_string outcome.A.report.D.diags in
  let expected =
    read_lines (Filename.concat root "test/fixtures/astlint/expected.txt")
  in
  if actual <> expected then begin
    Printf.eprintf "--- actual fixture diagnostics ---\n";
    List.iter (fun l -> Printf.eprintf "%s\n" l) actual;
    Printf.eprintf "--- end ---\n%!";
    Alcotest.failf "fixture diagnostics diverge from expected.txt (%d vs %d)"
      (List.length actual) (List.length expected)
  end

(* ---- false-negative guard ----------------------------------------- *)

let test_guard () =
  let outcome = Lazy.force fixture_outcome in
  match A.fixture_failures outcome with
  | [] -> ()
  | fs -> Alcotest.fail (String.concat "; " fs)

(* Every rule of the catalogue must be represented by at least one
   fixture finding — a rule with no mutant coverage could regress to
   never firing without any test noticing. *)
let test_all_rules_covered () =
  let outcome = Lazy.force fixture_outcome in
  let fired rule =
    List.exists (fun (d : D.t) -> d.rule = rule) outcome.A.report.D.diags
  in
  List.iter
    (fun rule ->
      if not (fired rule) then
        Alcotest.failf "no fixture finding for %s" rule)
    [
      A.Rules.rule_poly; A.Rules.rule_taint; A.Rules.rule_unsafe;
      A.Rules.rule_float; A.Rules.rule_swallow; A.Rules.rule_escape;
      A.Rules.rule_lock; A.Rules.rule_epoch; A.Rules.rule_alloc;
      A.Rules.rule_pure;
    ]

(* The old grep lint dropped any hit line that begins with a comment
   delimiter, so a definition sharing its line with a comment closer
   was invisible (that grep lint kept the filter line-local on purpose).
   The typed walk must catch exactly that fixture. *)
let test_comment_mask_regression () =
  let outcome = Lazy.force fixture_outcome in
  let hit =
    List.exists
      (fun (d : D.t) ->
        d.rule = A.Rules.rule_poly
        && String.length d.message > 0
        &&
        let prefix = "test/fixtures/astlint/a1_comment_mask.ml:" in
        String.length d.message >= String.length prefix
        && String.sub d.message 0 (String.length prefix) = prefix)
      outcome.A.report.D.diags
  in
  if not hit then
    Alcotest.fail "comment-masked polymorphic compare not caught"

(* ---- the production tree is clean --------------------------------- *)

let test_tree_clean () =
  (* Under `dune runtest` the declared dep puts the allowlist in the
     build tree; under a bare `dune exec` from a checkout only the
     source copy exists. *)
  let allowlist_file =
    let candidates =
      [
        Filename.concat root "tools/astlint/allowlist.txt";
        "tools/astlint/allowlist.txt";
        "../tools/astlint/allowlist.txt";
        "../../tools/astlint/allowlist.txt";
      ]
    in
    match List.find_opt Sys.file_exists candidates with
    | Some f -> f
    | None -> Alcotest.fail "tools/astlint/allowlist.txt not found"
  in
  let budget_file =
    let candidates =
      [
        Filename.concat root "tools/astlint/alloc_budget.txt";
        "tools/astlint/alloc_budget.txt";
        "../tools/astlint/alloc_budget.txt";
        "../../tools/astlint/alloc_budget.txt";
      ]
    in
    match List.find_opt Sys.file_exists candidates with
    | Some f -> f
    | None -> Alcotest.fail "tools/astlint/alloc_budget.txt not found"
  in
  let outcome =
    A.analyze ~allowlist_file ~budget_file ~root ~dirs:A.default_dirs ()
  in
  if outcome.A.units = [] then Alcotest.fail "no production units scanned";
  match D.errors outcome.A.report with
  | [] -> ()
  | d :: _ ->
      Alcotest.failf "tree not clean (%d findings); first: %s"
        (List.length (D.errors outcome.A.report))
        (D.to_string d)

(* ---- domain-safety fact collection -------------------------------- *)

let fixture_unit base =
  let outcome = Lazy.force fixture_outcome in
  match
    List.find_opt
      (fun (u : A.Unit_info.t) -> Filename.basename u.source = base)
      outcome.A.units
  with
  | Some u -> u
  | None -> Alcotest.failf "fixture unit %s not scanned" base

(* The walk must record, for a value referenced under lambdas, the
   chain of enclosing closures with the callee each literal lambda was
   passed to — that chain is what the A6/A8 rules match par entries
   against. *)
let test_capture_chain () =
  let u = fixture_unit "a8_workspace.ml" in
  let ws =
    match
      List.find_opt
        (fun (c : A.Unit_info.capture) ->
          c.name = "ws"
          && c.c_encl = "Astlint_fixtures.A8_workspace.racy_shared")
        u.captures
    with
    | Some c -> c
    | None -> Alcotest.fail "no capture fact for ws in racy_shared"
  in
  Alcotest.(check string)
    "workspace type head" "Routing.Batch.Workspace.t" ws.tyhead;
  Alcotest.(check bool)
    "chain ends in the Parallel.map lambda" true
    (match List.rev ws.c_lambdas with
    | Some "Parallel.map" :: _ -> true
    | _ -> false);
  Alcotest.(check bool)
    "bound outside that lambda" true
    (ws.depth < List.length ws.c_lambdas)

(* Lock regions: accesses between Mutex.lock/unlock carry the held
   descriptor; the same access outside the region carries none. *)
let test_lock_regions () =
  let u = fixture_unit "a7_shard.ml" in
  let field_accesses encl =
    List.filter
      (fun (a : A.Unit_info.access) ->
        a.a_encl = "Astlint_fixtures.A7_shard." ^ encl
        &&
        match a.sort with
        | A.Unit_info.Field_write _ | A.Unit_info.Field_read _
        | A.Unit_info.Container_op { field = Some _; _ } ->
            true
        | _ -> false)
      u.accesses
  in
  let held_descrs (a : A.Unit_info.access) = List.map fst a.held in
  List.iter
    (fun a ->
      Alcotest.(check (list string))
        "racy_bump holds nothing" [] (held_descrs a))
    (field_accesses "racy_bump");
  (match field_accesses "ok_locked" with
  | [] -> Alcotest.fail "no field accesses collected in ok_locked"
  | l ->
      List.iter
        (fun a ->
          Alcotest.(check bool)
            "ok_locked holds the shard mutex" true
            (List.mem "Astlint_fixtures.A7_shard.shard.mutex"
               (held_descrs a)))
        l);
  (* Lock events: explode raises while locked, forget never releases. *)
  let leak = fixture_unit "a7_leak.ml" in
  let has p = List.exists p leak.locks in
  Alcotest.(check bool)
    "explode records a locked raise" true
    (has (fun (l : A.Unit_info.lock_occ) ->
         match l.ev with
         | A.Unit_info.Raise_locked { what = "failwith"; _ } ->
             l.l_encl = "Astlint_fixtures.A7_leak.explode"
         | _ -> false));
  Alcotest.(check bool)
    "forget acquires" true
    (has (fun (l : A.Unit_info.lock_occ) ->
         match l.ev with
         | A.Unit_info.Acquire _ ->
             l.l_encl = "Astlint_fixtures.A7_leak.forget"
         | _ -> false));
  Alcotest.(check bool)
    "forget never releases" false
    (has (fun (l : A.Unit_info.lock_occ) ->
         match l.ev with
         | A.Unit_info.Release _ ->
             l.l_encl = "Astlint_fixtures.A7_leak.forget"
         | _ -> false))

(* Mutex-sibling inference over the fixture record type. *)
let test_lockreg () =
  let outcome = Lazy.force fixture_outcome in
  let reg = A.Lockreg.build outcome.A.units in
  let rectype = "Astlint_fixtures.A7_shard.shard" in
  Alcotest.(check (option string))
    "count guarded" (Some "mutex")
    (A.Lockreg.guard reg ~rectype ~field:"count");
  Alcotest.(check (option string))
    "table guarded" (Some "mutex")
    (A.Lockreg.guard reg ~rectype ~field:"table");
  Alcotest.(check (option string))
    "the mutex itself is not guarded" None
    (A.Lockreg.guard reg ~rectype ~field:"mutex")

(* Stale-entry detection: an entry matching nothing must surface as an
   ast/allowlist-stale finding against the allowlist file itself. *)
let test_stale_allowlist () =
  let outcome = Lazy.force fixture_outcome in
  let allow =
    match
      A.Allowlist.parse_string
        "ast/poly-compare  No.Such.Symbol  -- decoy entry\n"
    with
    | Ok a -> a
    | Error m -> Alcotest.failf "parse failed: %s" m
  in
  let cfg = A.fixture_config allow A.Budget.empty in
  let reg = A.Typereg.build outcome.A.units in
  let graph = A.Callgraph.build outcome.A.units in
  let findings =
    A.Rules.apply ~allow_source:"allow.txt" cfg reg graph outcome.A.units
  in
  match
    List.find_opt
      (fun (f : A.Rules.finding) -> f.rule = A.Rules.rule_stale)
      findings
  with
  | Some f ->
      Alcotest.(check string) "reported against the file" "allow.txt"
        f.source;
      Alcotest.(check string) "names the entry" "No.Such.Symbol" f.symbol
  | None -> Alcotest.fail "stale allowlist entry produced no finding"

(* Budget ratchet: an entry whose symbol has no reachable allocation
   left must surface as ast/alloc-budget-stale against the manifest. *)
let test_stale_budget () =
  let outcome = Lazy.force fixture_outcome in
  let budget =
    match
      A.Budget.parse_string "No.Such.Kernel  3  -- decoy budget\n"
    with
    | Ok b -> b
    | Error m -> Alcotest.failf "parse failed: %s" m
  in
  let cfg =
    { (A.fixture_config A.Allowlist.empty A.Budget.empty) with
      A.Rules.budget }
  in
  let reg = A.Typereg.build outcome.A.units in
  let graph = A.Callgraph.build outcome.A.units in
  let findings =
    A.Rules.apply ~budget_source:"budget.txt" cfg reg graph outcome.A.units
  in
  match
    List.find_opt
      (fun (f : A.Rules.finding) -> f.rule = A.Rules.rule_budget_stale)
      findings
  with
  | Some f ->
      Alcotest.(check string) "reported against the file" "budget.txt"
        f.source;
      Alcotest.(check string) "names the entry" "No.Such.Kernel" f.symbol
  | None -> Alcotest.fail "stale budget entry produced no finding"

(* ---- digest cache -------------------------------------------------- *)

let test_cache_roundtrip () =
  let outcome = Lazy.force fixture_outcome in
  let u = List.hd outcome.A.units in
  let path = Filename.temp_file "astlint_cache" ".bin" in
  let c = A.Cmt_loader.Cache.empty () in
  A.Cmt_loader.Cache.store c ~digest:"d1" u;
  A.Cmt_loader.Cache.save c ~path;
  let c' = A.Cmt_loader.Cache.load ~path in
  (match A.Cmt_loader.Cache.lookup c' ~digest:"d1" with
  | Some u' ->
      Alcotest.(check string) "modname survives" u.modname u'.modname;
      Alcotest.(check string) "source survives" u.source u'.source;
      Alcotest.(check int)
        "accesses survive"
        (List.length u.accesses)
        (List.length u'.accesses)
  | None -> Alcotest.fail "stored unit not found after reload");
  Alcotest.(check bool)
    "unknown digest misses" true
    (A.Cmt_loader.Cache.lookup c' ~digest:"d2" = None);
  (* A truncated file must degrade to a cold cache, not raise. *)
  let oc = open_out path in
  output_string oc "garbage";
  close_out oc;
  let c'' = A.Cmt_loader.Cache.load ~path in
  Alcotest.(check bool)
    "corrupt cache is cold" true
    (A.Cmt_loader.Cache.lookup c'' ~digest:"d1" = None);
  Sys.remove path

(* ---- symbol canonicalization -------------------------------------- *)

let test_canon () =
  let eq = Alcotest.(check string) in
  eq "lib mangling" "Routing.Engine.compute"
    (A.Syms.canon_string "Routing__Engine.compute");
  eq "exe mangling" "Sbgp" (A.Syms.canon_string "Dune__exe__Sbgp");
  eq "operator parens" "Stdlib.=" (A.Syms.canon_string "Stdlib.( = )");
  Alcotest.(check bool)
    "spec covers below" true
    (A.Syms.spec_matches ~spec:"Routing.Reference"
       "Routing.Reference.compute");
  Alcotest.(check bool)
    "spec star" true
    (A.Syms.spec_matches ~spec:"Metric.H_metric.*" "Metric.H_metric.eval");
  Alcotest.(check bool)
    "no substring match" false
    (A.Syms.spec_matches ~spec:"Routing.Reach" "Routing.Reachable");
  Alcotest.(check bool)
    "dir scope" true
    (A.Syms.in_scope ~scopes:[ "lib/routing" ] "lib/routing/engine.ml");
  Alcotest.(check bool)
    "file scope exact" true
    (A.Syms.in_scope
       ~scopes:[ "lib/prelude/shard_cache.ml" ]
       "lib/prelude/shard_cache.ml");
  Alcotest.(check bool)
    "no dir prefix confusion" false
    (A.Syms.in_scope ~scopes:[ "lib/rout" ] "lib/routing/engine.ml")

(* ---- allowlist parser --------------------------------------------- *)

let test_allowlist () =
  (match
     A.Allowlist.parse_string
       "# comment\n\nast/float-compare  M.f  -- stored literal\n"
   with
  | Ok t ->
      Alcotest.(check bool)
        "permits the symbol" true
        (A.Allowlist.find t ~rule:"ast/float-compare" "M.f" <> None);
      Alcotest.(check bool)
        "covers below" true
        (A.Allowlist.find t ~rule:"ast/float-compare" "M.f.inner" <> None);
      Alcotest.(check bool)
        "other rule untouched" false
        (A.Allowlist.find t ~rule:"ast/poly-compare" "M.f" <> None)
  | Error m -> Alcotest.failf "parse failed: %s" m);
  (match A.Allowlist.parse_string "ast/float-compare M.f\n" with
  | Ok _ -> Alcotest.fail "reasonless entry accepted"
  | Error _ -> ());
  match A.Allowlist.parse_string "just-one-token\n" with
  | Ok _ -> Alcotest.fail "malformed entry accepted"
  | Error _ -> ()

(* ---- allocation-budget parser ------------------------------------- *)

let test_budget () =
  (match
     A.Budget.parse_string "# hot-path budgets\n\nM.kernel  2  -- scratch\n"
   with
  | Ok t -> (
      (match A.Budget.find t "M.kernel" with
      | Some e ->
          Alcotest.(check int) "count parsed" 2 e.A.Budget.count;
          Alcotest.(check string) "reason parsed" "scratch" e.A.Budget.reason
      | None -> Alcotest.fail "entry not found");
      match A.Budget.find t "M.kernel.inner" with
      | Some _ -> ()
      | None -> Alcotest.fail "entry must cover symbols below it")
  | Error m -> Alcotest.failf "parse failed: %s" m);
  (match A.Budget.parse_string "M.kernel 2\n" with
  | Ok _ -> Alcotest.fail "reasonless entry accepted"
  | Error _ -> ());
  (match A.Budget.parse_string "M.kernel 0 -- zero\n" with
  | Ok _ -> Alcotest.fail "zero budget accepted (omit the entry instead)"
  | Error _ -> ());
  match A.Budget.parse_string "M.kernel two -- words\n" with
  | Ok _ -> Alcotest.fail "non-integer count accepted"
  | Error _ -> ()

let () =
  Alcotest.run "astlint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "corpus matches golden diagnostics" `Quick
            test_golden;
          Alcotest.test_case "false-negative guard holds" `Quick test_guard;
          Alcotest.test_case "every rule has mutant coverage" `Quick
            test_all_rules_covered;
          Alcotest.test_case "comment-masked compare caught (grep regression)"
            `Quick test_comment_mask_regression;
        ] );
      ( "tree",
        [
          Alcotest.test_case "production tree clean under allowlist" `Quick
            test_tree_clean;
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "capture chain collected" `Quick
            test_capture_chain;
          Alcotest.test_case "lock regions collected" `Quick
            test_lock_regions;
          Alcotest.test_case "mutex-sibling guard inference" `Quick
            test_lockreg;
          Alcotest.test_case "stale allowlist entry flagged" `Quick
            test_stale_allowlist;
          Alcotest.test_case "stale budget entry flagged" `Quick
            test_stale_budget;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "symbol canonicalization" `Quick test_canon;
          Alcotest.test_case "allowlist parser" `Quick test_allowlist;
          Alcotest.test_case "alloc-budget parser" `Quick test_budget;
          Alcotest.test_case "digest cache roundtrip" `Quick
            test_cache_roundtrip;
        ] );
    ]
