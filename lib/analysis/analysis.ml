(* Typed-AST static analysis over dune's .cmt artifacts.

   The pipeline (DESIGN.md §11, §13): locate the build root, scan for
   .cmt binary annotations, walk each Typedtree once collecting facts
   (Unit_info), derive the type-immediacy registry (Typereg), the
   inter-module call graph (Callgraph) and the mutex-guard registry
   (Lockreg), then let the rule catalogue (Rules) turn facts into
   findings.  Nothing is recompiled here: the analyzer reads what
   `dune build @check` left behind, which is also how the @lint alias
   sequences it.  An optional digest cache skips re-walking units whose
   .cmt artifact is unchanged since the previous run. *)

module Syms = Syms
module Cmt_loader = Cmt_loader
module Unit_info = Unit_info
module Typereg = Typereg
module Allowlist = Allowlist
module Budget = Budget
module Callgraph = Callgraph
module Lockreg = Lockreg
module Rules = Rules
module D = Check.Diagnostic

type outcome = {
  units : Unit_info.t list;
  findings : Rules.finding list;
  report : D.report;
  cached : int;
}

let default_dirs = [ "lib"; "bin" ]

let walk_file file =
  match Cmt_loader.read file with
  | Error msg ->
      Error
        (D.error ~rule:Rules.rule_unreadable
           (Printf.sprintf "%s: %s" file msg))
  | Ok (uf, infos) -> (
      match infos.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str ->
          let modname = Syms.canon_string uf.modname in
          Ok (Some (Unit_info.walk ~modname ~source:uf.source str))
      | _ -> Ok None)

let load_units ?cache files =
  let cached = ref 0 in
  let units, diags =
    List.fold_left
      (fun (units, diags) file ->
        let digest =
          match cache with
          | None -> None
          | Some c -> (
              match Cmt_loader.Cache.digest file with
              | None -> None
              | Some d -> Some (c, d))
        in
        let hit =
          match digest with
          | Some (c, d) -> Cmt_loader.Cache.lookup c ~digest:d
          | None -> None
        in
        match hit with
        | Some u ->
            incr cached;
            (u :: units, diags)
        | None -> (
            match walk_file file with
            | Error d -> (units, d :: diags)
            | Ok None -> (units, diags)
            | Ok (Some u) ->
                (match digest with
                | Some (c, d) -> Cmt_loader.Cache.store c ~digest:d u
                | None -> ());
                (u :: units, diags)))
      ([], []) files
  in
  (List.rev units, List.rev diags, !cached)

let analyze ?(config = fun allow budget -> Rules.default ~allow ~budget ())
    ?allowlist_file ?budget_file ?cache_path ~root ~dirs () =
  let files = Cmt_loader.scan ~root ~dirs in
  let allow, allow_diags =
    match allowlist_file with
    | None -> (Allowlist.empty, [])
    | Some f -> (
        match Allowlist.load f with
        | Ok a -> (a, [])
        | Error msg ->
            ( Allowlist.empty,
              [
                D.error ~rule:Rules.rule_allowlist
                  (Printf.sprintf "%s: %s" f msg);
              ] ))
  in
  let budget, budget_diags =
    match budget_file with
    | None -> (Budget.empty, [])
    | Some f -> (
        match Budget.load f with
        | Ok b -> (b, [])
        | Error msg ->
            ( Budget.empty,
              [
                D.error ~rule:Rules.rule_allowlist
                  (Printf.sprintf "%s: %s" f msg);
              ] ))
  in
  let missing_diags =
    if files = [] then
      [
        D.error ~rule:Rules.rule_missing
          (Printf.sprintf
             "no .cmt artifacts under %s for {%s}; run `dune build @check` \
              first"
             root (String.concat ", " dirs));
      ]
    else []
  in
  let cache =
    match cache_path with
    | None -> None
    | Some p -> Some (Cmt_loader.Cache.load ~path:p)
  in
  let units, read_diags, cached = load_units ?cache files in
  (match (cache, cache_path) with
  | Some c, Some p -> Cmt_loader.Cache.save c ~path:p
  | _ -> ());
  let cfg = config allow budget in
  let reg = Typereg.build units in
  let graph = Callgraph.build units in
  let findings =
    Rules.apply ?allow_source:allowlist_file ?budget_source:budget_file cfg
      reg graph units
  in
  let rule_diags = List.map Rules.to_diag findings in
  let report =
    let r =
      D.add_pass D.empty_report "ast/load" ~items:(List.length files)
        (allow_diags @ budget_diags @ missing_diags @ read_diags)
    in
    D.add_pass r "ast/rules" ~items:(List.length units) rule_diags
  in
  { units; findings; report; cached }

(* --- fixture corpus ------------------------------------------------- *)

(* The deliberately-bad corpus under test/fixtures/astlint doubles as a
   false-negative guard: every aN_*.ml file must produce at least one
   finding of its rule, every ok_*.ml must stay silent.  If a rule
   regresses, its fixture stops firing and @lint fails — the
   mutant-style inversion of the usual "clean tree has zero findings"
   gate. *)

let fixture_dir = "test/fixtures/astlint"

let fixture_config allow budget =
  (* The fixture corpus carries its own exact budget so the budgeted-ok
     case in a9_hot_alloc.ml stays silent; the file-level manifest
     (if any) is ignored for fixtures. *)
  ignore budget;
  {
    Rules.hot_scopes = [ fixture_dir ];
    swallow_scopes = [ fixture_dir ];
    unsafe_scopes = [ fixture_dir ];
    kernel_modules =
      [
        "Astlint_fixtures.A3_unsafe.Vetted_kernel";
        "Astlint_fixtures.A3_bigarray.Vetted_kernel";
      ];
    taint_roots = [ "Astlint_fixtures.A2_taint.root_compute" ];
    rng_scopes = [];
    domain_scopes = [ fixture_dir ];
    par_entries =
      [ "Parallel.map"; "Parallel.Pool.map"; "Stdlib.Domain.spawn" ];
    lock_brackets = [ "Stdlib.Mutex.protect" ];
    workspace_specs = [ "Routing.Batch.Workspace.t" ];
    hot_entries = [ "Astlint_fixtures.A9_hot_alloc.kernel_entry" ];
    cache_api =
      [
        "Astlint_fixtures.A10_cache_impure.Cache.find";
        "Astlint_fixtures.A10_cache_impure.Cache.store";
      ];
    cache_impl = [ "Astlint_fixtures.A10_cache_impure.Cache.*" ];
    budget =
      Budget.v
        [
          {
            Budget.target = "Astlint_fixtures.A9_hot_alloc.budgeted_helper";
            count = 1;
            reason = "fixture: one sprintf site, paid for on purpose";
            line = 1;
          };
        ];
    allow;
  }

let expected_rule_of_fixture base =
  let pre n =
    String.length base >= String.length n && String.sub base 0 (String.length n) = n
  in
  if pre "a10_" then Some (Some Rules.rule_pure)
  else if pre "a1_" then Some (Some Rules.rule_poly)
  else if pre "a2_" then Some (Some Rules.rule_taint)
  else if pre "a3_" then Some (Some Rules.rule_unsafe)
  else if pre "a4_" then Some (Some Rules.rule_float)
  else if pre "a5_" then Some (Some Rules.rule_swallow)
  else if pre "a6_" then Some (Some Rules.rule_escape)
  else if pre "a7_" then Some (Some Rules.rule_lock)
  else if pre "a8_" then Some (Some Rules.rule_epoch)
  else if pre "a9_" then Some (Some Rules.rule_alloc)
  else if pre "ok_" then Some None
  else None

let fixture_failures outcome =
  let diags_for source =
    List.filter
      (fun (d : D.t) ->
        let prefix = source ^ ":" in
        String.length d.message >= String.length prefix
        && String.sub d.message 0 (String.length prefix) = prefix)
      outcome.report.D.diags
  in
  List.filter_map
    (fun (u : Unit_info.t) ->
      if not (Syms.in_scope ~scopes:[ fixture_dir ] u.source) then None
      else
        let base = Filename.basename u.source in
        match expected_rule_of_fixture base with
        | None -> None
        | Some (Some rule) ->
            let hits = diags_for u.source in
            if List.exists (fun (d : D.t) -> d.rule = rule) hits then None
            else
              Some
                (Printf.sprintf
                   "false negative: fixture %s expected a %s finding, got \
                    %s"
                   base rule
                   (match hits with
                   | [] -> "none"
                   | l ->
                       String.concat "; "
                         (List.map (fun (d : D.t) -> d.rule) l)))
        | Some None ->
            let hits = diags_for u.source in
            if hits = [] then None
            else
              Some
                (Printf.sprintf
                   "false positive: clean fixture %s produced %s" base
                   (String.concat "; "
                      (List.map (fun (d : D.t) -> d.rule) hits))))
    outcome.units
