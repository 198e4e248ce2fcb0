(* The rule catalogue (policy layer).

   A1 ast/poly-compare      polymorphic compare/equal/hash — including
                            aliases, partial applications and the
                            List.mem/assoc family — on a non-immediate
                            type in a hot-path module.
   A2 ast/determinism-taint nondeterministic primitive (unordered
                            Hashtbl iteration, Random outside lib/rng,
                            wall-clock reads, Domain.self) either
                            reachable in the call graph from a
                            determinism root or written directly in a
                            hot-path module.
   A3 ast/unsafe-access     Array.unsafe_get/set outside the vetted
                            kernel modules; Obj.magic anywhere.
   A4 ast/float-compare     polymorphic =/compare instantiated at float
                            (metric values) — exact float comparison.
   A5 ast/exn-swallow       catch-all or bound-but-ignored exception
                            handlers; Printexc.print_backtrace escapes.
   A6 ast/domain-escape     mutable state created outside a closure but
                            written inside one that runs on pool
                            domains — directly (the write sits under a
                            Parallel.map/Domain.spawn lambda) or via
                            call-graph reachability from such a lambda —
                            without a mutex held, an enclosing lock
                            bracket, or a disjoint per-item index.
   A7 ast/lock-discipline   a field inferred to be guarded by a sibling
                            mutex (Lockreg) touched without that mutex
                            statically held; raising while holding a
                            lock without a protect bracket; a lock with
                            no unlock anywhere in its function.
   A8 ast/workspace-epoch   an epoch-stamped Workspace value crossing a
                            parallel-closure boundary instead of being
                            fetched via Workspace.local () inside.
   A9 ast/hot-alloc         a heap-allocation site (closure, boxed
                            tuple/record/variant/float, list cons,
                            array literal, allocating primitive,
                            partial application) in a function
                            reachable from a vetted kernel entry point,
                            beyond the symbol's budget in the checked
                            alloc_budget.txt manifest.
   A10 ast/cache-pure       a function that publishes to or reads from
                            the metric cache depends on something other
                            than its (graph, deployment) arguments:
                            module-level mutable state read, or a
                            nondeterministic primitive, reachable in
                            the call graph.
   --  ast/allowlist-stale  an allowlist entry that suppressed nothing
                            this run: the code it vetted has moved.
   --  ast/alloc-budget-stale  an alloc_budget.txt entry whose symbol
                            no longer has that many reachable
                            allocation sites: ratchet it down.

   Every exemption must come from the checked-in allowlist file; the
   diagnostics embed "source:line:" so tests and editors can jump to
   the site. *)

module D = Check.Diagnostic

let rule_poly = "ast/poly-compare"
let rule_taint = "ast/determinism-taint"
let rule_unsafe = "ast/unsafe-access"
let rule_float = "ast/float-compare"
let rule_swallow = "ast/exn-swallow"
let rule_escape = "ast/domain-escape"
let rule_lock = "ast/lock-discipline"
let rule_epoch = "ast/workspace-epoch"
let rule_alloc = "ast/hot-alloc"
let rule_pure = "ast/cache-pure"
let rule_stale = "ast/allowlist-stale"
let rule_budget_stale = "ast/alloc-budget-stale"
let rule_missing = "ast/cmt-missing"
let rule_unreadable = "ast/cmt-unreadable"
let rule_allowlist = "ast/allowlist"

type config = {
  hot_scopes : string list;  (* A1/A4 and the direct A2 scan *)
  swallow_scopes : string list;  (* A5 *)
  unsafe_scopes : string list;  (* A3 *)
  kernel_modules : string list;  (* A3: Array.unsafe_* permitted here *)
  taint_roots : string list;  (* A2 call-graph roots (symbol specs) *)
  rng_scopes : string list;  (* Random.* permitted here *)
  domain_scopes : string list;  (* A6/A7/A8 *)
  par_entries : string list;
      (* callees whose literal-lambda argument runs on other domains *)
  lock_brackets : string list;
      (* callees whose literal-lambda argument runs under a lock *)
  workspace_specs : string list;  (* A8: epoch-stamped workspace types *)
  hot_entries : string list;
      (* A9: vetted kernel entry points (symbol specs); every
         allocation site call-graph-reachable from one is judged *)
  cache_api : string list;
      (* A10: the cache publish/read API; a symbol referencing one is
         cache-coupled and must be pure in all but (graph, deployment) *)
  cache_impl : string list;
      (* A10: the cache implementation itself — its own state reads are
         its job, so it neither couples nor propagates *)
  budget : Budget.t;  (* A9 per-symbol static site budgets *)
  allow : Allowlist.t;
}

let default ?(allow = Allowlist.empty) ?(budget = Budget.empty) () =
  {
    hot_scopes =
      [ "lib/routing"; "lib/metric"; "lib/parallel";
        "lib/prelude/shard_cache.ml" ];
    swallow_scopes = [ "lib"; "bin" ];
    unsafe_scopes = [ "lib"; "bin" ];
    kernel_modules =
      [ "Routing.Batch"; "Routing.Reach"; "Routing.Staged";
        "Topology.Graph.Csr"; "Prelude.Bucket_queue" ];
    taint_roots =
      [ "Routing.Batch.compute"; "Routing.Reference.*";
        "Metric.H_metric.*"; "Check.Kernel.*" ];
    rng_scopes = [ "lib/rng" ];
    domain_scopes = [ "lib"; "bin" ];
    par_entries =
      [ "Parallel.map"; "Parallel.Pool.map"; "Stdlib.Domain.spawn" ];
    lock_brackets =
      [ "Prelude.Shard_cache.with_shard"; "Stdlib.Mutex.protect" ];
    workspace_specs =
      [ "Routing.Batch.Workspace.t"; "Routing.Reference.Workspace.t" ];
    hot_entries =
      [ "Routing.Batch.compute"; "Routing.Reach.compute"; "Routing.Reach.Lanes.compute"; "Routing.Staged.*";
        "Topology.Graph.Csr.*" ];
    cache_api =
      [ "Metric.H_metric.Cache.find"; "Metric.H_metric.Cache.store";
        "Metric.H_metric.Cache.carry" ];
    cache_impl = [ "Metric.H_metric.Cache.*" ];
    budget;
    allow;
  }

(* Structured findings: sortable by (source, line, rule) with a real
   integer line compare, and carrying the offending symbol so the
   --json output can annotate CI without re-parsing messages. *)
type finding = {
  source : string;
  line : int;
  rule : string;
  symbol : string;
  text : string;
}

let strip_stdlib op =
  if String.length op > 7 && String.sub op 0 7 = "Stdlib." then
    String.sub op 7 (String.length op - 7)
  else op

(* Allowlist queries are routed through a context that records which
   entries actually suppressed (or cut) something — the leftovers are
   the ast/allowlist-stale findings. *)
type ctx = { cfg : config; used : (string * string, unit) Hashtbl.t }

let allowed ctx ~rule sym =
  match Allowlist.find ctx.cfg.allow ~rule sym with
  | Some e ->
      Hashtbl.replace ctx.used (e.Allowlist.rule, e.Allowlist.target) ();
      true
  | None -> false

let in_kernel ctx sym =
  List.exists (fun spec -> Syms.spec_matches ~spec sym) ctx.cfg.kernel_modules

(* --- A1 / A4 -------------------------------------------------------- *)

let poly_findings ctx reg (u : Unit_info.t) =
  if not (Syms.in_scope ~scopes:ctx.cfg.hot_scopes u.source) then []
  else
    List.filter_map
      (fun (o : Unit_info.occurrence) ->
        match o.kind with
        | Unit_info.Poly_compare { op; subject } -> (
            let verdict =
              match subject with
              | Some ty -> Typereg.classify reg ty
              | None -> Typereg.Polymorphic
            in
            let op = strip_stdlib op in
            match verdict with
            | Typereg.Immediate -> None
            | Typereg.Float ->
                if allowed ctx ~rule:rule_float o.encl then None
                else
                  Some
                    {
                      source = u.source;
                      line = o.line;
                      rule = rule_float;
                      symbol = o.encl;
                      text =
                        Printf.sprintf
                          "exact float comparison `%s` (in %s); compare \
                           against explicit bounds or allowlist the site"
                          op o.encl;
                    }
            | Typereg.Boxed desc ->
                if allowed ctx ~rule:rule_poly o.encl then None
                else
                  Some
                    {
                      source = u.source;
                      line = o.line;
                      rule = rule_poly;
                      symbol = o.encl;
                      text =
                        Printf.sprintf
                          "polymorphic `%s` on %s (in %s); use a \
                           monomorphic comparator"
                          op desc o.encl;
                    }
            | Typereg.Polymorphic ->
                if allowed ctx ~rule:rule_poly o.encl then None
                else
                  Some
                    {
                      source = u.source;
                      line = o.line;
                      rule = rule_poly;
                      symbol = o.encl;
                      text =
                        Printf.sprintf
                          "`%s` kept polymorphic (alias or higher-order \
                           use, in %s); it will box and structurally \
                           compare whatever it meets"
                          op o.encl;
                    })
        | _ -> None)
      u.occs

(* --- A2 ------------------------------------------------------------- *)

let taint_findings ctx graph units =
  let hashtbl_mods =
    List.concat_map (fun u -> u.Unit_info.hashtbl_mods) units
  in
  let rng_sym sym =
    match Callgraph.source_of graph sym with
    | Some src -> Syms.in_scope ~scopes:ctx.cfg.rng_scopes src
    | None -> false
  in
  (* (a) primitives written directly in determinism-critical modules *)
  let direct =
    List.concat_map
      (fun (u : Unit_info.t) ->
        if not (Syms.in_scope ~scopes:ctx.cfg.hot_scopes u.source) then []
        else
          List.filter_map
            (fun (o : Unit_info.occurrence) ->
              match o.kind with
              | Unit_info.Nondet_prim name
                when (not (allowed ctx ~rule:rule_taint o.encl))
                     && not
                          (Syms.in_scope ~scopes:ctx.cfg.rng_scopes u.source)
                ->
                  Some
                    {
                      source = u.source;
                      line = o.line;
                      rule = rule_taint;
                      symbol = o.encl;
                      text =
                        Printf.sprintf
                          "nondeterministic primitive %s in \
                           determinism-critical module (in %s)"
                          (strip_stdlib name) o.encl;
                    }
              | _ -> None)
            u.occs)
      units
  in
  (* (b) primitives reachable from the determinism roots *)
  let reach =
    Callgraph.reachable graph ~roots:ctx.cfg.taint_roots
      ~cut:(allowed ctx ~rule:rule_taint)
  in
  let seen = Hashtbl.create 32 in
  let via_graph =
    List.concat_map
      (fun sym ->
        if rng_sym sym then []
        else
          List.filter_map
            (fun (target, line) ->
              if
                Unit_info.is_nondet ~hashtbl_mods target
                && (not (Syms.spec_matches ~spec:"Stdlib.Random.*" target
                         && rng_sym sym))
                && not (Hashtbl.mem seen (sym, target))
              then begin
                Hashtbl.replace seen (sym, target) ();
                let source =
                  match Callgraph.source_of graph sym with
                  | Some s -> s
                  | None -> "<unknown>"
                in
                Some
                  {
                    source;
                    line;
                    rule = rule_taint;
                    symbol = sym;
                    text =
                      Printf.sprintf
                        "determinism root reaches %s via %s"
                        (strip_stdlib target)
                        (String.concat " -> " (Callgraph.chain reach sym));
                  }
              end
              else None)
            (Callgraph.successors graph sym))
      reach.Callgraph.order
  in
  direct @ via_graph

(* --- A3 ------------------------------------------------------------- *)

let unsafe_findings ctx (u : Unit_info.t) =
  if not (Syms.in_scope ~scopes:ctx.cfg.unsafe_scopes u.source) then []
  else
    List.filter_map
      (fun (o : Unit_info.occurrence) ->
        match o.kind with
        | Unit_info.Unsafe_access name ->
            let magic = name = "Stdlib.Obj.magic" in
            if
              ((not magic) && in_kernel ctx o.encl)
              || allowed ctx ~rule:rule_unsafe o.encl
            then None
            else
              Some
                {
                  source = u.source;
                  line = o.line;
                  rule = rule_unsafe;
                  symbol = o.encl;
                  text =
                    (if magic then
                       Printf.sprintf
                         "Obj.magic (in %s) is never justified here" o.encl
                     else
                       Printf.sprintf
                         "%s outside the vetted kernel modules (in %s)"
                         (strip_stdlib name) o.encl);
                }
        | _ -> None)
      u.occs

(* --- A5 ------------------------------------------------------------- *)

let swallow_findings ctx (u : Unit_info.t) =
  if not (Syms.in_scope ~scopes:ctx.cfg.swallow_scopes u.source) then []
  else
    List.filter_map
      (fun (o : Unit_info.occurrence) ->
        match o.kind with
        | Unit_info.Exn_swallow detail
          when not (allowed ctx ~rule:rule_swallow o.encl) ->
            Some
              {
                source = u.source;
                line = o.line;
                rule = rule_swallow;
                symbol = o.encl;
                text = Printf.sprintf "%s (in %s)" detail o.encl;
              }
        | _ -> None)
      u.occs

(* --- A6 ------------------------------------------------------------- *)

(* 1-based position (outermost-first) of the first enclosing lambda
   that is a direct argument of a parallel entry point. *)
let par_pos ctx lambdas =
  let hit h =
    List.exists (fun spec -> Syms.spec_matches ~spec h) ctx.cfg.par_entries
  in
  let rec go i = function
    | [] -> None
    | Some h :: _ when hit h -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 1 lambdas

(* Is any enclosing lambda strictly deeper than [after] the argument of
   a configured lock bracket?  [after = 0] means "anywhere". *)
let bracketed ctx ~after lambdas =
  let hit h =
    List.exists (fun spec -> Syms.spec_matches ~spec h) ctx.cfg.lock_brackets
  in
  let rec go i = function
    | [] -> false
    | Some h :: rest -> (i > after && hit h) || go (i + 1) rest
    | None :: rest -> go (i + 1) rest
  in
  go 1 lambdas

let is_write (s : Unit_info.sort) =
  match s with
  | Unit_info.Ref_write _ | Unit_info.Field_write _ | Unit_info.Array_write _
    ->
      true
  | Unit_info.Container_op { write; _ } -> write
  | Unit_info.Field_read _ | Unit_info.Ref_read _ -> false

let access_desc (a : Unit_info.access) =
  let sortd =
    match a.Unit_info.sort with
    | Unit_info.Ref_write op -> Printf.sprintf "ref write (`%s`)" op
    | Unit_info.Ref_read op -> Printf.sprintf "ref read (`%s`)" op
    | Unit_info.Field_write { rectype; field } ->
        Printf.sprintf "write to mutable field %s.%s" rectype field
    | Unit_info.Field_read { rectype; field } ->
        Printf.sprintf "read of mutable field %s.%s" rectype field
    | Unit_info.Array_write _ -> "array-cell write"
    | Unit_info.Container_op { op; _ } -> Printf.sprintf "`%s`" op
  in
  match a.Unit_info.subject with
  | Unit_info.Global s -> Printf.sprintf "%s on global %s" sortd s
  | Unit_info.Local _ ->
      Printf.sprintf "%s on state captured from an outer scope" sortd
  | Unit_info.Unknown -> sortd

(* (a) writes syntactically inside a parallel closure *)
let escape_direct ctx (u : Unit_info.t) =
  if not (Syms.in_scope ~scopes:ctx.cfg.domain_scopes u.source) then []
  else
    List.filter_map
      (fun (a : Unit_info.access) ->
        match par_pos ctx a.lambdas with
        | None -> None
        | Some p ->
            let captured =
              match a.subject with
              | Unit_info.Local d -> d < p
              | Unit_info.Global _ -> true
              | Unit_info.Unknown -> false
            in
            let disjoint =
              match a.sort with
              | Unit_info.Array_write { idx_depth } -> idx_depth >= p
              | _ -> false
            in
            let guarded =
              List.exists (fun (_, d) -> d >= p) a.held
              || bracketed ctx ~after:p a.lambdas
            in
            if
              captured && is_write a.sort && (not disjoint) && (not guarded)
              && not (allowed ctx ~rule:rule_escape a.a_encl)
            then
              Some
                {
                  source = u.source;
                  line = a.a_line;
                  rule = rule_escape;
                  symbol = a.a_encl;
                  text =
                    Printf.sprintf
                      "%s inside a parallel closure (in %s); mediate with \
                       a mutex, Atomic, Domain.DLS, or a disjoint per-item \
                       index"
                      (access_desc a) a.a_encl;
                }
            else None)
      u.accesses

(* (b) unguarded writes to global state in functions reachable from a
   parallel closure via the call graph *)
let escape_reach ctx graph units =
  let origin = Hashtbl.create 32 in
  List.iter
    (fun (u : Unit_info.t) ->
      if Syms.in_scope ~scopes:ctx.cfg.domain_scopes u.source then
        List.iter
          (fun (e : Unit_info.edge) ->
            match par_pos ctx e.lambdas with
            | Some _ when not (Hashtbl.mem origin e.target) ->
                Hashtbl.replace origin e.target e.from_
            | _ -> ())
          u.edges)
    units;
  let roots =
    Hashtbl.fold (fun k _ acc -> k :: acc) origin []
    |> List.sort String.compare
  in
  if roots = [] then []
  else begin
    let reach =
      Callgraph.reachable graph ~roots ~cut:(allowed ctx ~rule:rule_escape)
    in
    let by_encl = Hashtbl.create 128 in
    List.iter
      (fun (u : Unit_info.t) ->
        List.iter
          (fun (a : Unit_info.access) ->
            let cur =
              match Hashtbl.find_opt by_encl a.a_encl with
              | Some l -> l
              | None -> []
            in
            Hashtbl.replace by_encl a.a_encl ((u.source, a) :: cur))
          u.accesses)
      units;
    let seen = Hashtbl.create 16 in
    List.concat_map
      (fun sym ->
        let accs =
          match Hashtbl.find_opt by_encl sym with
          | Some l -> List.rev l
          | None -> []
        in
        List.filter_map
          (fun (source, (a : Unit_info.access)) ->
            let global_state =
              match a.subject with
              | Unit_info.Global _ | Unit_info.Local 0 -> true
              | _ -> false
            in
            if
              global_state && is_write a.sort && a.held = []
              && (not (bracketed ctx ~after:0 a.lambdas))
              (* writes directly under a parallel closure are covered by
                 the direct scan above *)
              && par_pos ctx a.lambdas = None
              && not (Hashtbl.mem seen (sym, a.a_line))
            then begin
              Hashtbl.replace seen (sym, a.a_line) ();
              let chain = Callgraph.chain reach sym in
              let par_encl =
                match chain with
                | root :: _ -> (
                    match Hashtbl.find_opt origin root with
                    | Some e -> e
                    | None -> root)
                | [] -> sym
              in
              Some
                {
                  source;
                  line = a.a_line;
                  rule = rule_escape;
                  symbol = sym;
                  text =
                    Printf.sprintf
                      "%s, reachable from a parallel closure in %s via %s; \
                       mediate with a mutex, Atomic or Domain.DLS"
                      (access_desc a) par_encl
                      (String.concat " -> " chain);
                }
            end
            else None)
          accs)
      reach.Callgraph.order
  end

(* --- A7 ------------------------------------------------------------- *)

let lock_findings ctx lockreg (u : Unit_info.t) =
  if not (Syms.in_scope ~scopes:ctx.cfg.domain_scopes u.source) then []
  else begin
    let unguarded =
      List.filter_map
        (fun (a : Unit_info.access) ->
          let finfo =
            match a.sort with
            | Unit_info.Field_write { rectype; field } ->
                Some (rectype, field, true)
            | Unit_info.Field_read { rectype; field } ->
                Some (rectype, field, false)
            | Unit_info.Container_op { field = Some (rectype, field); write; _ }
              ->
                Some (rectype, field, write)
            | _ -> None
          in
          match finfo with
          | None -> None
          | Some (rectype, field, write) -> (
              match Lockreg.guard lockreg ~rectype ~field with
              | None -> None
              | Some mutex_field ->
                  let descr = rectype ^ "." ^ mutex_field in
                  let guarded =
                    List.exists (fun (d, _) -> d = descr) a.held
                    || bracketed ctx ~after:0 a.lambdas
                  in
                  if guarded || allowed ctx ~rule:rule_lock a.a_encl then None
                  else
                    Some
                      {
                        source = u.source;
                        line = a.a_line;
                        rule = rule_lock;
                        symbol = a.a_encl;
                        text =
                          Printf.sprintf
                            "%s %s.%s without holding %s (in %s)"
                            (if write then "write to" else "read of")
                            rectype field descr a.a_encl;
                      }))
        u.accesses
    in
    let raises =
      List.filter_map
        (fun (l : Unit_info.lock_occ) ->
          match l.ev with
          | Unit_info.Raise_locked { locks; what }
            when not (allowed ctx ~rule:rule_lock l.l_encl) ->
              Some
                {
                  source = u.source;
                  line = l.l_line;
                  rule = rule_lock;
                  symbol = l.l_encl;
                  text =
                    Printf.sprintf
                      "`%s` while holding %s (in %s): the lock leaks on \
                       this exception path — use Mutex.protect or \
                       Fun.protect ~finally"
                      what
                      (String.concat ", " locks)
                      l.l_encl;
                }
          | _ -> None)
        u.locks
    in
    let pairs = Hashtbl.create 8 in
    List.iter
      (fun (l : Unit_info.lock_occ) ->
        let acqs, rels =
          match Hashtbl.find_opt pairs l.l_encl with
          | Some v -> v
          | None -> ([], [])
        in
        match l.ev with
        | Unit_info.Acquire d ->
            Hashtbl.replace pairs l.l_encl ((d, l.l_line) :: acqs, rels)
        | Unit_info.Release d ->
            Hashtbl.replace pairs l.l_encl (acqs, d :: rels)
        | Unit_info.Raise_locked _ -> ())
      u.locks;
    let leaks =
      Hashtbl.fold
        (fun encl (acqs, rels) acc ->
          if allowed ctx ~rule:rule_lock encl then acc
          else
            List.fold_left
              (fun acc (d, ln) ->
                if List.mem d rels then acc
                else
                  {
                    source = u.source;
                    line = ln;
                    rule = rule_lock;
                    symbol = encl;
                    text =
                      Printf.sprintf "%s locked but never unlocked in %s" d
                        encl;
                  }
                  :: acc)
              acc (List.rev acqs))
        pairs []
    in
    unguarded @ raises @ leaks
  end

(* --- A8 ------------------------------------------------------------- *)

let epoch_findings ctx (u : Unit_info.t) =
  if not (Syms.in_scope ~scopes:ctx.cfg.domain_scopes u.source) then []
  else
    List.filter_map
      (fun (c : Unit_info.capture) ->
        if
          not
            (List.exists
               (fun spec -> Syms.spec_matches ~spec c.tyhead)
               ctx.cfg.workspace_specs)
        then None
        else
          match par_pos ctx c.c_lambdas with
          | Some p when c.depth < p ->
              if allowed ctx ~rule:rule_epoch c.c_encl then None
              else
                Some
                  {
                    source = u.source;
                    line = c.c_line;
                    rule = rule_epoch;
                    symbol = c.c_encl;
                    text =
                      Printf.sprintf
                        "workspace `%s` (%s) crosses a parallel-closure \
                         boundary (in %s); fetch the domain's own with \
                         Workspace.local () inside the closure"
                        c.name c.tyhead c.c_encl;
                  }
          | _ -> None)
      u.captures

(* --- A9 ------------------------------------------------------------- *)

(* Every allocation site in a function call-graph-reachable from a hot
   entry point counts against that function's budget (default 0; the
   checked-in manifest grants positive budgets with reasons).  One
   finding per over-budget symbol, anchored at its first site, so a
   kernel that sprouts ten closures reads as one diagnosis, not ten.
   The manifest is kept honest by [budget_stale_findings] below. *)
let describe_sites sites =
  let max_shown = 4 in
  let shown = List.filteri (fun i _ -> i < max_shown) sites in
  let rest = List.length sites - List.length shown in
  String.concat ", "
    (List.map
       (fun (a : Unit_info.alloc) ->
         Printf.sprintf "%s (line %d)"
           (Unit_info.describe_alloc a.a_kind)
           a.al_line)
       shown)
  ^ if rest > 0 then Printf.sprintf " and %d more" rest else ""

let alloc_findings ctx graph units =
  let by_encl = Hashtbl.create 128 in
  List.iter
    (fun (u : Unit_info.t) ->
      List.iter
        (fun (a : Unit_info.alloc) ->
          let cur =
            match Hashtbl.find_opt by_encl a.al_encl with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace by_encl a.al_encl ((u.source, a) :: cur))
        u.allocs)
    units;
  let reach =
    Callgraph.reachable graph ~roots:ctx.cfg.hot_entries
      ~cut:(allowed ctx ~rule:rule_alloc)
  in
  (* Actual reachable-site count per manifest entry, for the ratchet. *)
  let entry_actual : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let findings =
    List.filter_map
      (fun sym ->
        match Hashtbl.find_opt by_encl sym with
        | None -> None
        | Some rev_sites ->
            let sites = List.rev_map snd rev_sites in
            let source =
              match rev_sites with (s, _) :: _ -> s | [] -> "<unknown>"
            in
            let n = List.length sites in
            let granted =
              match Budget.find ctx.cfg.budget sym with
              | Some e ->
                  Hashtbl.replace entry_actual e.Budget.target
                    ((match Hashtbl.find_opt entry_actual e.Budget.target with
                     | Some c -> c
                     | None -> 0)
                    + n);
                  e.Budget.count
              | None -> 0
            in
            if n <= granted then None
            else
              let first =
                List.fold_left
                  (fun m (a : Unit_info.alloc) -> min m a.al_line)
                  max_int sites
              in
              Some
                {
                  source;
                  line = first;
                  rule = rule_alloc;
                  symbol = sym;
                  text =
                    Printf.sprintf
                      "%d hot-path allocation site(s) in %s (budget %d), \
                       reachable via %s: %s; hoist/unbox them or budget \
                       them in alloc_budget.txt"
                      n sym granted
                      (String.concat " -> " (Callgraph.chain reach sym))
                      (describe_sites sites);
                })
      reach.Callgraph.order
  in
  (findings, entry_actual)

let budget_stale_findings ctx ~budget_source entry_actual =
  List.filter_map
    (fun (e : Budget.entry) ->
      match Hashtbl.find_opt entry_actual e.target with
      | None | Some 0 ->
          Some
            {
              source = budget_source;
              line = e.line;
              rule = rule_budget_stale;
              symbol = e.target;
              text =
                Printf.sprintf
                  "budget entry `%s %d` matched no reachable allocation \
                   site this run — the code it paid for has moved; remove \
                   it (reason was: %s)"
                  e.target e.count e.reason;
            }
      | Some actual when actual < e.count ->
          Some
            {
              source = budget_source;
              line = e.line;
              rule = rule_budget_stale;
              symbol = e.target;
              text =
                Printf.sprintf
                  "budget entry `%s %d` is loose: only %d reachable \
                   site(s) remain — ratchet it down to %d (reason was: %s)"
                  e.target e.count actual actual e.reason;
            }
      | Some _ -> None)
    ctx.cfg.budget.Budget.entries

(* --- A10 ------------------------------------------------------------ *)

(* A symbol that publishes to or reads from the metric cache must be a
   pure function of its (graph, deployment) arguments — anything else
   it depends on silently changes what a cache hit returns.  Two taint
   sources, both judged over the call graph from every cache-coupled
   symbol: nondeterministic primitives (same vocabulary as A2, but
   including the vetted RNG — randomness in a cached value is wrong
   even when seeded), and reads of module-level mutable state.  The
   cache implementation itself is excluded: its state is the cache. *)
let pure_findings ctx graph units =
  let matches specs sym =
    List.exists (fun spec -> Syms.spec_matches ~spec sym) specs
  in
  let coupled = Hashtbl.create 16 in
  List.iter
    (fun (u : Unit_info.t) ->
      List.iter
        (fun (e : Unit_info.edge) ->
          if
            matches ctx.cfg.cache_api e.target
            && (not (matches ctx.cfg.cache_impl e.from_))
            && not (Hashtbl.mem coupled e.from_)
          then Hashtbl.replace coupled e.from_ ())
        u.edges)
    units;
  let roots =
    Hashtbl.fold (fun k () acc -> k :: acc) coupled []
    |> List.sort String.compare
  in
  if roots = [] then []
  else begin
    let cut sym =
      allowed ctx ~rule:rule_pure sym
      || matches ctx.cfg.cache_api sym
      || matches ctx.cfg.cache_impl sym
    in
    let reach = Callgraph.reachable graph ~roots ~cut in
    let hashtbl_mods =
      List.concat_map (fun u -> u.Unit_info.hashtbl_mods) units
    in
    let seen = Hashtbl.create 16 in
    let nondet =
      List.concat_map
        (fun sym ->
          List.filter_map
            (fun (target, line) ->
              if
                Unit_info.is_nondet ~hashtbl_mods target
                && not (Hashtbl.mem seen (sym, target))
              then begin
                Hashtbl.replace seen (sym, target) ();
                let source =
                  match Callgraph.source_of graph sym with
                  | Some s -> s
                  | None -> "<unknown>"
                in
                Some
                  {
                    source;
                    line;
                    rule = rule_pure;
                    symbol = sym;
                    text =
                      Printf.sprintf
                        "cache-coupled function reaches nondeterministic \
                         %s via %s; a cached metric must be a pure \
                         function of (graph, deployment)"
                        (strip_stdlib target)
                        (String.concat " -> " (Callgraph.chain reach sym));
                  }
              end
              else None)
            (Callgraph.successors graph sym))
        reach.Callgraph.order
    in
    let by_encl = Hashtbl.create 128 in
    List.iter
      (fun (u : Unit_info.t) ->
        List.iter
          (fun (a : Unit_info.access) ->
            let cur =
              match Hashtbl.find_opt by_encl a.a_encl with
              | Some l -> l
              | None -> []
            in
            Hashtbl.replace by_encl a.a_encl ((u.source, a) :: cur))
          u.accesses)
      units;
    let seen_read = Hashtbl.create 16 in
    let reads =
      List.concat_map
        (fun sym ->
          let accs =
            match Hashtbl.find_opt by_encl sym with
            | Some l -> List.rev l
            | None -> []
          in
          List.filter_map
            (fun (source, (a : Unit_info.access)) ->
              let is_read =
                match a.sort with
                | Unit_info.Ref_read _ | Unit_info.Field_read _ -> true
                | Unit_info.Container_op { write = false; _ } -> true
                | _ -> false
              in
              let global_state =
                match a.subject with
                | Unit_info.Global _ | Unit_info.Local 0 -> true
                | _ -> false
              in
              if
                is_read && global_state
                && not (Hashtbl.mem seen_read (sym, a.a_line))
              then begin
                Hashtbl.replace seen_read (sym, a.a_line) ();
                Some
                  {
                    source;
                    line = a.a_line;
                    rule = rule_pure;
                    symbol = sym;
                    text =
                      Printf.sprintf
                        "%s in cache-coupled function (via %s); cached \
                         results must not depend on module-level mutable \
                         state"
                        (access_desc a)
                        (String.concat " -> " (Callgraph.chain reach sym));
                  }
              end
              else None)
            accs)
        reach.Callgraph.order
    in
    nondet @ reads
  end

(* --- stale allowlist entries ---------------------------------------- *)

let stale_findings ctx ~allow_source =
  List.filter_map
    (fun (e : Allowlist.entry) ->
      if Hashtbl.mem ctx.used (e.rule, e.target) then None
      else
        Some
          {
            source = allow_source;
            line = e.line;
            rule = rule_stale;
            symbol = e.target;
            text =
              Printf.sprintf
                "allowlist entry `%s %s` suppressed nothing this run — \
                 the code it vetted has moved; remove or update it \
                 (reason was: %s)"
                e.rule e.target e.reason;
          })
    ctx.cfg.allow.Allowlist.entries

(* --- driver --------------------------------------------------------- *)

let compare_finding a b =
  let c = String.compare a.source b.source in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = String.compare a.rule b.rule in
      if c <> 0 then c else String.compare a.text b.text

let to_diag f =
  D.error ~rule:f.rule (Printf.sprintf "%s:%d: %s" f.source f.line f.text)

let apply ?(allow_source = "tools/astlint/allowlist.txt")
    ?(budget_source = "tools/astlint/alloc_budget.txt") cfg reg graph units =
  let ctx = { cfg; used = Hashtbl.create 16 } in
  let lockreg = Lockreg.build units in
  let allocs, entry_actual = alloc_findings ctx graph units in
  let findings =
    List.concat_map (poly_findings ctx reg) units
    @ taint_findings ctx graph units
    @ List.concat_map (unsafe_findings ctx) units
    @ List.concat_map (swallow_findings ctx) units
    @ List.concat_map (escape_direct ctx) units
    @ escape_reach ctx graph units
    @ List.concat_map (lock_findings ctx lockreg) units
    @ List.concat_map (epoch_findings ctx) units
    @ allocs
    @ pure_findings ctx graph units
    @ budget_stale_findings ctx ~budget_source entry_actual
  in
  (* Stale detection must run after every other rule so the used-entry
     table is complete. *)
  let findings = findings @ stale_findings ctx ~allow_source in
  List.sort_uniq compare_finding findings
