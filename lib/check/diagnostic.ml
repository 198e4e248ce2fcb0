type severity = Error | Warning | Info

type t = {
  rule : string;
  severity : severity;
  subjects : int list;
  message : string;
}

let make ~rule severity ?(subjects = []) message =
  { rule; severity; subjects; message }

let error ~rule ?subjects message = make ~rule Error ?subjects message
let warning ~rule ?subjects message = make ~rule Warning ?subjects message

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let to_string d =
  let subjects =
    match d.subjects with
    | [] -> ""
    | vs ->
        Printf.sprintf " [AS %s]"
          (String.concat ", " (List.map string_of_int vs))
  in
  Printf.sprintf "%s %s%s: %s" (severity_name d.severity) d.rule subjects
    d.message

let has_rule diags rule = List.exists (fun d -> String.equal d.rule rule) diags

type report = { passes : (string * int) list; diags : t list }

let empty_report = { passes = []; diags = [] }

let merge a b = { passes = a.passes @ b.passes; diags = a.diags @ b.diags }

let add_pass r name ~items diags =
  { passes = r.passes @ [ (name, items) ]; diags = r.diags @ diags }

let errors r = List.filter (fun d -> d.severity = Error) r.diags
let ok r = errors r = []

let summary r =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, items) ->
      Buffer.add_string buf (Printf.sprintf "pass %-12s %d items\n" name items))
    r.passes;
  List.iter
    (fun d -> Buffer.add_string buf (to_string d ^ "\n"))
    r.diags;
  let n_err = List.length (errors r) in
  let n_all = List.length r.diags in
  Buffer.add_string buf
    (if n_all = 0 then "check: clean (no diagnostics)\n"
     else
       Printf.sprintf "check: %d diagnostic%s (%d error%s)\n" n_all
         (if n_all = 1 then "" else "s")
         n_err
         (if n_err = 1 then "" else "s"));
  Buffer.contents buf

let catalogue =
  [
    ("topo/out-of-range", "edge endpoint outside [0, n)");
    ("topo/self-loop", "an AS is adjacent to itself");
    ("topo/duplicate-edge", "the same neighbor appears twice in one table");
    ( "topo/relationship-conflict",
      "an AS pair carries two different business relationships" );
    ( "topo/asymmetric",
      "adjacency tables disagree (u lists v but v does not list u back)" );
    ( "topo/unsorted",
      "a neighbor table is not sorted ascending (iteration-order hazard)" );
    ("topo/counts", "cached edge counts disagree with the adjacency tables");
    ("topo/cp-cycle", "the customer-to-provider digraph has a cycle");
    ("topo/disconnected", "the underlying undirected graph is disconnected");
    ( "topo/tier",
      "a tier assignment contradicts the Table-1 degree structure" );
    ( "topo/ixp",
      "IXP augmentation altered or dropped an edge, or added a non-peer \
       edge" );
    ( "topo/csr-mismatch",
      "the CSR Delta.apply patched differs from the one of_edges builds \
       from the same edges, at some step of a seeded delta chain" );
    ( "topo/snapshot",
      "a binary snapshot failed to round-trip bit-identically, or a \
       corrupted payload loaded without a digest error" );
    ( "topo/delta-divergence",
      "topology-delta replay produced bounds different from a \
       from-scratch computation at some step of a seeded delta chain" );
    ("route/shape", "outcome size or roots disagree with the inputs");
    ("route/root", "destination or attacker root record is malformed");
    ( "route/missed",
      "an AS with a compliant offer is unreached, or is fixed with none" );
    ( "route/consistency",
      "recorded class/length/security disagree with the parent's route" );
    ( "route/suboptimal",
      "a strictly better export-compliant route was available" );
    ("route/export", "the chosen route violates the export policy Ex");
    ( "route/tiebreak",
      "to-d/to-m flags or representative next hop disagree with the \
       tiebreak semantics" );
    ( "route/secure",
      "a route is marked secure outside S, or a secure route leaves S / \
       passes the attacker" );
    ("route/path", "the parent chain does not realize the recorded route");
    ( "thm/sec1-downgrade",
      "a protocol downgrade occurred under security 1st (Theorem 3.1)" );
    ( "thm/sec3-monotone",
      "happiness decreased when the deployment grew under security 3rd \
       (Theorem 6.1)" );
    ( "kernel/divergence",
      "the packed CSR engine disagrees with the reference kernel or the \
       staged specification on some outcome field" );
    ( "kernel/batch-divergence",
      "a decoded lane of the destination-major batched kernel disagrees \
       with the reference kernel on some outcome field" );
    ( "det/divergence",
      "a (domains, workspace) configuration diverged from the sequential \
       fresh-buffer baseline" );
    ( "inc/divergence",
      "incremental rollout evaluation diverged from a from-scratch \
       computation at some step of a seeded deployment chain" );
    ( "opt/divergence",
      "the CELF lazy greedy diverged from the naive full-re-eval \
       greedy (pick sequence, achieved size or H bounds) on a seeded \
       Max-k instance" );
    ( "check/false-negative",
      "a mutant with a planted bug was not flagged by the checker" );
    ( "alloc/minor-budget",
      "a kernel's measured minor words per pair exceeded its recorded \
       budget (a hot-path box, closure or container growth slipped \
       past the static A9 gate)" );
    ( "alloc/identity",
      "the outcome computed inside a measured allocation loop differs \
       from a fresh-buffer computation of the same pair" );
    ( "alloc/cache-consistency",
      "H over the same pair set changed between a cold run and a \
       cache-served rerun; cached metric values must be pure in \
       (graph, deployment)" );
    ( "ast/poly-compare",
      "polymorphic compare/equal/hash (including aliases and the \
       List.mem/assoc family) on a non-immediate type in a hot-path \
       module" );
    ( "ast/determinism-taint",
      "a nondeterministic primitive (unordered Hashtbl iteration, \
       Random outside lib/rng, wall-clock reads, Domain.self) reachable \
       from a determinism root or written in a hot-path module" );
    ( "ast/unsafe-access",
      "Array.unsafe_get/set outside the vetted kernel modules, or \
       Obj.magic anywhere" );
    ( "ast/float-compare",
      "polymorphic comparison instantiated at float (exact float \
       comparison)" );
    ( "ast/exn-swallow",
      "a catch-all or ignored-exception handler, or a \
       Printexc.print_backtrace debugging escape" );
    ( "ast/domain-escape",
      "mutable state created outside a closure but written inside one \
       that runs on pool domains (directly or via the call graph), \
       with no mutex held, lock bracket or disjoint per-item index" );
    ( "ast/lock-discipline",
      "a field guarded by a sibling mutex touched without that mutex \
       statically held, a raise while holding a lock, or a lock with \
       no unlock in its function" );
    ( "ast/workspace-epoch",
      "an epoch-stamped Workspace value crossing a parallel-closure \
       boundary instead of Workspace.local () inside the closure" );
    ( "ast/hot-alloc",
      "allocation sites reachable from a vetted kernel entry point \
       exceed the symbol's recorded budget \
       (tools/astlint/alloc_budget.txt)" );
    ( "ast/cache-pure",
      "a function coupled to the metric cache reads module-level \
       mutable state or a nondeterministic primitive; cached values \
       must depend only on (graph, deployment)" );
    ( "ast/allowlist-stale",
      "an allowlist entry that suppressed no finding this run; the \
       code it vetted has moved — remove or update the entry" );
    ( "ast/alloc-budget-stale",
      "an allocation-budget entry whose symbol now allocates nothing \
       (stale) or less than its grant (loose) — ratchet the manifest \
       down" );
    ("ast/cmt-missing", "no .cmt artifacts found; run `dune build @check`");
    ( "ast/cmt-unreadable",
      "a .cmt artifact exists but cannot be read (corrupt or \
       version-skewed)" );
    ( "ast/allowlist",
      "tools/astlint/allowlist.txt is malformed (every entry needs \
       `rule symbol -- reason`)" );
  ]
