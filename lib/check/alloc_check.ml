(* Runtime allocation gate behind `sbgp check --alloc`.

   The static A9 rule (ast/hot-alloc, lib/analysis) reasons about
   allocation *sites*; this pass measures what the compiled code
   actually does, which covers the analyzer's stated blind spots —
   inlining, [@inline] hints, unboxing, Simplif's reference elimination
   (DESIGN.md §16).  The batched and reference kernels and the
   lane-mask closure are replayed single-domain over a deterministic
   pair sample with reused workspaces, and the observed
   [Gc.minor_words] per pair (per lane for the batch and the closure)
   is compared against the recorded [default_budgets].

   Every measurement is identity-gated: the outcome produced inside the
   measured loop must be bit-identical to a fresh-buffer computation of
   the same pair, so a "fast because wrong" regression cannot hide
   behind a good allocation number.  A cold-vs-warm cache probe
   complements the static A10 rule: H over the same pair set, once
   computing and once served entirely from the shared cache, must agree
   exactly — a cache whose values depend on call history, placement or
   the executing domain fails here even if the impurity dodged the
   static walk.

   [tamper] (called once per measured batch solve) and [taint] (applied
   to the warm cache-probe result) exist for the false-negative mutants:
   they emulate an allocation regression the analyzer missed and a
   history-dependent cache, and prove this pass catches both. *)

module D = Diagnostic
module G = Topology.Graph
module P = Routing.Policy
module E = Routing.Engine
module B = Routing.Batch
module R = Routing.Reference
module M = Metric.H_metric

type budgets = {
  batch : float;
  reference : float;
  closure : float;
}

(* Minor words per (destination, attacker) pair with a reused
   workspace; [reference] is per pair per AS — the list-based reference
   kernel allocates O(n) per pair by design (measured 21.4-22.1 across
   n=100..400), so only the normalized rate is scale-free.  Recorded
   headroom is ~2x the measured steady state (batch 4.0 flat; see
   EXPERIMENTS.md PR-10) so noise does not flake the gate while a
   per-pair box or closure regression still trips it.  [closure] is per
   lane of a full lane-mask closure word ({!Routing.Reach.Lanes}) on a
   warm workspace: the passes allocate nothing, so it measures 0 at any
   n; a budget of 1 word per lane still catches a single box per AS or
   per edge. *)
let default_budgets =
  { batch = 8.0; reference = 44.0; closure = 1.0 }

let dep_mixed n =
  Deployment.of_modes
    (Array.init n (fun v ->
         match v mod 5 with
         | 0 | 1 -> Deployment.Full
         | 2 -> Deployment.Simplex
         | _ -> Deployment.Off))

(* Attacked pairs only: the attacker path is the allocation-heavy one
   (two roots, secure/bogus bookkeeping), so it is the one budgeted. *)
let sample_pairs rng n k =
  Array.init k (fun _ ->
      let dst = Rng.int rng n in
      let m = (dst + 1 + Rng.int rng (n - 1)) mod n in
      (dst, Some m))

let measure f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let over ?(unit = "minor words/pair") ~kernel ~wpp ~budget () =
  D.error ~rule:"alloc/minor-budget"
    (Printf.sprintf
       "%s kernel allocates %.1f %s (budget %.1f); a hot-path box, \
        closure or container growth slipped past the static A9 gate — \
        hoist it or re-record the budget"
       kernel wpp unit budget)

let identity_diag ~kernel detail =
  D.error ~rule:"alloc/identity"
    (Printf.sprintf
       "%s kernel produced a different outcome inside the measured \
        allocation loop than with fresh buffers: %s" kernel detail)

let analyze ?(pairs = 24) ?tamper ?taint ~seed g policies =
  let n = G.n g in
  if n < 3 then (0, [])
  else begin
    let policy = match policies with p :: _ -> p | [] -> P.make P.Security_third in
    let dep = dep_mixed n in
    let rng = Rng.create seed in
    let sample = sample_pairs rng n (max 1 pairs) in
    let k = Array.length sample in
    let items = ref 0 in
    let diags = ref [] in
    let add d = diags := !diags @ [ d ] in

    (* --- batched engine --------------------------------------------- *)
    let lanes = min B.max_lanes (n - 1) in
    let dst0, _ = sample.(0) in
    let attackers =
      Array.init lanes (fun l -> (dst0 + 1 + (l mod (n - 1))) mod n)
    in
    let bws = B.Workspace.create 0 in
    let run_batch () =
      ignore (B.compute ~ws:bws g policy dep ~dst:dst0 ~attackers)
    in
    run_batch ();
    (* warm: sizes the workspace *)
    let reps = max 1 (k / 4) in
    let bdelta =
      measure (fun () ->
          for _ = 1 to reps do
            run_batch ();
            match tamper with Some f -> f () | None -> ()
          done)
    in
    items := !items + (reps * lanes);
    let bwpp = bdelta /. float_of_int (reps * lanes) in
    if bwpp > default_budgets.batch then
      add (over ~kernel:"batch" ~wpp:bwpp ~budget:default_budgets.batch ());
    (let b = B.compute ~ws:bws g policy dep ~dst:dst0 ~attackers in
     let got = B.decode b ~lane:0 in
     let want = E.compute g policy dep ~dst:dst0 ~attacker:(Some attackers.(0)) in
     incr items;
     match Kernel.mismatch ~want ~got () with
     | None -> ()
     | Some detail -> add (identity_diag ~kernel:"batch" detail));

    (* --- lane-mask closures ----------------------------------------- *)
    let module L = Routing.Reach.Lanes in
    (* A full word: the sample's pairs, cycled through the 63 lanes. *)
    let clanes = B.max_lanes in
    let roots = Array.init clanes (fun l -> fst sample.(l mod k)) in
    let avoid =
      Array.init clanes (fun l ->
          match snd sample.(l mod k) with Some m -> m | None -> -1)
    in
    let lws = L.create 0 in
    let run_closure () = L.compute lws g ~lanes:clanes ~roots ~avoid in
    run_closure ();
    let creps = max 1 (k / 4) in
    let cdelta = measure (fun () -> for _ = 1 to creps do run_closure () done) in
    items := !items + (creps * clanes);
    let cwpl = cdelta /. float_of_int (creps * clanes) in
    if cwpl > default_budgets.closure then
      add
        (over ~unit:"minor words/lane" ~kernel:"lane-mask closure" ~wpp:cwpl
           ~budget:default_budgets.closure ());
    (let want = Routing.Reach.compute g ~root:roots.(0) ~avoid:avoid.(0) () in
     let bit m = m land 1 = 1 in
     let bad = ref None in
     for v = n - 1 downto 0 do
       if
         bit (L.customer lws v) <> Routing.Reach.customer want v
         || bit (L.peer lws v) <> Routing.Reach.peer want v
         || bit (L.provider lws v) <> Routing.Reach.provider want v
       then bad := Some v
     done;
     incr items;
     match !bad with
     | None -> ()
     | Some v ->
         add
           (identity_diag ~kernel:"lane-mask closure"
              (Printf.sprintf
                 "lane 0 (root %d, avoiding %d) differs from the scalar \
                  closure at AS %d"
                 roots.(0) avoid.(0) v)));

    (* --- reference kernel ------------------------------------------- *)
    let rws = R.Workspace.create 0 in
    let run_ref (dst, attacker) =
      ignore (R.compute ~ws:rws g policy dep ~dst ~attacker)
    in
    run_ref sample.(0);
    let rk = max 1 (k / 4) in
    let rdelta =
      measure (fun () ->
          for i = 0 to rk - 1 do run_ref sample.(i mod k) done)
    in
    items := !items + rk;
    (* The reference kernel is list-based and allocates O(n) per pair by
       design; normalizing by n keeps its budget scale-free. *)
    let rwpp = rdelta /. float_of_int (rk * n) in
    if rwpp > default_budgets.reference then
      add
        (over ~unit:"minor words/pair/AS" ~kernel:"reference" ~wpp:rwpp
           ~budget:default_budgets.reference ());

    (* --- cold-vs-warm cache consistency ----------------------------- *)
    let cache = M.Cache.create () in
    let m_att = Array.init (min 4 (n - 1)) (fun i -> i + 1) in
    let m_dst = Array.init (min 4 n) (fun i -> n - 1 - i) in
    let hpairs = M.pairs ~attackers:m_att ~dsts:m_dst () in
    let cold = M.h_metric ~cache g policy dep hpairs in
    let warm = M.h_metric ~cache g policy dep hpairs in
    let warm = match taint with Some f -> f warm | None -> warm in
    items := !items + (2 * Array.length hpairs);
    if not (cold.M.lb = warm.M.lb && cold.M.ub = warm.M.ub) then
      add
        (D.error ~rule:"alloc/cache-consistency"
           (Printf.sprintf
              "H over %d pairs changed between the cold run and the \
               cache-served rerun (cold [%.17g, %.17g], warm [%.17g, \
               %.17g]); cached metric values must be pure in (graph, \
               deployment)"
              (Array.length hpairs) cold.M.lb cold.M.ub warm.M.lb
              warm.M.ub));
    (!items, !diags)
  end
