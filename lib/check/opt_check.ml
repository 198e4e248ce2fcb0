(* Differential gate for the CELF lazy greedy (DESIGN.md §14).

   H is not proven submodular, so CELF's lazy pruning — trusting that a
   stale queued gain can only shrink — is a heuristic.  This pass runs
   the naive full-re-eval greedy and CELF side by side on seeded
   instances (plus the deterministic Appendix-I set-cover gadget, where
   the coverage objective IS submodular and identity is a theorem) and
   demands the bit-identical pick sequence and per-step H bounds.  Any
   divergence is an [opt/divergence] error: either a genuine
   non-submodular instance CELF mishandles, or a bug in the lazy queue
   machinery — both mean CELF's answer cannot be trusted as "the greedy
   solution". *)

module D = Diagnostic
module M = Metric.H_metric

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let compare_results ~label (naive : Optimize.Max_k.result)
    (lazy_r : Optimize.Max_k.result) =
  (* [Optimize.Max_k.celf] shadows a would-be [celf] parameter under
     this open, hence the rename-then-rebind. *)
  let open Optimize.Max_k in
  let celf = lazy_r in
  let diags = ref [] in
  let err ?subjects msg =
    diags := !diags @ [ D.error ~rule:"opt/divergence" ?subjects msg ]
  in
  if
    not
      (bits_equal naive.baseline.M.lb celf.baseline.M.lb
      && bits_equal naive.baseline.M.ub celf.baseline.M.ub)
  then
    err
      (Printf.sprintf
         "%s: baseline bounds diverge: naive [%.17g, %.17g], CELF [%.17g, \
          %.17g]"
         label naive.baseline.M.lb naive.baseline.M.ub celf.baseline.M.lb
         celf.baseline.M.ub);
  if naive.achieved <> celf.achieved then
    err
      (Printf.sprintf
         "%s: naive greedy made %d picks, CELF made %d (requested %d)" label
         naive.achieved celf.achieved naive.requested);
  let steps = min naive.achieved celf.achieved in
  for i = 0 to steps - 1 do
    let a = naive.steps.(i) and b = celf.steps.(i) in
    if a.pick <> b.pick then
      err ~subjects:[ a.pick; b.pick ]
        (Printf.sprintf "%s: step %d picked AS %d (naive) vs AS %d (CELF)"
           label (i + 1) a.pick b.pick)
    else if
      not
        (bits_equal a.score.M.lb b.score.M.lb
        && bits_equal a.score.M.ub b.score.M.ub)
    then
      err ~subjects:[ a.pick ]
        (Printf.sprintf
           "%s: step %d (AS %d) bounds diverge: naive [%.17g, %.17g], CELF \
            [%.17g, %.17g]"
           label (i + 1) a.pick a.score.M.lb a.score.M.ub b.score.M.lb
           b.score.M.ub)
  done;
  !diags

let compare_instance ?pool ?fault ~label ~base ~pairs ~k ~candidates g policy =
  let naive =
    Optimize.Max_k.greedy ?pool ~base g policy ~pairs ~k ~candidates
  in
  let celf =
    Optimize.Max_k.celf ?pool ~base ?fault g policy ~pairs ~k ~candidates
  in
  let label = Printf.sprintf "%s, policy %s" label (Routing.Policy.name policy) in
  (1 + min naive.Optimize.Max_k.achieved celf.Optimize.Max_k.achieved,
   compare_results ~label naive celf)

(* The Appendix-I gadget as a coverage instance where laziness matters:
   set A covers 6 elements, B covers 5 of A's, C covers 4 disjoint ones.
   Both solvers open with A; at round two B's true gain collapses to
   zero while its stale round-one gain still outranks C — trusting the
   stale gain flips the pick, and flipping the queue priority flips even
   the first pick.  Coverage is submodular, so the unfaulted CELF must
   match the naive greedy exactly here. *)
let gadget ?fault () =
  let inst =
    {
      Optimize.Set_cover.universe = 10;
      sets = [| [ 0; 1; 2; 3; 4; 5 ]; [ 0; 1; 2; 3; 4 ]; [ 6; 7; 8; 9 ] |];
    }
  in
  let b = Optimize.Set_cover.build inst in
  let g = b.Optimize.Set_cover.graph in
  let n = Topology.Graph.n g in
  (* The reduction's base: destination and every element-AS are Full;
     the optimizer chooses among the set-ASes. *)
  let base =
    Deployment.make ~n
      ~full:
        (Array.append [| b.Optimize.Set_cover.dst |]
           b.Optimize.Set_cover.element_as)
      ()
  in
  let pairs =
    [|
      {
        M.attacker = b.Optimize.Set_cover.attacker;
        M.dst = b.Optimize.Set_cover.dst;
      };
    |]
  in
  let policy = Routing.Policy.make Routing.Policy.Security_third in
  compare_instance ?fault ~label:"set-cover gadget" ~base ~pairs ~k:2 ~candidates:b.Optimize.Set_cover.set_as g policy

(* Distinct draws avoiding [avoid]; bounded tries so tiny graphs just
   yield fewer (the caller skips the instance). *)
let sample_distinct rng n ~avoid k =
  let out = ref [] in
  let len = ref 0 in
  let tries = ref 0 in
  while !len < k && !tries < 50 * k do
    incr tries;
    let v = Rng.int rng n in
    if not (List.mem v avoid) && not (List.mem v !out) then begin
      out := v :: !out;
      incr len
    end
  done;
  Array.of_list (List.rev !out)

let analyze ?pool ?fault ?(instances = 2) ~seed g policies =
  let n = Topology.Graph.n g in
  let items = ref 0 in
  let diags = ref [] in
  let record (i, d) =
    items := !items + i;
    diags := !diags @ d
  in
  record (gadget ?fault ());
  if n >= 8 then
    for i = 0 to instances - 1 do
      let rng = Rng.create (seed + i) in
      let dsts = sample_distinct rng n ~avoid:[] 2 in
      let attackers =
        sample_distinct rng n ~avoid:(Array.to_list dsts) 2
      in
      let candidates =
        sample_distinct rng n
          ~avoid:(Array.to_list dsts @ Array.to_list attackers)
          6
      in
      let pairs = M.pairs ~attackers ~dsts () in
      if
        Array.length pairs > 0
        && Array.length candidates > 0
        && Array.length dsts = 2
      then begin
        (* Destinations sign their origins in the base scenario, else
           transit security is invisible and every gain is zero. *)
        let base = Deployment.make ~n ~full:[||] ~simplex:dsts () in
        List.iter
          (fun policy ->
            record
              (compare_instance ?pool ?fault
                 ~label:(Printf.sprintf "instance %d" i)
                 ~base ~pairs ~k:3 ~candidates g policy))
          policies
      end
    done;
  (!items, !diags)
