module D = Diagnostic
module O = Routing.Outcome
module P = Routing.Policy
module E = Routing.Engine
module B = Routing.Batch
module R = Routing.Reference
module S = Routing.Staged

let class_code out v =
  if v = O.dst out || Some v = O.attacker out then 3
  else
    match O.route_class out v with
    | P.Customer -> 0
    | P.Peer -> 1
    | P.Provider -> 2

(* First field-level disagreement as [(as_id, detail)], or None when the
   outcomes agree ([as_id] is -1 for a size mismatch).  [parents] is off
   when comparing against the staged specification, whose representative
   next hop is not part of its contract. *)
let mismatch_at ?(parents = true) ~want ~got () =
  let n = O.n want in
  if O.n got <> n then
    Some (-1, Printf.sprintf "outcome sizes differ (%d vs %d)" n (O.n got))
  else begin
    let res = ref None in
    let cell v name a b =
      if !res = None && a <> b then
        res := Some (v, Printf.sprintf "AS %d: %s %d/%d" v name a b)
    in
    let v = ref 0 in
    while !res = None && !v < n do
      let u = !v in
      let ra = O.reached want u and rb = O.reached got u in
      cell u "reached" (Bool.to_int ra) (Bool.to_int rb);
      if ra && rb then begin
        cell u "length" (O.length want u) (O.length got u);
        cell u "class" (class_code want u) (class_code got u);
        cell u "secure"
          (Bool.to_int (O.secure want u))
          (Bool.to_int (O.secure got u));
        cell u "to-d" (Bool.to_int (O.to_d want u)) (Bool.to_int (O.to_d got u));
        cell u "to-m" (Bool.to_int (O.to_m want u)) (Bool.to_int (O.to_m got u));
        if parents then cell u "next-hop" (O.next_hop want u) (O.next_hop got u)
      end;
      incr v
    done;
    !res
  end

let mismatch ?parents ~want ~got () =
  Option.map snd (mismatch_at ?parents ~want ~got ())

let tb_name = function E.Bounds -> "bounds" | E.Lowest_next_hop -> "lnh"

let analyze ?(attacker_claim = 1) g policies dep pairs =
  let ws = B.Workspace.create 0 in
  let rws = R.Workspace.create 0 in
  let items = ref 0 in
  let diags = ref [] in
  let report ~policy ~tiebreak ~dst ~attacker ~engine detail =
    let subjects = match attacker with None -> [ dst ] | Some m -> [ dst; m ] in
    let attacker_s =
      match attacker with
      | None -> "no attacker"
      | Some m -> Printf.sprintf "attacker %d" m
    in
    diags :=
      !diags
      @ [
          D.error ~rule:"kernel/divergence" ~subjects
            (Printf.sprintf
               "packed kernel (%s) disagrees with %s [%s, %s tiebreak, dst \
                %d, %s, claim %d]: %s"
               (fst engine) (snd engine) (P.name policy) (tb_name tiebreak)
               dst attacker_s attacker_claim detail);
        ]
  in
  List.iter
    (fun policy ->
      Array.iter
        (fun (dst, attacker) ->
          List.iter
            (fun tiebreak ->
              let want =
                R.compute ~tiebreak ~attacker_claim ~ws:rws g policy dep ~dst
                  ~attacker
              in
              let check ~engine ?parents got =
                incr items;
                match mismatch ?parents ~want ~got () with
                | None -> ()
                | Some detail ->
                    report ~policy ~tiebreak ~dst ~attacker ~engine detail
              in
              check
                ~engine:("fresh buffers", "the reference kernel")
                (E.compute ~tiebreak ~attacker_claim g policy dep ~dst
                   ~attacker);
              check
                ~engine:("reused workspace", "the reference kernel")
                (E.compute ~tiebreak ~attacker_claim ~ws g policy dep ~dst
                   ~attacker);
              match (policy.P.lp, tiebreak) with
              | P.Standard, E.Bounds when attacker_claim = 1 ->
                  (* The Appendix-B transcription only covers the Standard
                     LP model in Bounds mode with the paper's "m d" claim. *)
                  check
                    ~engine:("fresh buffers", "the staged specification")
                    ~parents:false
                    (S.compute g policy dep ~dst ~attacker)
              | _ -> ())
            [ E.Bounds; E.Lowest_next_hop ])
        pairs)
    policies;
  (!items, !diags)

(* The scalar side of a divergence report, in the packed word's
   vocabulary so both lanes read alike. *)
let describe_scalar out v =
  if not (O.reached out v) then "unreached"
  else
    Printf.sprintf "cls=%d len=%d secure=%b to_d=%b to_m=%b next-hop=%d"
      (class_code out v) (O.length out v) (O.secure out v) (O.to_d out v)
      (O.to_m out v) (O.next_hop out v)

let describe_group b ~v ~lane =
  match B.group_of b ~v ~lane with
  | None -> "no group (lane unreached)"
  | Some (mask, word, parent) ->
      Printf.sprintf "group mask=%#x parent=%d %s" mask parent
        (B.Packed.describe word)

(* Batched-divergence sub-pass: every lane of every batched solve is
   decoded and compared field-by-field against a scalar Reference solve
   of the same (attacker, destination) pair.  A divergence pinpoints the
   first disagreeing AS by (destination, attacker-word, bit) and decodes
   both packed lanes — the batch side straight from its lane group, the
   scalar side from the reference outcome.

   [tamper ~lane got] mutates the decoded outcome before comparison;
   the false-negative mutants use it to emulate batch-kernel bugs
   (dropped tie flags, stale lanes) and prove this pass catches them. *)
let analyze_batch ?(attacker_claim = 1) ?tamper g policies dep batches =
  let bws = B.Workspace.create 0 in
  let rws = R.Workspace.create 0 in
  let items = ref 0 in
  let diags = ref [] in
  List.iter
    (fun policy ->
      Array.iteri
        (fun word_idx (dst, attackers) ->
          List.iter
            (fun tiebreak ->
              let b =
                B.compute ~tiebreak ~attacker_claim ~ws:bws g policy dep ~dst
                  ~attackers
              in
              Array.iteri
                (fun lane m ->
                  incr items;
                  let got = B.decode b ~lane in
                  (match tamper with Some f -> f ~lane got | None -> ());
                  let want =
                    R.compute ~tiebreak ~attacker_claim ~ws:rws g policy dep
                      ~dst ~attacker:(Some m)
                  in
                  match mismatch_at ~want ~got () with
                  | None -> ()
                  | Some (v, detail) ->
                      let lanes_detail =
                        if v < 0 then ""
                        else
                          Printf.sprintf "; batch lane: %s; scalar: %s"
                            (describe_group b ~v ~lane)
                            (describe_scalar want v)
                      in
                      diags :=
                        !diags
                        @ [
                            D.error ~rule:"kernel/batch-divergence"
                              ~subjects:[ dst; m ]
                              (Printf.sprintf
                                 "batched kernel diverges from the reference \
                                  kernel [%s, %s tiebreak, claim %d] at dst \
                                  %d, attacker word %d, bit %d (attacker \
                                  %d): %s%s"
                                 (P.name policy) (tb_name tiebreak)
                                 attacker_claim dst word_idx lane m detail
                                 lanes_detail);
                          ])
                attackers)
            [ E.Bounds; E.Lowest_next_hop ])
        batches)
    policies;
  (!items, !diags)

(* Whole-word partitions against the per-pair oracle: closure lanes for
   security 1st/2nd, the batched S = {} state for LP-2 security 2nd and
   security 3rd. *)
let partition_policies g =
  let lp2 = P.make ~lp:(P.Lp_k 2) P.Security_second in
  let acyclic = Result.is_ok (Topology.Graph.hierarchy g) in
  [ P.make P.Security_first; P.make P.Security_second ]
  @ (if acyclic then [ lp2 ] else [])
  @ [ P.make P.Security_third ]

let pp_counts (c : Metric.Partition.counts) =
  Printf.sprintf "doomed %d / protectable %d / immune %d / unreachable %d"
    c.doomed c.protectable c.immune c.unreachable

let same_counts (a : Metric.Partition.counts) (b : Metric.Partition.counts) =
  a.doomed = b.doomed && a.protectable = b.protectable && a.immune = b.immune
  && a.unreachable = b.unreachable && a.sources = b.sources

let analyze_partitions g pairs =
  let items = ref 0 in
  let diags = ref [] in
  List.iter
    (fun policy ->
      let got = Metric.Partition.counts g policy pairs in
      let bad = ref None in
      Array.iteri
        (fun j { Metric.H_metric.attacker; dst } ->
          incr items;
          let want = Metric.Partition.count g policy ~attacker ~dst in
          match !bad with
          | None when not (same_counts want got.(j)) -> bad := Some (j, want)
          | Some _ | None -> ())
        pairs;
      match !bad with
      | None -> ()
      | Some (j, want) ->
          let { Metric.H_metric.attacker; dst } = pairs.(j) in
          diags :=
            !diags
            @ [
                D.error ~rule:"kernel/partition-divergence"
                  ~subjects:[ dst; attacker ]
                  (Printf.sprintf
                     "whole-word partition disagrees with the per-pair \
                      oracle [%s, pair %d of %d: dst %d, attacker %d]: \
                      counts gives %s, count gives %s"
                     (P.name policy) j (Array.length pairs) dst attacker
                     (pp_counts got.(j)) (pp_counts want));
              ])
    (partition_policies g);
  (!items, !diags)
