(* Dirty-cone computation for cross-step rollout evaluation.

   The engine's stable state for a pair (attacker m, destination d)
   reads the deployment in exactly two places: [signs_origin dep d] for
   the root announcement, and [is_full dep w] when a *signed* offer
   reaches AS [w].  Signed offers travel only along perceivable routes
   to [d] whose every hop validates and re-signs — i.e. along chains
   inside the Full-restricted {!Reach} closure of [d].  So when a
   deployment changes S -> S', the outcome of (m, d) can only change if

   - [d]'s own origin-signing status changed, or
   - some AS whose Full status changed lies in the Full-restricted
     perceivable closure of [d] under S or under S' (a "witness").

   Witnesses equal to the attacker never matter: the attacker is fixed
   as a root and never validates, re-signs or re-exports a legitimate
   route, so its own Full bit is never consulted for its own pair.  The
   cone is conservative — a dirty verdict does not imply the outcome
   differs — but a clean verdict is sound, which the incremental check
   pass and the qcheck properties enforce end to end. *)

type status = Clean | All_dirty | Witnesses of int array

(* Per requested destination. *)
type t = (int, status) Hashtbl.t

let changed_sets old_dep new_dep =
  let n = Deployment.n old_dep in
  let full = ref [] and signs = ref [] in
  for v = n - 1 downto 0 do
    if Bool.not (Bool.equal (Deployment.is_full old_dep v) (Deployment.is_full new_dep v))
    then full := v :: !full;
    if
      Bool.not
        (Bool.equal
           (Deployment.signs_origin old_dep v)
           (Deployment.signs_origin new_dep v))
    then signs := v :: !signs
  done;
  (Array.of_list !full, Array.of_list !signs)

let compute g ~old_dep ~new_dep ~dsts =
  let n = Topology.Graph.n g in
  if Deployment.n old_dep <> n || Deployment.n new_dep <> n then
    invalid_arg "Incremental.compute: deployment sizes disagree with the graph";
  let changed_full, changed_signs = changed_sets old_dep new_dep in
  let monotone = Deployment.subset old_dep new_dep in
  let signs_changed = Prelude.Bitset.create n in
  Array.iter (Prelude.Bitset.add signs_changed) changed_signs;
  let status = Hashtbl.create (Array.length dsts) in
  let no_full_change = Array.length changed_full = 0 in
  Array.iter
    (fun d ->
      if d < 0 || d >= n then
        invalid_arg "Incremental.compute: destination out of range";
      if not (Hashtbl.mem status d) then begin
        let st =
          if Prelude.Bitset.mem signs_changed d then All_dirty
          else if not (Deployment.signs_origin new_dep d) then
            (* Signing status is unchanged and off: no secure route ever
               exists toward d under either deployment. *)
            Clean
          else if no_full_change then Clean
          else begin
            (* d signs in both worlds: witnesses are the changed-Full
               ASes inside the secure-perceivable cone of d.  Under a
               monotone delta the old cone is contained in the new one,
               so one closure suffices. *)
            let reach_new =
              Reach.compute g ~root:d ~only:(Deployment.is_full new_dep) ()
            in
            let member =
              if monotone then fun w -> Reach.any reach_new w
              else begin
                let reach_old =
                  Reach.compute g ~root:d ~only:(Deployment.is_full old_dep) ()
                in
                fun w -> Reach.any reach_new w || Reach.any reach_old w
              end
            in
            let ws =
              Array.of_list
                (List.filter member (Array.to_list changed_full))
            in
            if Array.length ws = 0 then Clean else Witnesses ws
          end
        in
        Hashtbl.replace status d st
      end)
    dsts;
  status

let dirty_pair t ~attacker ~dst =
  match Hashtbl.find_opt t dst with
  | None -> true (* not in the requested set: stay conservative *)
  | Some Clean -> false
  | Some All_dirty -> true
  | Some (Witnesses ws) -> Array.exists (fun w -> w <> attacker) ws

module Topo = struct
  (* Dirty verdicts for *topology* deltas (link add / remove /
     relationship flip), one destination word at a time.

     Against the frozen batched stable state of one destination word,
     every changed edge is re-offered in both directions exactly as the
     kernel's expand/relax would.  The word is clean when every such
     offer is inadmissible under Ex, over the length bound, or
     *strictly* loses the rank compare against the state of every lane
     it overlaps — strictly-losing offers leave the label-setting fixed
     point (flags, parents, everything) untouched, removing
     strictly-losing offers likewise, and the fixed point is unique
     because rank is strictly monotone along extensions.  A tie is dirty
     (tie aggregation reads flags and parents); an offer into a lane
     with no state at the target is dirty (a new route appears).
     Distinct-pair deltas compose: each op is tested against the same
     frozen state, and a clean verdict for all ops means that state
     still satisfies every AS's fixed-point equation on the edited
     graph.

     Unsound directions, deliberately rejected (see DESIGN.md §15):
     re-checking only the *winning* lanes (ties aggregate flags from
     losers), skipping the reverse direction of a removed edge (the
     survivor's own route may ride the edge), and evaluating offers
     against an attacker-free tree (an attacker shortcut can lower ranks
     below the attacker-free ones).

     [cone] is kept as a diagnostic only.  A pair (m, d) can change only
     if some perceivable route toward d or m transits a changed pair,
     and valley-free perceivable reachability is symmetric, so the root
     lies in an endpoint's closure.  On Internet-like graphs that set is
     every AS (up-peer-down reaches almost everyone), and computing it
     cost more than the influence tests it could skip. *)

  type cone = { affected : Prelude.Bitset.t; card : int }

  let cone g delta =
    let n = Topology.Graph.n g in
    let affected = Prelude.Bitset.create n in
    let g' = Topology.Graph.Delta.apply g delta in
    Array.iter
      (fun e ->
        Prelude.Bitset.add affected e;
        Reach.union_into (Reach.compute g ~root:e ()) ~into:affected;
        Reach.union_into (Reach.compute g' ~root:e ()) ~into:affected)
      (Topology.Graph.Delta.endpoints delta);
    { affected; card = Prelude.Bitset.cardinal affected }

  let cone_dirty_dst c d = Prelude.Bitset.mem c.affected d

  let cone_card c = c.card

  (* Frozen copy of one destination word's batched stable state: per AS,
     its fixed (mask, packed word) groups, flattened CSR-style.  At the
     fixed point every surviving group is fixed, so {!Batch.iter_fixed}
     is exactly this state; ~3 ints per reached (AS, group). *)
  type word_state = {
    st_off : int array; (* n + 1 offsets into st_mask / st_word *)
    st_mask : int array;
    st_word : int array;
  }

  (* One walk over the groups: {!Batch.iter_fixed} visits ASes in
     ascending order, so each AS's offset is final when the walk first
     reaches it; {!Batch.groups} sizes the arrays exactly up front. *)
  let snapshot ~n b =
    let total = Batch.groups b in
    let off = Array.make (n + 1) total in
    let mask = Array.make total 0 and word = Array.make total 0 in
    let i = ref 0 and next = ref 0 in
    Batch.iter_fixed b (fun ~v ~mask:m ~word:w ~parent:_ ->
        while !next <= v do
          off.(!next) <- !i;
          incr next
        done;
        mask.(!i) <- m;
        word.(!i) <- w;
        incr i);
    { st_off = off; st_mask = mask; st_word = word }

  let influenced st dep policy ~old_graph ~(delta : Topology.Graph.Delta.t) =
    let n = Array.length st.st_off - 1 in
    if Topology.Graph.n old_graph <> n || Deployment.n dep <> n then
      invalid_arg "Incremental.Topo.influenced: size mismatch";
    let max_len = n + 1 in
    let tbl = Policy.Rank_table.make policy ~max_len in
    let mul = tbl.Policy.Rank_table.mul in
    let add = tbl.Policy.Rank_table.add in
    let kk = tbl.Policy.Rank_table.kk in
    let rank_shift = Batch.Packed.rank_shift in
    let dirty = ref false in
    (* Would u's frozen state, offered over an edge that classifies as
       [cls_at_w] at [w], win, tie, or newly reach any lane at [w]? *)
    let test_dir u w ~cls_at_w =
      if not !dirty then begin
        let w_lo = st.st_off.(w) and w_hi = st.st_off.(w + 1) in
        let reached_w = ref 0 in
        for i = w_lo to w_hi - 1 do
          reached_w := !reached_w lor st.st_mask.(i)
        done;
        let full_w = Deployment.is_full dep w in
        let i = ref st.st_off.(u) in
        let u_hi = st.st_off.(u + 1) in
        while (not !dirty) && !i < u_hi do
          let gu = st.st_word.(!i) in
          let mu = st.st_mask.(!i) in
          incr i;
          let cls_u = Batch.Packed.cls_code_of gu in
          (* Ex: customers of u always learn; peers/providers only when
             u's route is a customer route or u is a root (cls 3). *)
          if cls_at_w = 2 || cls_u = 0 || cls_u = 3 then begin
            let len' = Batch.Packed.len_of gu + 1 in
            if len' <= max_len then begin
              let secure' = Batch.Packed.secure_of gu && full_w in
              let j =
                (2 * cls_at_w)
                + (if secure' then 0 else 1)
                + if len' <= kk then 0 else 6
              in
              let r' = (mul.(j) * len') + add.(j) in
              if mu land lnot !reached_w <> 0 then dirty := true
              else begin
                let k = ref w_lo in
                while (not !dirty) && !k < w_hi do
                  if
                    st.st_mask.(!k) land mu <> 0
                    && st.st_word.(!k) lsr rank_shift >= r'
                  then dirty := true;
                  incr k
                done
              end
            end
          end
        done
      end
    in
    let test_edge = function
      | Topology.Graph.Customer_provider (c, p) ->
          (* p (c's provider) would receive a customer route (cls 0);
             c would receive a provider route (cls 2). *)
          test_dir c p ~cls_at_w:0;
          test_dir p c ~cls_at_w:2
      | Topology.Graph.Peer_peer (a, b) ->
          test_dir a b ~cls_at_w:1;
          test_dir b a ~cls_at_w:1
    in
    Array.iter
      (fun op ->
        match op with
        | Topology.Graph.Delta.Add e | Topology.Graph.Delta.Remove e ->
            test_edge e
        | Topology.Graph.Delta.Flip e ->
            let a, b =
              match e with
              | Topology.Graph.Customer_provider (a, b)
              | Topology.Graph.Peer_peer (a, b) ->
                  (a, b)
            in
            (match Topology.Graph.relationship old_graph a b with
            | Some old_e -> test_edge old_e
            | None -> dirty := true);
            test_edge e)
      delta;
    !dirty
end
