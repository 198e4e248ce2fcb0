type bounds = { lb : float; ub : float }

let bounds_improvement after before =
  { lb = after.lb -. before.lb; ub = after.ub -. before.ub }

type counts = { happy_lb : int; happy_ub : int; sources : int }

let is_source outcome v =
  v <> Routing.Outcome.dst outcome
  &&
  (* Match instead of [<> Some v]: comparing the option structurally
     boxes an allocation per source per trial. *)
  match Routing.Outcome.attacker outcome with
  | Some a -> a <> v
  | None -> true

let happy outcome =
  let n = Routing.Outcome.n outcome in
  let lb = ref 0 and ub = ref 0 and sources = ref 0 in
  for v = 0 to n - 1 do
    if is_source outcome v then begin
      incr sources;
      if Routing.Outcome.happy_lb outcome v then incr lb;
      if Routing.Outcome.happy_ub outcome v then incr ub
    end
  done;
  { happy_lb = !lb; happy_ub = !ub; sources = !sources }

let to_bounds c =
  {
    lb = Prelude.Stats.fraction c.happy_lb c.sources;
    ub = Prelude.Stats.fraction c.happy_ub c.sources;
  }

type pair = { attacker : int; dst : int }

let pairs ?rng ?max_pairs ~attackers ~dsts () =
  let total = ref 0 in
  Array.iter
    (fun m -> Array.iter (fun d -> if m <> d then incr total) dsts)
    attackers;
  let total = !total in
  (match max_pairs with
  | Some k when k < 0 -> invalid_arg "Metric.pairs: max_pairs < 0"
  | _ -> ());
  if total = 0 then [||]
  else
    match max_pairs with
    | Some k when total > k -> (
        match rng with
        | None -> invalid_arg "Metric.pairs: sampling requires ~rng"
        | Some rng ->
            (* Enumeration order matters here: the sampled indices land in
               the same array the historical list-cons construction built
               (reverse enumeration), keeping seeded samples identical. *)
            let all = Array.make total { attacker = 0; dst = 0 } in
            let i = ref (total - 1) in
            Array.iter
              (fun m ->
                Array.iter
                  (fun d ->
                    if m <> d then begin
                      all.(!i) <- { attacker = m; dst = d };
                      decr i
                    end)
                  dsts)
              attackers;
            let idx = Rng.sample_without_replacement rng k total in
            Array.map (fun i -> all.(i)) idx)
    | _ ->
        (* Generate directly in deterministic (attacker, dst) order from
           sorted copies of the inputs — no list-cons, no sort of the
           cross product. *)
        let sa = Array.copy attackers and sd = Array.copy dsts in
        Array.sort Int.compare sa;
        Array.sort Int.compare sd;
        let out = Array.make total { attacker = 0; dst = 0 } in
        let i = ref 0 in
        Array.iter
          (fun m ->
            Array.iter
              (fun d ->
                if m <> d then begin
                  out.(!i) <- { attacker = m; dst = d };
                  incr i
                end)
              sd)
          sa;
        out

let pair_bounds ?ws g policy dep { attacker; dst } =
  let outcome =
    Routing.Engine.compute ?ws g policy dep ~dst ~attacker:(Some attacker)
  in
  to_bounds (happy outcome)

(* --- Destination-major batched evaluation ---------------------------

   Pairs sharing a destination share the whole attacker-free part of the
   routing tree, so they are solved together by {!Routing.Batch}: one
   label-setting drain per <= 63 attackers.  The per-lane happiness
   counts are folded directly off the frozen lane groups — one callback
   per group, not per (lane, AS) — so no per-attacker outcome record is
   ever materialized.  Skipping class-3 (root) groups excludes exactly
   the two non-sources of each lane: the destination everywhere, and the
   lane's own attacker in that lane; every other AS either has an
   ordinary group containing the lane or is unreached (unhappy either
   way).  The counts — and via [Stats.fraction] the float bounds — are
   bit-identical to [to_bounds (happy outcome)] of a scalar
   {!pair_bounds}. *)

(* One work item: solve destination [bdst] for the attackers of the
   pairs at [bpos] (positions into the caller's index array). *)
type batch_item = { bdst : int; bpos : int array }

(* Group the pair positions by destination (first-seen order, keyed
   lookups only — no Hashtbl iteration) and chunk each destination's
   attacker list into full words. *)
let batch_items pairs idxs =
  let by_dst = Hashtbl.create 64 in
  let order = ref [] in
  Array.iteri
    (fun j i ->
      let p = pairs.(i) in
      match Hashtbl.find_opt by_dst p.dst with
      | Some l -> l := j :: !l
      | None ->
          Hashtbl.add by_dst p.dst (ref [ j ]);
          order := p.dst :: !order)
    idxs;
  let items = ref [] in
  List.iter
    (fun dst ->
      let slots =
        match Hashtbl.find_opt by_dst dst with
        | Some l -> Array.of_list (List.rev !l)
        | None -> [||]
      in
      let total = Array.length slots in
      let lanes = Routing.Batch.max_lanes in
      let k = ref 0 in
      while !k < total do
        let len = min lanes (total - !k) in
        items := { bdst = dst; bpos = Array.sub slots !k len } :: !items;
        k := !k + len
      done)
    (List.rev !order);
  Array.of_list (List.rev !items)

(* Public face of the grouping, for callers that batch their own
   per-pair folds (partition counts, the divergence checker). *)
let batch_plan pairs =
  let idxs = Array.init (Array.length pairs) (fun i -> i) in
  Array.map
    (fun item ->
      ( item.bdst,
        Array.map (fun j -> pairs.(j).attacker) item.bpos,
        Array.copy item.bpos ))
    (batch_items pairs idxs)

(* Per-lane bounds of a batched solve, folded off the frozen groups:
   each ordinary group that reaches the destination adds its whole lane
   mask to the [ub] counter at once, and to [lb] too unless it can also
   reach the attacker.  Class-3 (root) groups are skipped, which drops
   exactly each lane's two non-sources.  [lane_fold_add] takes one group
   at a time, so a caller that walks the groups for its own ends (the
   replay's snapshot) folds in the same walk. *)
type lane_fold = {
  f_ub : Prelude.Lane_counter.t;
  f_lb : Prelude.Lane_counter.t;
}

let lane_fold ~n =
  {
    f_ub = Prelude.Lane_counter.create ~max_count:n;
    f_lb = Prelude.Lane_counter.create ~max_count:n;
  }

let lane_fold_add f ~mask ~word =
  let open Routing.Engine.Packed in
  if cls_code_of word <> 3 && to_d_of word then begin
    Prelude.Lane_counter.add f.f_ub mask;
    if not (to_m_of word) then Prelude.Lane_counter.add f.f_lb mask
  end

let lane_fold_bounds f ~n ~lanes =
  let sources = n - 2 in
  let lb = Prelude.Lane_counter.to_array f.f_lb ~lanes
  and ub = Prelude.Lane_counter.to_array f.f_ub ~lanes in
  Array.init lanes (fun l ->
      {
        lb = Prelude.Stats.fraction lb.(l) sources;
        ub = Prelude.Stats.fraction ub.(l) sources;
      })

let lane_bounds ~n b =
  let f = lane_fold ~n in
  Routing.Batch.iter_fixed b (fun ~v:_ ~mask ~word ~parent:_ ->
      lane_fold_add f ~mask ~word);
  lane_fold_bounds f ~n ~lanes:(Routing.Batch.lanes b)

(* Solve one item and fold the per-lane bounds off the groups. *)
let batch_item_bounds ~ws g policy dep pairs idxs item =
  let attackers =
    Array.map (fun j -> pairs.(idxs.(j)).attacker) item.bpos
  in
  lane_bounds ~n:(Topology.Graph.n g)
    (Routing.Batch.compute ~ws g policy dep ~dst:item.bdst ~attackers)

(* Evaluate [pairs.(idxs.(j))] for every [j], batched by destination.
   Returns bounds aligned with [idxs]. *)
let batched_map ?pool ?(domains = 1) g policy dep pairs idxs =
  let items = batch_items pairs idxs in
  let per_item =
    (* Items are few and coarse (one drain each): steal singly. *)
    Parallel.map ?pool ~domains ~chunk:1
      (fun item ->
        batch_item_bounds
          ~ws:(Routing.Batch.Workspace.local ())
          g policy dep pairs idxs item)
      items
  in
  let out = Array.make (Array.length idxs) { lb = 0.; ub = 0. } in
  Array.iteri
    (fun k item ->
      Array.iteri (fun l j -> out.(j) <- per_item.(k).(l)) item.bpos)
    items;
  out

(* Dense injective encoding of a policy for cache keys: the model index in
   the low bits, the local-preference variant above. *)
let lp_code (p : Routing.Policy.t) =
  let open Routing.Policy in
  match p.lp with Standard -> 0 | Lp_k k -> k

let policy_code (p : Routing.Policy.t) =
  let open Routing.Policy in
  let midx =
    match p.model with
    | Security_first -> 0
    | Security_second -> 1
    | Security_third -> 2
  in
  (lp_code p * 4) + midx

(* When the destination's origin is unsigned, no offer in the engine is
   ever secure: the attacker's announcement is plain BGP, and the
   destination's own root expands with [secure = false], so [is_full] is
   never consulted and the three models' rank encodings all collapse to
   the same (class, length) order.  The outcome — and hence the bounds —
   is therefore independent of both the security model and the
   deployment, and every policy sharing a local-preference variant can
   share one cache entry under one reserved version. *)
let normalized_code p = (lp_code p * 4) + 2

module Cache = struct
  module Sc = Prelude.Shard_cache

  type t = {
    store : bounds Sc.t;
    mu : Mutex.t; (* guards the version intern table *)
    mutable versions : (int * int * Deployment.t * int) list;
        (* (topology version, deployment fingerprint, deployment, id) *)
    mutable next : int;
  }

  let create ?shards () =
    {
      store = Sc.create ?shards ();
      mu = Mutex.create ();
      versions = [];
      next = 0;
    }

  let intern t g dep =
    let gv = Topology.Graph.version g in
    let fp = Deployment.fingerprint dep in
    Mutex.lock t.mu;
    let rec find = function
      | [] ->
          let v = t.next in
          t.next <- v + 1;
          t.versions <- (gv, fp, dep, v) :: t.versions;
          v
      | (gv', fp', dep', v) :: rest ->
          if gv' = gv && fp' = fp && Deployment.equal dep' dep then v
          else find rest
    in
    let v = find t.versions in
    Mutex.unlock t.mu;
    v

  (* The unsigned-destination slot must still distinguish topologies (the
     outcome is deployment- and model-independent, not graph-independent):
     one reserved negative version per graph, which can never collide
     with the interned ids (those count up from 0). *)
  let unsigned_version g = -1 - Topology.Graph.version g

  let key policy g dep ~version { attacker; dst } =
    if Deployment.signs_origin dep dst then
      { Sc.k1 = policy_code policy; k2 = version; k3 = attacker; k4 = dst }
    else
      (* See [normalized_code]: the outcome for an unsigned destination is
         independent of the model and the deployment, so all such entries
         share one slot per local-preference variant and topology. *)
      {
        Sc.k1 = normalized_code policy;
        k2 = unsigned_version g;
        k3 = attacker;
        k4 = dst;
      }

  (* [find t policy g dep ~version p] with [version = intern t g dep].
     The deployment is consulted only for key normalization (does
     [p.dst] sign?), the graph only for the unsigned-destination slot;
     the version carries the identity. *)
  let find t policy g dep ~version p =
    Sc.find t.store (key policy g dep ~version p)

  let store t policy g dep ~version p b =
    Sc.store t.store (key policy g dep ~version p) b

  let length t = Sc.length t.store
  let hits t = Sc.hits t.store
  let misses t = Sc.misses t.store

  (* Propagate clean pairs of a deployment step: any (attacker, dst) the
     dirty cone clears keeps its old-deployment value bit-for-bit, so the
     cached entry can be republished under the new version without touching
     the engine.  Returns how many entries were carried. *)
  let carry t policy g cone ~old_dep ~new_dep ~attackers ~dsts =
    let old_v = intern t g old_dep and new_v = intern t g new_dep in
    let carried = ref 0 in
    Array.iter
      (fun dst ->
        Array.iter
          (fun attacker ->
            if
              attacker <> dst
              && not (Routing.Incremental.dirty_pair cone ~attacker ~dst)
            then
              let p = { attacker; dst } in
              match find t policy g old_dep ~version:old_v p with
              | Some b ->
                  store t policy g new_dep ~version:new_v p b;
                  incr carried
              | None -> ())
          attackers)
      dsts;
    !carried
end

(* The H metric of a pair set: the mean of its per-pair bounds, summed
   in pair order. *)
let mean vals =
  let total = Array.length vals in
  if total = 0 then { lb = 0.; ub = 0. }
  else begin
    let lb = ref 0. and ub = ref 0. in
    Array.iter
      (fun b ->
        lb := !lb +. b.lb;
        ub := !ub +. b.ub)
      vals;
    { lb = !lb /. float_of_int total; ub = !ub /. float_of_int total }
  end

let h_metric ?pool ?(domains = 1) ?cache g policy dep pairs =
  let total = Array.length pairs in
  if total = 0 then { lb = 0.; ub = 0. }
  else begin
    let find, remember =
      match cache with
      | None -> ((fun _ -> None), fun _ _ -> ())
      | Some c ->
          let version = Cache.intern c g dep in
          ( (fun p -> Cache.find c policy g dep ~version p),
            fun p b -> Cache.store c policy g dep ~version p b )
    in
    (* Pre-resolve the cache per pair, then solve only the misses,
       destination-major, whole attacker words at a time. *)
    let vals = Array.make total { lb = 0.; ub = 0. } in
    let miss = ref [] in
    Array.iteri
      (fun i p ->
        match find p with
        | Some b -> vals.(i) <- b
        | None -> miss := i :: !miss)
      pairs;
    let idxs = Array.of_list (List.rev !miss) in
    if Array.length idxs > 0 then begin
      let out = batched_map ?pool ~domains g policy dep pairs idxs in
      Array.iteri
        (fun j i ->
          vals.(i) <- out.(j);
          remember pairs.(i) out.(j))
        idxs
    end;
    mean vals
  end

let h_metric_per_dst ?pool ?cache g policy dep ~attackers ~dst =
  let ps =
    Array.to_list attackers
    |> List.filter_map (fun m ->
           if m = dst then None else Some { attacker = m; dst })
    |> Array.of_list
  in
  h_metric ?pool ?cache g policy dep ps

module Evaluator = struct
  type stats = { computed : int; carried : int; cache_hits : int }

  type t = {
    g : Topology.Graph.t;
    policy : Routing.Policy.t;
    pairs : pair array;
    dsts : int array; (* distinct destinations of [pairs] *)
    pool : Parallel.Pool.t option;
    cache : Cache.t;
    mutable prev : (Deployment.t * bounds array) option;
    mutable st : stats;
  }

  let distinct_dsts pairs =
    let seen = Hashtbl.create 64 in
    let acc = ref [] in
    Array.iter
      (fun p ->
        if not (Hashtbl.mem seen p.dst) then begin
          Hashtbl.add seen p.dst ();
          acc := p.dst :: !acc
        end)
      pairs;
    Array.of_list !acc

  let create ?pool ?cache g policy pairs =
    let cache = match cache with Some c -> c | None -> Cache.create () in
    {
      g;
      policy;
      pairs = Array.copy pairs;
      dsts = distinct_dsts pairs;
      pool;
      cache;
      prev = None;
      st = { computed = 0; carried = 0; cache_hits = 0 };
    }

  let eval t dep =
    let version = Cache.intern t.cache t.g dep in
    let n = Array.length t.pairs in
    let vals = Array.make n { lb = 0.; ub = 0. } in
    let carried = ref 0 and hits = ref 0 in
    let to_compute = ref [] in
    let classify_fresh i p =
      match Cache.find t.cache t.policy t.g dep ~version p with
      | Some b ->
          vals.(i) <- b;
          incr hits
      | None -> to_compute := i :: !to_compute
    in
    (match t.prev with
    | Some (old_dep, old_vals) when Deployment.equal old_dep dep ->
        Array.blit old_vals 0 vals 0 n;
        carried := n
    | Some (old_dep, old_vals) ->
        let cone =
          Routing.Incremental.compute t.g ~old_dep ~new_dep:dep ~dsts:t.dsts
        in
        Array.iteri
          (fun i p ->
            if
              Routing.Incremental.dirty_pair cone ~attacker:p.attacker
                ~dst:p.dst
            then classify_fresh i p
            else begin
              vals.(i) <- old_vals.(i);
              incr carried
            end)
          t.pairs
    | None -> Array.iteri classify_fresh t.pairs);
    let idxs = Array.of_list (List.rev !to_compute) in
    if Array.length idxs > 0 then begin
      (* [idxs] holds only pairs the dirty cone (and caches) left
         standing, so clean attackers are already masked out of the lane
         words: a destination with one dirty attacker costs a 1-lane
         solve, not a full word. *)
      let out = batched_map ?pool:t.pool t.g t.policy dep t.pairs idxs in
      Array.iteri (fun j i -> vals.(i) <- out.(j)) idxs
    end;
    (* Publish every value (carried ones included) under the new version:
       sibling evaluators and plain [h_metric ~cache] calls sharing this
       cache then hit on the whole step. *)
    Array.iteri
      (fun i p -> Cache.store t.cache t.policy t.g dep ~version p vals.(i))
      t.pairs;
    t.prev <- Some (dep, vals);
    t.st <-
      {
        computed = t.st.computed + Array.length idxs;
        carried = t.st.carried + !carried;
        cache_hits = t.st.cache_hits + !hits;
      };
    mean vals

  let values t =
    match t.prev with
    | None -> invalid_arg "Evaluator.values: no deployment evaluated yet"
    | Some (_, vals) -> Array.copy vals

  let stats t = t.st
end

module Replay = struct
  (* Incremental evaluation along a *topology* trajectory: the
     deployment and the pair set stay put while the graph takes
     {!Topology.Graph.Delta} steps.  The pairs are grouped
     destination-major into the same ≤63-lane words as {!batched_map};
     each word retains the frozen group state of its last solve
     ({!Routing.Incremental.Topo.word_state}), and a step re-solves only
     the words the per-word influence test against that frozen state
     cannot prove untouched.  Carried words keep their bounds
     bit-for-bit (a clean verdict is a bit-identity guarantee, which the
     [topology] check pass enforces against scratch solves).

     Execution is sequential by design: the per-domain batch workspace
     is reused word to word (the frozen state is copied out before the
     next checkout), and replay steps are usually dominated by the few
     dirty words, not by fan-out. *)

  type stats = {
    steps : int;  (** delta steps taken *)
    words_solved : int;
    lanes_solved : int;  (** engine evals: one lane = one (m, d) solve *)
    lanes_carried : int;
  }

  type word = {
    w_dst : int;
    w_attackers : int array;
    w_pos : int array; (* indices into the pair array, one per lane *)
    mutable w_state : Routing.Incremental.Topo.word_state option;
  }

  type t = {
    r_policy : Routing.Policy.t;
    r_dep : Deployment.t;
    r_pairs : pair array;
    r_words : word array;
    mutable r_g : Topology.Graph.t;
    mutable r_vals : bounds array option;
    mutable r_st : stats;
  }

  let create g policy dep pairs =
    if Deployment.n dep <> Topology.Graph.n g then
      invalid_arg "Replay.create: deployment size disagrees with the graph";
    let pairs = Array.copy pairs in
    let words =
      Array.map
        (fun (dst, attackers, pos) ->
          { w_dst = dst; w_attackers = attackers; w_pos = pos; w_state = None })
        (batch_plan pairs)
    in
    {
      r_policy = policy;
      r_dep = dep;
      r_pairs = pairs;
      r_words = words;
      r_g = g;
      r_vals = None;
      r_st = { steps = 0; words_solved = 0; lanes_solved = 0; lanes_carried = 0 };
    }

  (* One batched solve of a word against the current graph: freeze the
     group state and fold the per-lane bounds off the groups in the same
     walk, before anything else touches the shared workspace. *)
  let solve_word t vals w =
    let n = Topology.Graph.n t.r_g in
    let b =
      Routing.Batch.compute
        ~ws:(Routing.Batch.Workspace.local ())
        t.r_g t.r_policy t.r_dep ~dst:w.w_dst ~attackers:w.w_attackers
    in
    let f = lane_fold ~n in
    w.w_state <-
      Some (Routing.Incremental.Topo.snapshot ~each:(lane_fold_add f) ~n b);
    let bounds = lane_fold_bounds f ~n ~lanes:(Routing.Batch.lanes b) in
    Array.iteri (fun l j -> vals.(j) <- bounds.(l)) w.w_pos

  let eval t =
    let vals =
      match t.r_vals with
      | Some v -> v
      | None -> Array.make (Array.length t.r_pairs) { lb = 0.; ub = 0. }
    in
    let lanes = ref 0 in
    Array.iter
      (fun w ->
        solve_word t vals w;
        lanes := !lanes + Array.length w.w_attackers)
      t.r_words;
    t.r_vals <- Some vals;
    t.r_st <-
      {
        t.r_st with
        words_solved = t.r_st.words_solved + Array.length t.r_words;
        lanes_solved = t.r_st.lanes_solved + !lanes;
      };
    mean vals

  let step t delta =
    let vals =
      match t.r_vals with
      | Some v -> v
      | None -> invalid_arg "Replay.step: eval the starting graph first"
    in
    let old_g = t.r_g in
    (* [apply] validates the delta; from here on a clean word verdict is
       a bit-identity guarantee against a scratch solve on [new_g]. *)
    t.r_g <- Topology.Graph.Delta.apply old_g delta;
    let solved = ref 0 and lanes_solved = ref 0 and lanes_carried = ref 0 in
    Array.iter
      (fun w ->
        let dirty =
          match w.w_state with
          | None -> true
          | Some st ->
              Routing.Incremental.Topo.influenced st t.r_dep t.r_policy
                ~old_graph:old_g ~delta
        in
        if dirty then begin
          solve_word t vals w;
          incr solved;
          lanes_solved := !lanes_solved + Array.length w.w_attackers
        end
        else lanes_carried := !lanes_carried + Array.length w.w_attackers)
      t.r_words;
    t.r_st <-
      {
        steps = t.r_st.steps + 1;
        words_solved = t.r_st.words_solved + !solved;
        lanes_solved = t.r_st.lanes_solved + !lanes_solved;
        lanes_carried = t.r_st.lanes_carried + !lanes_carried;
      };
    mean vals

  let values t =
    match t.r_vals with
    | None -> invalid_arg "Replay.values: no graph evaluated yet"
    | Some vals -> Array.copy vals

  let graph t = t.r_g
  let stats t = t.r_st
end
