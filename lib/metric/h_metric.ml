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

(* One batched solve: destination [dst] against the attackers of the
   pairs at [pos] (positions into the planned pair array).  Declared
   before [pair], whose [dst] an unannotated field access then reads. *)
type word = { dst : int; attackers : int array; pos : int array }

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
   label-setting drain per <= 63 attackers.  The drain counts each lane's
   sources by the endpoints of their stable routes as it settles them
   ({!Routing.Batch.endpoints}), so no per-attacker outcome record is
   ever materialized and no walk over the groups follows the solve.  The
   counts — and via [Stats.fraction] the float bounds — are bit-identical
   to [to_bounds (happy outcome)] of a scalar {!pair_bounds}. *)

(* A source is happy in the pessimistic world when every best route
   leads to the destination, in the optimistic one when some does; the
   sources are every AS but the destination and the attacker. *)
let endpoint_bounds ~n (e : Routing.Batch.endpoints) =
  let sources = n - 2 in
  {
    lb = Prelude.Stats.fraction e.d_only sources;
    ub = Prelude.Stats.fraction (e.d_only + e.both) sources;
  }

let no_endpoints = { Routing.Batch.d_only = 0; m_only = 0; both = 0 }

(* Group the pair positions by destination (first-seen order, keyed
   lookups only — no Hashtbl iteration) and chunk each destination's
   positions into full words, so a destination's words are
   consecutive. *)
let plan pairs =
  let lanes = Routing.Batch.max_lanes in
  let by_dst = Hashtbl.create 64 and order = ref [] in
  Array.iteri
    (fun i p ->
      match Hashtbl.find_opt by_dst p.dst with
      | Some l -> l := i :: !l
      | None ->
          let l = ref [ i ] in
          Hashtbl.add by_dst p.dst l;
          order := (p.dst, l) :: !order)
    pairs;
  List.rev !order
  |> List.concat_map (fun (dst, l) ->
         let slots = Array.of_list (List.rev !l) in
         let total = Array.length slots in
         List.init ((total + lanes - 1) / lanes) (fun k ->
             let pos = Array.sub slots (k * lanes) (min lanes (total - (k * lanes))) in
             { dst; attackers = Array.map (fun j -> pairs.(j).attacker) pos; pos }))
  |> Array.of_list

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
    store : Routing.Batch.endpoints Sc.t;
    mu : Mutex.t; (* guards the version intern table *)
    mutable versions : (int * int * Deployment.t * int) list;
        (* (topology version, deployment fingerprint, deployment, id) *)
    mutable next : int;
  }

  let create () =
    { store = Sc.create (); mu = Mutex.create (); versions = []; next = 0 }

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

  (* The attacker's claimed path length is part of the routing state:
     [claim * n + attacker] is injective for a fixed graph, and the
     version already tells graphs apart. *)
  let key policy g dep ~version ~claim { attacker; dst } =
    let k3 = (claim * Topology.Graph.n g) + attacker in
    if Deployment.signs_origin dep dst then
      { Sc.k1 = policy_code policy; k2 = version; k3; k4 = dst }
    else
      (* See [normalized_code]: the outcome for an unsigned destination is
         independent of the model and the deployment, so all such entries
         share one slot per local-preference variant, claim and
         topology. *)
      { Sc.k1 = normalized_code policy; k2 = unsigned_version g; k3; k4 = dst }

  (* [find t policy g dep ~version ~claim p] with [version = intern t g
     dep].  The deployment is consulted only for key normalization (does
     [p.dst] sign?), the graph only for the unsigned-destination slot
     and the claim's stride; the version carries the identity. *)
  let find t policy g dep ~version ~claim p =
    Sc.find t.store (key policy g dep ~version ~claim p)

  let store t policy g dep ~version ~claim p e =
    Sc.store t.store (key policy g dep ~version ~claim p) e

  let length t = Sc.length t.store
  let hits t = Sc.hits t.store
  let misses t = Sc.misses t.store

  (* Propagate clean pairs of a deployment step: any pair the dirty cone
     clears keeps its old-deployment value bit-for-bit, so the cached
     entry can be republished under the new version without touching
     the engine.  Returns how many entries were carried. *)
  let carry t policy g cone ~old_dep ~new_dep pairs =
    let old_v = intern t g old_dep and new_v = intern t g new_dep in
    let carried = ref 0 in
    Array.iter
      (fun p ->
        if not (Routing.Incremental.dirty_pair cone ~attacker:p.attacker ~dst:p.dst)
        then
          match find t policy g old_dep ~version:old_v ~claim:1 p with
          | Some e ->
              store t policy g new_dep ~version:new_v ~claim:1 p e;
              incr carried
          | None -> ())
      pairs;
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

(* The one solver: one batched solve per planned word, on the domain's
   private workspace, with [f]'s per-lane values scattered back by pair
   position.  Words are few and coarse (one drain each): steal singly.
   With [cache], every lane's endpoint counts are stored under the slot
   [pair_endpoints] reads. *)
let map_words ?pool ?(domains = 1) ?cache ?(attacker_claim = 1) g policy dep
    pairs f =
  let total = Array.length pairs in
  let remember =
    match cache with
    | Some c when total > 0 ->
        let version = Cache.intern c g dep in
        fun (w : word) b ->
          Array.iteri
            (fun l e ->
              Cache.store c policy g dep ~version ~claim:attacker_claim
                pairs.(w.pos.(l)) e)
            (Routing.Batch.endpoints b)
    | Some _ | None -> fun _ _ -> ()
  in
  let words = plan pairs in
  let per_word =
    Parallel.map ?pool ~domains ~chunk:1
      (fun (w : word) ->
        let b =
          Routing.Batch.compute
            ~ws:(Routing.Batch.Workspace.local ())
            ~attacker_claim g policy dep ~dst:w.dst ~attackers:w.attackers
        in
        remember w b;
        f ~dst:w.dst ~attackers:w.attackers b)
      words
  in
  if total = 0 then [||]
  else begin
    let out = Array.make total per_word.(0).(0) in
    Array.iteri
      (fun k w -> Array.iteri (fun l j -> out.(j) <- per_word.(k).(l)) w.pos)
      words;
    out
  end

(* Pre-resolve the cache per pair, then solve only the misses through
   [map_words]; also returns how many pairs were solved. *)
let resolve ?pool ?domains ?cache ?(attacker_claim = 1) g policy dep pairs =
  let vals = Array.make (Array.length pairs) no_endpoints in
  let find =
    match cache with
    | Some c when Array.length pairs > 0 ->
        let version = Cache.intern c g dep in
        fun p -> Cache.find c policy g dep ~version ~claim:attacker_claim p
    | Some _ | None -> fun _ -> None
  in
  let miss = ref [] in
  Array.iteri
    (fun i p ->
      match find p with Some e -> vals.(i) <- e | None -> miss := i :: !miss)
    pairs;
  let idxs = Array.of_list (List.rev !miss) in
  let solved =
    map_words ?pool ?domains ?cache ~attacker_claim g policy dep
      (Array.map (fun i -> pairs.(i)) idxs)
      (fun ~dst:_ ~attackers:_ b -> Routing.Batch.endpoints b)
  in
  Array.iteri (fun j i -> vals.(i) <- solved.(j)) idxs;
  (vals, Array.length idxs)

let pair_endpoints ?pool ?domains ?cache ?attacker_claim g policy dep pairs =
  fst (resolve ?pool ?domains ?cache ?attacker_claim g policy dep pairs)

let h_metric ?pool ?domains ?cache ?attacker_claim g policy dep pairs =
  let n = Topology.Graph.n g in
  mean
    (Array.map (endpoint_bounds ~n)
       (pair_endpoints ?pool ?domains ?cache ?attacker_claim g policy dep pairs))

module Evaluator = struct
  type stats = { computed : int }

  type t = {
    g : Topology.Graph.t;
    policy : Routing.Policy.t;
    pairs : pair array;
    dsts : int array; (* the planned words' destinations *)
    pool : Parallel.Pool.t option;
    cache : Cache.t;
    mutable prev : (Deployment.t * Routing.Batch.endpoints array) option;
    mutable computed : int;
  }

  let create ?pool ?cache g policy pairs =
    let cache = match cache with Some c -> c | None -> Cache.create () in
    {
      g;
      policy;
      pairs = Array.copy pairs;
      dsts = Array.map (fun (w : word) -> w.dst) (plan pairs);
      pool;
      cache;
      prev = None;
      computed = 0;
    }

  (* Every value of the previous step sits in the cache under its
     deployment, so carrying the cone-clean pairs to [dep] leaves only
     the dirty, uncached ones for [resolve] to solve: a destination with
     one dirty attacker costs a 1-lane solve, not a full word. *)
  let eval t dep =
    (match t.prev with
    | Some (old_dep, _) when not (Deployment.equal old_dep dep) ->
        let cone =
          Routing.Incremental.compute t.g ~old_dep ~new_dep:dep ~dsts:t.dsts
        in
        ignore (Cache.carry t.cache t.policy t.g cone ~old_dep ~new_dep:dep t.pairs : int)
    | Some _ | None -> ());
    let vals, solved =
      resolve ?pool:t.pool ~cache:t.cache t.g t.policy dep t.pairs
    in
    t.prev <- Some (dep, vals);
    t.computed <- t.computed + solved;
    mean (Array.map (endpoint_bounds ~n:(Topology.Graph.n t.g)) vals)

  let values t =
    match t.prev with
    | None -> invalid_arg "Evaluator.values: no deployment evaluated yet"
    | Some (_, vals) -> Array.map (endpoint_bounds ~n:(Topology.Graph.n t.g)) vals

  let stats t = { computed = t.computed }
end

module Replay = struct
  (* Incremental evaluation along a *topology* trajectory: the
     deployment and the pair set stay put while the graph takes
     {!Topology.Graph.Delta} steps.  The pairs are grouped into the
     words of {!plan}; each word retains the frozen group state of its
     last solve ({!Routing.Incremental.Topo.word_state}), and a step
     re-solves only the words the per-word influence test against that
     frozen state cannot prove untouched.  Carried words keep their
     bounds bit-for-bit (a clean verdict is a bit-identity guarantee,
     which the [topology] check pass enforces against scratch solves).

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

  type t = {
    r_policy : Routing.Policy.t;
    r_dep : Deployment.t;
    r_npairs : int;
    r_words : word array;
    r_states : Routing.Incremental.Topo.word_state option array;
    mutable r_g : Topology.Graph.t;
    mutable r_vals : bounds array option;
    mutable r_st : stats;
  }

  let create g policy dep pairs =
    if Deployment.n dep <> Topology.Graph.n g then
      invalid_arg "Replay.create: deployment size disagrees with the graph";
    let words = plan pairs in
    {
      r_policy = policy;
      r_dep = dep;
      r_npairs = Array.length pairs;
      r_words = words;
      r_states = Array.make (Array.length words) None;
      r_g = g;
      r_vals = None;
      r_st = { steps = 0; words_solved = 0; lanes_solved = 0; lanes_carried = 0 };
    }

  (* One batched solve of word [k] against the current graph: freeze the
     group state and read the drain's per-lane counts, before anything
     else touches the shared workspace. *)
  let solve_word t vals k =
    let n = Topology.Graph.n t.r_g in
    let w = t.r_words.(k) in
    let b =
      Routing.Batch.compute
        ~ws:(Routing.Batch.Workspace.local ())
        t.r_g t.r_policy t.r_dep ~dst:w.dst ~attackers:w.attackers
    in
    t.r_states.(k) <- Some (Routing.Incremental.Topo.snapshot ~n b);
    Array.iteri
      (fun l e -> vals.(w.pos.(l)) <- endpoint_bounds ~n e)
      (Routing.Batch.endpoints b)

  let eval t =
    let vals =
      match t.r_vals with
      | Some v -> v
      | None -> Array.make t.r_npairs { lb = 0.; ub = 0. }
    in
    Array.iteri (fun k _ -> solve_word t vals k) t.r_words;
    t.r_vals <- Some vals;
    t.r_st <-
      {
        t.r_st with
        words_solved = t.r_st.words_solved + Array.length t.r_words;
        lanes_solved = t.r_st.lanes_solved + t.r_npairs;
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
    Array.iteri
      (fun k w ->
        let lanes = Array.length w.attackers in
        let dirty =
          match t.r_states.(k) with
          | None -> true
          | Some st ->
              Routing.Incremental.Topo.influenced st t.r_dep t.r_policy
                ~old_graph:old_g ~delta
        in
        if dirty then begin
          solve_word t vals k;
          incr solved;
          lanes_solved := !lanes_solved + lanes
        end
        else lanes_carried := !lanes_carried + lanes)
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
