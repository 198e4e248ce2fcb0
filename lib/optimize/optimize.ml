module M = Metric.H_metric

type objective = [ `Lb | `Ub ]

let happy_with ?(objective = `Lb) g policy dep ~attacker ~dst =
  let outcome =
    Routing.Engine.compute g policy dep ~dst ~attacker:(Some attacker)
  in
  let counts = M.happy outcome in
  match objective with
  | `Lb -> counts.M.happy_lb
  | `Ub -> counts.M.happy_ub

(* Enumerate k-subsets of [candidates], invoking [f] on each (as a list). *)
let iter_subsets candidates k f =
  let n = Array.length candidates in
  if k < 0 || k > n then
    invalid_arg
      (Printf.sprintf
         "Optimize.iter_subsets: k = %d out of range for %d candidates" k n);
  let rec go start chosen remaining =
    if remaining = 0 then f (List.rev chosen)
    else
      for i = start to n - remaining do
        go (i + 1) (candidates.(i) :: chosen) (remaining - 1)
      done
  in
  go 0 [] k

module Max_k = struct
  type step = {
    pick : int;
    gain : float;
    score : M.bounds;
    engine_evals : int;
    gain_evals : int;
  }

  type result = {
    chosen : int array;
    requested : int;
    achieved : int;
    baseline : M.bounds;
    score : M.bounds;
    steps : step array;
    engine_evals : int;
    gain_evals : int;
  }

  type fault = Trust_stale_gains | Flip_queue_priority

  let validate name g ?base ~pairs ~k ~candidates () =
    let n = Topology.Graph.n g in
    if k < 0 then
      invalid_arg (Printf.sprintf "Optimize.Max_k.%s: k = %d < 0" name k);
    if Array.length pairs = 0 then
      invalid_arg (Printf.sprintf "Optimize.Max_k.%s: empty pair set" name);
    Array.iter
      (fun c ->
        if c < 0 || c >= n then
          invalid_arg
            (Printf.sprintf
               "Optimize.Max_k.%s: candidate AS %d outside [0, %d)" name c n))
      candidates;
    match base with
    | Some b when Deployment.n b <> n ->
        invalid_arg
          (Printf.sprintf
             "Optimize.Max_k.%s: base deployment has %d ASes, graph has %d"
             name (Deployment.n b) n)
    | Some b -> b
    | None -> Deployment.empty n

  let obj objective (b : M.bounds) =
    match objective with `Lb -> b.M.lb | `Ub -> b.M.ub

  (* [dep] with AS [v] upgraded to Full (the greedy step). *)
  let add_full dep v =
    Deployment.of_modes
      (Array.init (Deployment.n dep) (fun u ->
           if u = v then Deployment.Full else Deployment.mode dep u))

  (* Distinct values in first-seen order (deterministic). *)
  let distinct xs =
    let seen = Hashtbl.create 16 in
    let out = ref [] in
    Array.iter
      (fun x ->
        if not (Hashtbl.mem seen x) then begin
          Hashtbl.add seen x ();
          out := x :: !out
        end)
      xs;
    Array.of_list (List.rev !out)

  (* The specification greedy: from-scratch h_metric per candidate per
     round.  Optimizes [objective] of the pair-set bounds; gains are the
     same float subtraction CELF uses, and ties keep the earliest
     candidate position, so the two solvers are comparable bit-for-bit. *)
  let greedy ?pool ?(objective = `Lb) ?base g policy ~pairs ~k ~candidates =
    let base = validate "greedy" g ?base ~pairs ~k ~candidates () in
    let npairs = Array.length pairs in
    let in_chosen = Prelude.Bitset.create (Topology.Graph.n g) in
    let baseline = M.h_metric ?pool g policy base pairs in
    let engine_evals = ref npairs in
    let gain_evals = ref 0 in
    let cur_dep = ref base in
    let cur_score = ref baseline in
    let chosen = ref [] in
    let steps = ref [] in
    (try
       for _ = 1 to k do
         let round_engine = ref 0 in
         let round_gains = ref 0 in
         let best = ref None in
         Array.iter
           (fun c ->
             if not (Prelude.Bitset.mem in_chosen c) then begin
               let dep = add_full !cur_dep c in
               let s = M.h_metric ?pool g policy dep pairs in
               round_engine := !round_engine + npairs;
               incr round_gains;
               let gain = obj objective s -. obj objective !cur_score in
               match !best with
               | Some (bg, _, _, _) when Float.compare gain bg <= 0 -> ()
               | _ -> best := Some (gain, c, dep, s)
             end)
           candidates;
         engine_evals := !engine_evals + !round_engine;
         gain_evals := !gain_evals + !round_gains;
         match !best with
         | Some (gain, c, dep, s) ->
             Prelude.Bitset.add in_chosen c;
             chosen := c :: !chosen;
             cur_dep := dep;
             cur_score := s;
             steps :=
               {
                 pick = c;
                 gain;
                 score = s;
                 engine_evals = !round_engine;
                 gain_evals = !round_gains;
               }
               :: !steps
         | None -> raise Exit (* candidates exhausted: stop early *)
       done
     with Exit -> ());
    let steps = Array.of_list (List.rev !steps) in
    {
      chosen = Array.of_list (List.rev !chosen);
      requested = k;
      achieved = Array.length steps;
      baseline;
      score = !cur_score;
      steps;
      engine_evals = !engine_evals;
      gain_evals = !gain_evals;
    }

  (* ---- the CELF lazy greedy -------------------------------------- *)

  (* A queue entry remembers the deployment and score it was last
     evaluated against, so a re-score can carry the cache along the
     monotone chain from that deployment to the current prefix. *)
  type entry = {
    e_cand : int;
    e_pos : int;  (* position in [candidates]: the deterministic tiebreak *)
    mutable e_gain : float;
    mutable e_round : int;  (* number of picks made when last scored *)
    mutable e_dep : Deployment.t;
    mutable e_score : M.bounds;
  }

  (* Binary max-heap ordered by gain (desc), then candidate position
     (asc) — exactly the order in which the naive greedy would visit
     equal gains.  [flip] inverts the gain comparison (the
     Flip_queue_priority fault). *)
  module Heap = struct
    type t = { slots : entry option array; mutable size : int; flip : bool }

    let create capacity flip =
      { slots = Array.make (max 1 capacity) None; size = 0; flip }

    let get h i =
      match h.slots.(i) with
      | Some e -> e
      | None -> assert false

    let beats h a b =
      let c = Float.compare a.e_gain b.e_gain in
      if c <> 0 then if h.flip then c < 0 else c > 0
      else a.e_pos < b.e_pos

    let swap h i j =
      let tmp = h.slots.(i) in
      h.slots.(i) <- h.slots.(j);
      h.slots.(j) <- tmp

    let rec sift_up h i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if beats h (get h i) (get h parent) then begin
          swap h i parent;
          sift_up h parent
        end
      end

    let rec sift_down h i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let best = ref i in
      if l < h.size && beats h (get h l) (get h !best) then best := l;
      if r < h.size && beats h (get h r) (get h !best) then best := r;
      if !best <> i then begin
        swap h i !best;
        sift_down h !best
      end

    let push h e =
      h.slots.(h.size) <- Some e;
      h.size <- h.size + 1;
      sift_up h (h.size - 1)

    let pop h =
      if h.size = 0 then None
      else begin
        let top = get h 0 in
        h.size <- h.size - 1;
        h.slots.(0) <- h.slots.(h.size);
        h.slots.(h.size) <- None;
        if h.size > 0 then sift_down h 0;
        Some top
      end
  end

  let celf ?pool ?cache ?(objective = `Lb) ?base ?fault g policy ~pairs ~k
      ~candidates =
    let n = Topology.Graph.n g in
    let base = validate "celf" g ?base ~pairs ~k ~candidates () in
    let cache = match cache with Some c -> c | None -> M.Cache.create () in
    let ev = M.Evaluator.create ?pool ~cache g policy pairs in
    let attackers = distinct (Array.map (fun p -> p.M.attacker) pairs) in
    let dsts = distinct (Array.map (fun p -> p.M.dst) pairs) in
    let baseline = M.Evaluator.eval ev base in
    let engine_mark = ref (M.Evaluator.stats ev).M.Evaluator.computed in
    let gain_evals = ref 0 in
    let heap =
      Heap.create (Array.length candidates) (fault = Some Flip_queue_priority)
    in
    let in_chosen = Prelude.Bitset.create (Topology.Graph.n g) in
    let cur_dep = ref base in
    let cur_score = ref baseline in
    let picked = ref 0 in
    (* Score a candidate against the current prefix, carrying the cache
       along its monotone chain from wherever it was last scored. *)
    let rescore e =
      let d = add_full !cur_dep e.e_cand in
      if not (Deployment.equal e.e_dep d) then begin
        let cone =
          Routing.Incremental.compute g ~old_dep:e.e_dep ~new_dep:d ~dsts
        in
        ignore
          (M.Cache.carry cache policy g cone ~old_dep:e.e_dep ~new_dep:d
             ~attackers ~dsts
            : int)
      end;
      let s = M.Evaluator.eval ev d in
      incr gain_evals;
      e.e_gain <- obj objective s -. obj objective !cur_score;
      e.e_round <- !picked;
      e.e_dep <- d;
      e.e_score <- s
    in
    (* Initial scoring round: every candidate against [base]. *)
    Array.iteri
      (fun i c ->
        let d = add_full base c in
        let s = M.Evaluator.eval ev d in
        incr gain_evals;
        Heap.push heap
          {
            e_cand = c;
            e_pos = i;
            e_gain = obj objective s -. obj objective baseline;
            e_round = 0;
            e_dep = d;
            e_score = s;
          })
      candidates;
    (* The dirty-round guard.  H is not proven submodular: a pick can
       RAISE a queued candidate's gain (secure paths need contiguous
       Full segments, so candidates complement each other), and a grown
       gain hiding under a stale key is exactly what lazy popping would
       miss.  After picking [p] we therefore ask, with one dirty-cone
       computation, whether any queued gain can have changed at all.
       Every deployment either solver compares this round is a subset of
       "current prefix + every unchosen candidate Full", and the
       secure-perceivable cone only grows with the Full set — so if no
       pair is dirty under that dominating delta (candidates Full on
       both sides, only [p] changing), every pair value, hence every
       queued gain, is bit-unchanged.  Clean verdict: the queue order
       stays exact and laziness is sound.  Dirty verdict: all entries
       scored before this round are re-swept (through the evaluator, so
       a re-score still only pays for its own dirty cone).  This keeps
       CELF bit-identical to the naive greedy by construction; the
       optimize check pass holds it to that. *)
    let in_candidates = Prelude.Bitset.create n in
    Array.iter (fun c -> Prelude.Bitset.add in_candidates c) candidates;
    let gains_unchanged ~prefix pick =
      let old_modes =
        Array.init n (fun u ->
            if
              u <> pick
              && Prelude.Bitset.mem in_candidates u
              && not (Prelude.Bitset.mem in_chosen u)
            then Deployment.Full
            else Deployment.mode prefix u)
      in
      let new_modes = Array.copy old_modes in
      new_modes.(pick) <- Deployment.Full;
      let cone =
        Routing.Incremental.compute g
          ~old_dep:(Deployment.of_modes old_modes)
          ~new_dep:(Deployment.of_modes new_modes)
          ~dsts
      in
      Array.for_all
        (fun (p : M.pair) ->
          not
            (Routing.Incremental.dirty_pair cone ~attacker:p.M.attacker
               ~dst:p.M.dst))
        pairs
    in
    (* Entries scored before [suspect_from] picks were made may carry an
       underestimated gain; the sweep re-scores them all before any
       further selection (heap keys change, so it rebuilds the heap). *)
    let suspect_from = ref 0 in
    let sweep () =
      for i = 0 to heap.Heap.size - 1 do
        let e = Heap.get heap i in
        if
          e.e_round < !picked && not (Prelude.Bitset.mem in_chosen e.e_cand)
        then rescore e
      done;
      for i = (heap.Heap.size / 2) - 1 downto 0 do
        Heap.sift_down heap i
      done
    in
    (* Pop until the top is fresh for the current prefix; stale entries
       are re-scored and pushed back (unless the Trust_stale_gains fault
       is active, which selects them as-is — the planted bug the
       optimize check pass must catch). *)
    let rec settle () =
      match Heap.pop heap with
      | None -> None
      | Some e when Prelude.Bitset.mem in_chosen e.e_cand ->
          settle () (* duplicate candidate id already selected *)
      | Some e when e.e_round = !picked -> Some e
      | Some e when fault = Some Trust_stale_gains -> Some e
      | Some e ->
          rescore e;
          Heap.push heap e;
          settle ()
    in
    let steps = ref [] in
    (try
       for round = 1 to k do
         if
           !picked > 0
           && !suspect_from = !picked
           && fault <> Some Trust_stale_gains
         then sweep ();
         match settle () with
         | None -> raise Exit (* candidates exhausted: stop early *)
         | Some e ->
             let stale = e.e_round <> !picked in
             if stale then begin
               (* Trust_stale_gains selected an out-of-date entry: the
                  trajectory still needs the true score of the extended
                  prefix, but the (buggy) credited gain stays stale. *)
               let stale_gain = e.e_gain in
               rescore e;
               e.e_gain <- stale_gain
             end;
             let prefix = !cur_dep in
             Prelude.Bitset.add in_chosen e.e_cand;
             incr picked;
             cur_dep := e.e_dep;
             cur_score := e.e_score;
             if
               round < k
               && fault <> Some Trust_stale_gains
               && not (gains_unchanged ~prefix e.e_cand)
             then suspect_from := !picked;
             let computed = (M.Evaluator.stats ev).M.Evaluator.computed in
             let round_engine = computed - !engine_mark in
             engine_mark := computed;
             steps :=
               {
                 pick = e.e_cand;
                 gain = e.e_gain;
                 score = e.e_score;
                 engine_evals = round_engine;
                 gain_evals = 0;
               }
               :: !steps
       done
     with Exit -> ());
    (* Attribute candidate scorings to rounds after the fact: the heap
       interleaves them, so only the total is meaningful per round; the
       initial scoring round is charged to the first step. *)
    let steps = Array.of_list (List.rev !steps) in
    let total_gain_evals = !gain_evals in
    let steps =
      Array.mapi
        (fun i (s : step) ->
          if i = 0 then { s with gain_evals = total_gain_evals } else s)
        steps
    in
    {
      chosen = Array.map (fun s -> s.pick) steps;
      requested = k;
      achieved = Array.length steps;
      baseline;
      score = !cur_score;
      steps;
      engine_evals = (M.Evaluator.stats ev).M.Evaluator.computed;
      gain_evals = total_gain_evals;
    }
end

module Set_cover = struct
  type instance = { universe : int; sets : int list array }

  type built = {
    graph : Topology.Graph.t;
    dst : int;
    attacker : int;
    element_as : int array;
    set_as : int array;
  }

  let build inst =
    let w = Array.length inst.sets in
    (* Ids: dst = 0, attacker = 1, elements 2 .. universe+1, sets after.
       The attacker gets a lower id than any element's other neighbors so
       that deterministic lowest-next-hop tiebreaks also prefer it, as the
       reduction requires (our lower-bound semantics requires nothing). *)
    let dst = 0 and attacker = 1 in
    let element_as = Array.init inst.universe (fun i -> 2 + i) in
    let set_as = Array.init w (fun j -> 2 + inst.universe + j) in
    let edges = ref [] in
    (* The destination is a customer of every set AS. *)
    Array.iter
      (fun s -> edges := Topology.Graph.Customer_provider (dst, s) :: !edges)
      set_as;
    (* The attacker is a customer of every element AS. *)
    Array.iter
      (fun e ->
        edges := Topology.Graph.Customer_provider (attacker, e) :: !edges)
      element_as;
    (* Element i is a provider of set j iff i is in set j. *)
    Array.iteri
      (fun j elems ->
        List.iter
          (fun i ->
            edges :=
              Topology.Graph.Customer_provider (set_as.(j), element_as.(i))
              :: !edges)
          elems)
      inst.sets;
    let graph = Topology.Graph.of_edges ~n:(2 + inst.universe + w) !edges in
    { graph; dst; attacker; element_as; set_as }

  (* Covering with at most gamma sets is monotone in gamma, so clamping
     the budget into [0, w] decides the same question — and keeps
     iter_subsets' range validation out of callers' way. *)
  let clamp_gamma ~w gamma = min (max gamma 0) w

  let cover_exists inst ~gamma =
    let w = Array.length inst.sets in
    let gamma = clamp_gamma ~w gamma in
    let found = ref false in
    iter_subsets (Array.init w (fun j -> j)) gamma (fun subset ->
        if not !found then begin
          let covered = Array.make inst.universe false in
          List.iter
            (fun j -> List.iter (fun i -> covered.(i) <- true) inst.sets.(j))
            subset;
          if Array.for_all (fun c -> c) covered then found := true
        end);
    !found

  let security_achievable built ~gamma =
    let policy = Routing.Policy.make Routing.Policy.Security_third in
    let w = Array.length built.set_as in
    let gamma = clamp_gamma ~w gamma in
    let all_sources =
      Topology.Graph.n built.graph - 2 (* everyone but dst and attacker *)
    in
    let found = ref false in
    iter_subsets built.set_as gamma (fun subset ->
        if not !found then begin
          let full =
            Array.concat
              [ [| built.dst |]; built.element_as; Array.of_list subset ]
          in
          let dep = Deployment.make ~n:(Topology.Graph.n built.graph) ~full () in
          let happy =
            happy_with built.graph policy dep ~attacker:built.attacker
              ~dst:built.dst
          in
          if happy = all_sources then found := true
        end);
    !found
end
