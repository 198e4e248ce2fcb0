type announcement = { path : int list; len : int; signed : bool }

(* Adjacency comes from the graph's CSR (see {!Topology.Graph.Csr}): the
   row of [v] is the slot range [xs.{3v} .. xs.{3v+3}), split into the
   customer, peer and provider segments, each sorted ascending.  A slot
   names one directed adjacency, so the RIBs and the failed-link flags
   are flat arrays indexed by slot. *)
type t = {
  graph : Topology.Graph.t;
  policy_of : int -> Routing.Policy.t;
  dep : Deployment.t;
  dst : int;
  attacker : int; (* -1 when there is none *)
  hysteresis : bool;
  mutable attack_active : bool;
  adj : Topology.Graph.ints;
  xs : Topology.Graph.ints;
  ribs : announcement option array;
      (* ribs.(i), for slot i in v's row: what adj.{i} announces to v *)
  down : bool array; (* down.(i): the link of slot i has failed *)
  chosen : announcement option array;
  via : int array; (* slot of the chosen route's next hop; -1 for none *)
  dirty : bool array; (* the RIB was written since the last activation *)
}

let is_root t v = v = t.dst || v = t.attacker

(* Segment of slot [i] in [v]'s row: 0 customers, 1 peers, 2 providers. *)
let segment t v i =
  if i < t.xs.{(3 * v) + 1} then 0 else if i < t.xs.{(3 * v) + 2} then 1 else 2

let class_of_segment = function
  | 0 -> Routing.Policy.Customer
  | 1 -> Routing.Policy.Peer
  | _ -> Routing.Policy.Provider

(* Index of [u] in the sorted slot range [lo, hi), or -1. *)
let rec search adj lo hi u =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let x = adj.{mid} in
    if x = u then mid
    else if x < u then search adj (mid + 1) hi u
    else search adj lo mid u

(* The slot of neighbor [u] in [v]'s row. *)
let slot t v u =
  let rec go k =
    if k = 3 then
      invalid_arg (Printf.sprintf "Bgpsim: %d and %d are not neighbors" v u)
    else
      let i = search t.adj t.xs.{(3 * v) + k} t.xs.{(3 * v) + k + 1} u in
      if i >= 0 then i else go (k + 1)
  in
  go 0

(* Write [w]'s RIB slot [j]; a changed slot makes [w] dirty. *)
let write t w j value =
  if t.ribs.(j) != value then begin
    t.ribs.(j) <- value;
    t.dirty.(w) <- true
  end

(* What [v] currently announces, if anything. *)
let announcement_of t v =
  if v = t.dst then
    Some
      { path = [ t.dst ]; len = 1; signed = Deployment.signs_origin t.dep t.dst }
  else if v = t.attacker then
    if t.attack_active then Some { path = [ v; t.dst ]; len = 2; signed = false }
    else None
  else
    match t.chosen.(v) with
    | None -> None
    | Some ann ->
        Some
          {
            path = v :: ann.path;
            len = ann.len + 1;
            signed = ann.signed && Deployment.is_full t.dep v;
          }

(* Ex: a root or an AS on a customer route announces to every neighbor;
   any other AS only to its customers. *)
let exports_to_all t v =
  is_root t v || (t.via.(v) >= 0 && segment t v t.via.(v) = 0)

(* Refresh the RIB entry for [v] of the neighbor at slot [i] of [v]'s row,
   which sits in segment [k]; [w]'s segment for [v] is the mirror one. *)
let send t v ann ~to_all k i =
  let w = t.adj.{i} in
  let j = search t.adj t.xs.{(3 * w) + 2 - k} t.xs.{(3 * w) + 3 - k} v in
  write t w j (if (k = 0 || to_all) && not t.down.(i) then ann else None)

let broadcast t v =
  let ann = announcement_of t v in
  let to_all = exports_to_all t v in
  for k = 0 to 2 do
    for i = t.xs.{(3 * v) + k} to t.xs.{(3 * v) + k + 1} - 1 do
      send t v ann ~to_all k i
    done
  done

let create ?policy_of ?(hysteresis = false) graph policy dep ~dst ?attacker () =
  let n = Topology.Graph.n graph in
  if dst < 0 || dst >= n then invalid_arg "Bgpsim.create: dst out of range";
  (match attacker with
  | Some m when m < 0 || m >= n || m = dst ->
      invalid_arg "Bgpsim.create: bad attacker"
  | Some _ | None -> ());
  let { Topology.Graph.Csr.adj; xs } = Topology.Graph.csr graph in
  let slots = xs.{3 * n} in
  let t =
    {
      graph;
      policy_of = (match policy_of with Some f -> f | None -> fun _ -> policy);
      dep;
      dst;
      attacker = Option.value attacker ~default:(-1);
      hysteresis;
      attack_active = true;
      adj;
      xs;
      ribs = Array.make slots None;
      down = Array.make slots false;
      chosen = Array.make n None;
      via = Array.make n (-1);
      dirty = Array.make n false;
    }
  in
  broadcast t dst;
  if t.attacker >= 0 then broadcast t t.attacker;
  t

(* Best route at [v] per its local decision process, as a slot of [v]'s
   row (-1 for none); TB picks the lowest-numbered next hop, so the result
   does not depend on the scan order. *)
let select t v =
  let policy = t.policy_of v in
  let full = Deployment.is_full t.dep v in
  let best = ref (-1) and best_cand = ref (Routing.Policy.Customer, 0, false) in
  for k = 0 to 2 do
    let cls = class_of_segment k in
    for i = t.xs.{(3 * v) + k} to t.xs.{(3 * v) + k + 1} - 1 do
      match t.ribs.(i) with
      | Some ann when not (List.mem v ann.path) ->
          let cand = (cls, ann.len, ann.signed && full) in
          if !best < 0 then begin
            best := i;
            best_cand := cand
          end
          else
            let c = Routing.Policy.compare_routes policy cand !best_cand in
            if c < 0 || (c = 0 && t.adj.{i} < t.adj.{!best}) then begin
              best := i;
              best_cand := cand
            end
      | Some _ | None -> ()
    done
  done;
  !best

(* The chosen announcement is still present, identical, in the RIB (it
   came from [select], so its path avoids [v]). *)
let still_valid t v ann = t.ribs.(t.via.(v)) = Some ann

let reselect t v =
  if is_root t v then false
  else begin
    let s = select t v in
    let s =
      (* Hysteresis (the mitigation sketched in the paper's Section 8):
         an AS holding a valid secure route refuses to replace it with an
         insecure one, even when its decision process ranks the insecure
         route higher. *)
      if not t.hysteresis then s
      else
        match (t.chosen.(v), if s < 0 then None else t.ribs.(s)) with
        | Some cur, Some cand
          when cur.signed
               && Deployment.is_full t.dep v
               && (not cand.signed)
               && still_valid t v cur ->
            t.via.(v)
        | Some cur, None when cur.signed && still_valid t v cur -> t.via.(v)
        | _ -> s
    in
    let next = if s < 0 then None else t.ribs.(s) in
    if next = t.chosen.(v) then false
    else begin
      t.chosen.(v) <- next;
      t.via.(v) <- s;
      broadcast t v;
      true
    end
  end

let set_attack t ~active =
  if t.attacker < 0 then invalid_arg "Bgpsim.set_attack: no attacker configured";
  t.attack_active <- active;
  broadcast t t.attacker

(* A sweep activates only the dirty ASes; the interface says why that
   changes no result. *)
let run ?schedule ?(max_sweeps = 1000) t =
  let n = Topology.Graph.n t.graph in
  let order = Array.init n (fun i -> i) in
  let sweeps = ref 0 in
  let quiet = ref false in
  while not !quiet do
    if !sweeps >= max_sweeps then
      failwith
        (Printf.sprintf "Bgpsim.run: no convergence after %d sweeps"
           max_sweeps);
    incr sweeps;
    (match schedule with Some rng -> Rng.shuffle rng order | None -> ());
    let changed = ref false in
    Array.iter
      (fun v ->
        if t.dirty.(v) then begin
          t.dirty.(v) <- false;
          if reselect t v then changed := true
        end)
      order;
    quiet := not !changed
  done;
  !sweeps

let set_link t a b ~up =
  (* Validates adjacency. *)
  let i = slot t a b and j = slot t b a in
  t.down.(i) <- not up;
  t.down.(j) <- not up;
  if up then begin
    let refresh v i =
      send t v (announcement_of t v) ~to_all:(exports_to_all t v)
        (segment t v i) i
    in
    refresh a i;
    refresh b j
  end
  else begin
    write t a i None;
    write t b j None
  end

let chosen_path t v =
  if v = t.dst then Some [ t.dst ]
  else if v = t.attacker then Some [ v; t.dst ]
  else Option.map (fun ann -> ann.path) t.chosen.(v)

let route_secure t v =
  match t.chosen.(v) with
  | None -> false
  | Some ann -> ann.signed && Deployment.is_full t.dep v

let uses_attacker t v =
  t.attacker >= 0
  &&
  if v = t.attacker then true
  else
    match t.chosen.(v) with
    | None -> false
    | Some ann -> List.mem t.attacker ann.path

let snapshot t = Array.init (Topology.Graph.n t.graph) (chosen_path t)

let to_outcome t =
  let n = Topology.Graph.n t.graph in
  let attacker = if t.attacker < 0 then None else Some t.attacker in
  let outcome = Routing.Outcome.create ~n ~dst:t.dst ~attacker in
  Routing.Outcome.fix_root outcome t.dst ~len:0
    ~secure:(Deployment.signs_origin t.dep t.dst)
    ~to_d:true ~to_m:false ~parent:(-1);
  if t.attacker >= 0 then
    Routing.Outcome.fix_root outcome t.attacker ~len:1 ~secure:false
      ~to_d:false ~to_m:true ~parent:t.dst;
  for v = 0 to n - 1 do
    if not (is_root t v) then
      match t.chosen.(v) with
      | None -> ()
      | Some ann ->
          let attacked = uses_attacker t v in
          Routing.Outcome.fix outcome v
            ~cls:(class_of_segment (segment t v t.via.(v)))
            ~len:ann.len
            ~secure:(ann.signed && Deployment.is_full t.dep v)
            ~to_d:(not attacked) ~to_m:attacked
            ~parent:(List.hd ann.path)
  done;
  outcome
