type cls = Doomed | Protectable | Immune | Unreachable

type counts = {
  doomed : int;
  protectable : int;
  immune : int;
  unreachable : int;
  sources : int;
}

let zero = { doomed = 0; protectable = 0; immune = 0; unreachable = 0; sources = 0 }

let add a b =
  {
    doomed = a.doomed + b.doomed;
    protectable = a.protectable + b.protectable;
    immune = a.immune + b.immune;
    unreachable = a.unreachable + b.unreachable;
    sources = a.sources + b.sources;
  }

let fractions c =
  let f n = Prelude.Stats.fraction n c.sources in
  (f (c.doomed + c.unreachable), f c.protectable, f c.immune)

let classify ~d_ok ~m_ok =
  match (d_ok, m_ok) with
  | true, true -> Protectable
  | true, false -> Immune
  | false, true -> Doomed
  | false, false -> Unreachable

(* Security 3rd (any LP variant): the (class, length) prefix of the rank is
   deployment-invariant, so the endpoints of the baseline best-route set
   decide (Corollary E.1). *)
let sec3_partition ~attacker ~dst out =
  Array.init (Routing.Outcome.n out) (fun v ->
      if v = attacker || v = dst then Unreachable
      else
        classify
          ~d_ok:(Routing.Outcome.to_d out v)
          ~m_ok:(Routing.Outcome.to_m out v))

(* Security 1st: Observations E.3 / E.4, exactly. *)
let sec1_partition g ~attacker ~dst n =
  let reach_d = Routing.Reach.compute g ~root:dst ~avoid:attacker () in
  let reach_m = Routing.Reach.compute g ~root:attacker ~avoid:dst () in
  Array.init n (fun v ->
      if v = attacker || v = dst then Unreachable
      else
        classify
          ~d_ok:(Routing.Reach.any reach_d v)
          ~m_ok:(Routing.Reach.any reach_m v))

(* Security 2nd with the standard LP: the best local-preference class is
   deployment-invariant (Corollary E.2); classify by the endpoints of the
   class-restricted perceivable routes. *)
let sec2_standard_partition g ~attacker ~dst n =
  let reach_d = Routing.Reach.compute g ~root:dst ~avoid:attacker () in
  let reach_m = Routing.Reach.compute g ~root:attacker ~avoid:dst () in
  Array.init n (fun v ->
      if v = attacker || v = dst then Unreachable
      else
        let best =
          match
            (Routing.Reach.best_class reach_d v, Routing.Reach.best_class reach_m v)
          with
          | None, None -> None
          | (Some _ as c), None | None, (Some _ as c) -> c
          | Some a, Some b -> Some (if a <= b then a else b)
        in
        match best with
        | None -> Unreachable
        | Some cls ->
            classify
              ~d_ok:(Routing.Reach.in_class reach_d cls v)
              ~m_ok:(Routing.Reach.in_class reach_m cls v))

(* Security 2nd with LPk: the classes are length-refined, and — unlike the
   standard LP — an AS holding a customer route may CHOOSE a peer route of
   a better LPk class, in which case Ex stops it from exporting to peers
   and providers.  Raw perceivable closures therefore overcount.  We use
   instead the {e class-respecting} candidate structure: each AS's LPk
   class bucket is deployment-invariant (the same induction as Corollary
   E.2, over buckets), so an AS only ever holds, and exports, routes of
   its own bucket.  Reachability of each root through chains in which
   every AS's suffix fits its own bucket decides the partition.

   Length sets are tracked as a bitmask for lengths <= k plus an "over k"
   flag (inside the C>k / P>k buckets only existence matters).  Requires
   an acyclic hierarchy; the customer DP runs bottom-up (customers before
   providers) and the provider closure top-down. *)

type bucket =
  | B_cust of int   (* customer route of length j <= k *)
  | B_cust_over     (* customer route of length > k *)
  | B_peer of int
  | B_peer_over
  | B_prov
  | B_none          (* unreached at baseline *)

let bucket_of ~k out v =
  if not (Routing.Outcome.reached out v) then B_none
  else begin
    let len = Routing.Outcome.length out v in
    match Routing.Outcome.route_class out v with
    | Routing.Policy.Customer -> if len <= k then B_cust len else B_cust_over
    | Routing.Policy.Peer -> if len <= k then B_peer len else B_peer_over
    | Routing.Policy.Provider -> B_prov
  end

(* The customer-provider hierarchy's topological order, customers first;
   memoized on the graph. *)
let topo_order g =
  match Topology.Graph.hierarchy g with
  | Ok order -> order
  | Error _ -> failwith "Partition: customer-provider hierarchy has a cycle"

let check_k k = if k > 60 then failwith "Partition: Lp_k with k > 60 unsupported"

(* The class-respecting DP over the attacked [S = {}] state of the
   pair, which fixes every AS's bucket. *)
let sec2_lpk_partition ?ws g policy ~k ~attacker ~dst n =
  check_k k;
  let base =
    Routing.Engine.compute ?ws g policy (Deployment.empty n) ~dst
      ~attacker:(Some attacker)
  in
  let topo = topo_order g in
  let bucket =
    Array.init n (fun v ->
        if v = dst || v = attacker then B_none else bucket_of ~k base v)
  in
  let full_mask = (1 lsl (k + 1)) - 1 in
  (* Per root: does each AS have a class-respecting candidate route to it
     within its own bucket? *)
  let reach_root ~root ~offset ~avoid =
    (* What a non-root AS exports upward/sideways: its customer-bucket
       lengths only. *)
    let cust_mask = Array.make n 0 in
    let cust_over = Array.make n false in
    let clamped u =
      if u = root then ((if offset <= k then 1 lsl offset else 0), offset > k)
      else
        match bucket.(u) with
        | B_cust j -> (cust_mask.(u) land (1 lsl j), false)
        | B_cust_over -> (0, cust_over.(u))
        | B_peer _ | B_peer_over | B_prov | B_none -> (0, false)
    in
    let shift (mask, over) =
      ((mask lsl 1) land full_mask, over || mask land (1 lsl k) <> 0)
    in
    (* Customer chains, bottom-up. *)
    Array.iter
      (fun u ->
        if u <> avoid then begin
          let cmask, cover = shift (clamped u) in
          if cmask <> 0 || cover then
            Array.iter
              (fun p ->
                if p <> avoid && p <> root then begin
                  cust_mask.(p) <- cust_mask.(p) lor cmask;
                  cust_over.(p) <- cust_over.(p) || cover
                end)
              (Topology.Graph.providers g u)
        end)
      topo;
    (* Peer candidates: one hop off a customer-bucket neighbor (or the
       root). *)
    let peer_sets v =
      Array.fold_left
        (fun acc u ->
          if u = avoid then acc
          else begin
            let mask, over = shift (clamped u) in
            (fst acc lor mask, snd acc || over)
          end)
        (0, false) (Topology.Graph.peers g v)
    in
    (* avail.(v): v has a candidate to the root within its own bucket.
       Provider buckets close top-down: a provider route to the root via
       u exists iff u is the root or u's chosen route can lead there. *)
    let avail = Array.make n false in
    let avail_non_prov v =
      match bucket.(v) with
      | B_cust j -> cust_mask.(v) land (1 lsl j) <> 0
      | B_cust_over -> cust_over.(v)
      | B_peer j -> fst (peer_sets v) land (1 lsl j) <> 0
      | B_peer_over -> snd (peer_sets v)
      | B_prov | B_none -> false
    in
    for i = n - 1 downto 0 do
      let v = topo.(i) in
      if v <> avoid && v <> root then
        avail.(v) <-
          (match bucket.(v) with
          | B_prov ->
              Array.exists
                (fun u -> u <> avoid && (u = root || avail.(u)))
                (Topology.Graph.providers g v)
          | B_cust _ | B_cust_over | B_peer _ | B_peer_over ->
              avail_non_prov v
          | B_none -> false)
    done;
    avail
  in
  let avail_d = reach_root ~root:dst ~offset:0 ~avoid:attacker in
  let avail_m = reach_root ~root:attacker ~offset:1 ~avoid:dst in
  Array.init n (fun v ->
      if v = attacker || v = dst then Unreachable
      else classify ~d_ok:avail_d.(v) ~m_ok:avail_m.(v))

(* Validate up front so every model raises the same error, instead of
   leaking whichever internal helper trips first (the security-1st path
   used to surface "Reach.compute: root = avoid" for m = d). *)
let check_pair fn n ~attacker ~dst =
  if dst < 0 || dst >= n then invalid_arg (fn ^ ": dst out of range");
  if attacker < 0 || attacker >= n then
    invalid_arg (fn ^ ": attacker out of range");
  if attacker = dst then invalid_arg (fn ^ ": attacker = dst")

let compute ?ws g policy ~attacker ~dst =
  let n = Topology.Graph.n g in
  check_pair "Partition.compute" n ~attacker ~dst;
  match (policy : Routing.Policy.t).model with
  | Security_third ->
      let out =
        Routing.Engine.compute ?ws g policy (Deployment.empty n) ~dst
          ~attacker:(Some attacker)
      in
      sec3_partition ~attacker ~dst out
  | Security_first -> sec1_partition g ~attacker ~dst n
  | Security_second -> (
      match (policy : Routing.Policy.t).lp with
      | Standard -> sec2_standard_partition g ~attacker ~dst n
      | Lp_k k -> sec2_lpk_partition ?ws g policy ~k ~attacker ~dst n)

let one_source = function
  | Doomed -> { zero with doomed = 1; sources = 1 }
  | Protectable -> { zero with protectable = 1; sources = 1 }
  | Immune -> { zero with immune = 1; sources = 1 }
  | Unreachable -> { zero with unreachable = 1; sources = 1 }

let count_by ?ws g policy ~attacker ~dst ~groups ~group =
  let classes = compute ?ws g policy ~attacker ~dst in
  let by = Array.make groups zero in
  Array.iteri
    (fun v cls ->
      let i = group v in
      if v <> attacker && v <> dst && i >= 0 && i < groups then
        by.(i) <- add by.(i) (one_source cls))
    classes;
  by

let count ?ws g policy ~attacker ~dst =
  (count_by ?ws g policy ~attacker ~dst ~groups:1 ~group:(fun _ -> 0)).(0)

(* Security 3rd reads the endpoints of the attacked state under S = {}
   (Corollary E.1): to the destination only is immune, to the attacker
   only doomed, tied protectable, and an AS with no route in a lane is
   unreachable.  That state is the very one H(emptyset) measures, so
   the counts come from {!H_metric.pair_endpoints} and share its
   cache slots (the destination never signs under S = {}, so the slot
   is the normalized one every model and deployment shares). *)
let of_endpoints ~n (e : Routing.Batch.endpoints) =
  let sources = n - 2 in
  {
    doomed = e.m_only;
    protectable = e.both;
    immune = e.d_only;
    unreachable = sources - e.m_only - e.both - e.d_only;
    sources;
  }

let sec3_counts ?pool ?cache g policy pairs =
  (match (policy : Routing.Policy.t).model with
  | Security_third -> ()
  | Security_first | Security_second ->
      invalid_arg "Partition.sec3_counts: policy is not security 3rd");
  let n = Topology.Graph.n g in
  Array.map (of_endpoints ~n)
    (H_metric.pair_endpoints ?pool ?cache g policy (Deployment.empty n) pairs)

(* --- Whole-word partitions ---------------------------------------------

   Every model's counts for many pairs at once, equal bit for bit to
   {!count_by} per pair.  Sources are tallied per lane and per group in
   bit-sliced counters: a word adds one lane mask per (AS, class), and a
   lane's counts are read off the planes once at the end.

   - Security 1st and 2nd under the standard LP read two lane-mask
     closures ({!Routing.Reach.Lanes}) per word of up to 63 pairs, in
     input order whatever their destinations: the d side (lane [l]
     rooted at [d_l], avoiding [m_l]) and the m side (rooted at [m_l],
     avoiding [d_l]).
   - Security 2nd under LPk runs the length-mask DP per lane, its
     buckets taken from the lane's attacked [S = {}] state in one
     batched solve per destination word.
   - Security 3rd reads the endpoints of that same state. *)

type codes =
  (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

module Ws = struct
  type t = {
    d : Routing.Reach.Lanes.t;
    m : Routing.Reach.Lanes.t;
    dsts : int array; (* per lane: the pair's destination *)
    attackers : int array; (* per lane: the pair's attacker *)
    mutable cap : int; (* every counter counts up to [cap] *)
    (* Per group: sources doomed / protectable / immune, by lane. *)
    mutable doomed : Prelude.Lane_counter.t array;
    mutable protectable : Prelude.Lane_counter.t array;
    mutable immune : Prelude.Lane_counter.t array;
    (* LPk: every lane's bucket codes, lane [l] at [l * n + v], one byte
       each (codes stay below 256); the customer-candidate flags and
       both sides' availability of one lane.  Off-heap, like the
       closures' buffers ({!Routing.Reach.Lanes}). *)
    mutable codes : codes;
    mutable cok : Topology.Graph.ints;
    mutable avail_d : Topology.Graph.ints;
    mutable avail_m : Topology.Graph.ints;
  }

  let buf n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

  let code_buf n =
    Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout n

  let create () =
    {
      d = Routing.Reach.Lanes.create 0;
      m = Routing.Reach.Lanes.create 0;
      dsts = Array.make Routing.Batch.max_lanes 0;
      attackers = Array.make Routing.Batch.max_lanes 0;
      cap = 0;
      doomed = [||];
      protectable = [||];
      immune = [||];
      codes = code_buf 0;
      cok = buf 0;
      avail_d = buf 0;
      avail_m = buf 0;
    }

  let key = Domain.DLS.new_key create
  let local () = Domain.DLS.get key

  (* LPk buffers for a word of [lanes] lanes on [n] ASes. *)
  let lpk_buffers t ~n ~lanes =
    if Bigarray.Array1.dim t.codes < lanes * n then t.codes <- code_buf (lanes * n);
    if Bigarray.Array1.dim t.cok < n then begin
      t.cok <- buf n;
      t.avail_d <- buf n;
      t.avail_m <- buf n
    end

  (* Zeroed counters for [groups] groups of at most [n] sources. *)
  let counters t ~n ~groups =
    if t.cap < n || Array.length t.doomed < groups then begin
      let cap = max t.cap n and len = max groups (Array.length t.doomed) in
      let make () =
        Array.init len (fun _ -> Prelude.Lane_counter.create ~max_count:cap)
      in
      t.cap <- cap;
      t.doomed <- make ();
      t.protectable <- make ();
      t.immune <- make ()
    end;
    for i = 0 to groups - 1 do
      Prelude.Lane_counter.clear t.doomed.(i);
      Prelude.Lane_counter.clear t.protectable.(i);
      Prelude.Lane_counter.clear t.immune.(i)
    done
end

(* Group of every AS, -1 outside [0 .. groups - 1], and the group
   sizes. *)
type grouping = { groups : int; gidx : int array; gsize : int array }

let grouping ~n ~groups ~group =
  if groups < 0 then invalid_arg "Partition.counts_by: groups < 0";
  let gidx =
    Array.init n (fun v ->
        let i = group v in
        if i >= 0 && i < groups then i else -1)
  in
  let gsize = Array.make groups 0 in
  Array.iter (fun i -> if i >= 0 then gsize.(i) <- gsize.(i) + 1) gidx;
  { groups; gidx; gsize }

(* Lane [l]'s counts per group, off the counters [ws] holds for the pair
   [(ws.attackers.(l), ws.dsts.(l))]; the two endpoints are not
   sources. *)
let read_lane (ws : Ws.t) gr l =
  let m = ws.Ws.attackers.(l) and d = ws.Ws.dsts.(l) in
  Array.init gr.groups (fun i ->
      let sources =
        gr.gsize.(i)
        - (if gr.gidx.(m) = i then 1 else 0)
        - if gr.gidx.(d) = i then 1 else 0
      in
      let doomed = Prelude.Lane_counter.get ws.Ws.doomed.(i) l in
      let protectable = Prelude.Lane_counter.get ws.Ws.protectable.(i) l in
      let immune = Prelude.Lane_counter.get ws.Ws.immune.(i) l in
      {
        doomed;
        protectable;
        immune;
        unreachable = sources - doomed - protectable - immune;
        sources;
      })

let read_word ws gr ~lanes = Array.init lanes (read_lane ws gr)

(* Add the lanes of a source in group [i] to its class: doomed when
   only the attacker is within reach, immune when only the destination
   is, protectable when both are. *)
let tally (ws : Ws.t) i ~d_ok ~m_ok =
  Prelude.Lane_counter.add ws.Ws.doomed.(i) (m_ok land lnot d_ok);
  Prelude.Lane_counter.add ws.Ws.protectable.(i) (d_ok land m_ok);
  Prelude.Lane_counter.add ws.Ws.immune.(i) (d_ok land lnot m_ok)

(* A batched word's lanes share the destination. *)
let set_word (ws : Ws.t) ~dst attackers =
  let lanes = Array.length attackers in
  Array.fill ws.Ws.dsts 0 lanes dst;
  Array.blit attackers 0 ws.Ws.attackers 0 lanes

(* Security 2nd's class-restricted endpoints (Corollary E.2) on lane
   masks: [C], [P] and [R] are the lanes whose best perceivable class
   over both roots is customer, peer and provider; the side [x] reaches
   its root within that class. *)
let class_ok ~xc ~xp ~xr ~c ~p ~r = xc land c lor (xp land p) lor (xr land r)

(* One word of closure pairs: the lanes' roots and avoided ASes are in
   [ws.dsts]/[ws.attackers]. *)
let closure_word (ws : Ws.t) g gr ~sec2 ~lanes =
  let module L = Routing.Reach.Lanes in
  L.compute ws.Ws.d g ~lanes ~roots:ws.Ws.dsts ~avoid:ws.Ws.attackers;
  L.compute ws.Ws.m g ~lanes ~roots:ws.Ws.attackers ~avoid:ws.Ws.dsts;
  let n = Topology.Graph.n g in
  Ws.counters ws ~n ~groups:gr.groups;
  let gidx = gr.gidx in
  for v = 0 to n - 1 do
    let i = gidx.(v) in
    if i >= 0 then begin
      let cd = L.customer ws.Ws.d v and pd = L.peer ws.Ws.d v
      and rd = L.provider ws.Ws.d v in
      let cm = L.customer ws.Ws.m v and pm = L.peer ws.Ws.m v
      and rm = L.provider ws.Ws.m v in
      let c = cd lor cm in
      let p = (pd lor pm) land lnot c in
      let r = (rd lor rm) land lnot (c lor p) in
      let d_ok =
        if sec2 then class_ok ~xc:cd ~xp:pd ~xr:rd ~c ~p ~r else cd lor pd lor rd
      in
      let m_ok =
        if sec2 then class_ok ~xc:cm ~xp:pm ~xr:rm ~c ~p ~r else cm lor pm lor rm
      in
      tally ws i ~d_ok ~m_ok
    end
  done;
  read_word ws gr ~lanes

(* Consecutive runs of at most 63 input positions. *)
let words total =
  let lanes = Routing.Batch.max_lanes in
  Array.init
    ((total + lanes - 1) / lanes)
    (fun k -> Array.init (min lanes (total - (k * lanes))) (fun l -> (k * lanes) + l))

let closure_counts ?pool g gr ~sec2 pairs =
  let per_word =
    Parallel.map ?pool ~domains:1 ~chunk:1
      (fun pos ->
        let ws = Ws.local () in
        Array.iteri
          (fun l j ->
            let p = pairs.(j) in
            ws.Ws.dsts.(l) <- p.H_metric.dst;
            ws.Ws.attackers.(l) <- p.H_metric.attacker)
          pos;
        closure_word ws g gr ~sec2 ~lanes:(Array.length pos))
      (words (Array.length pairs))
  in
  Array.concat (Array.to_list per_word)

(* LPk security 2nd, one lane at a time off a batched word.  Only one
   length of each AS's customer-route lengths ever matters: the DP above
   reads [cust_mask] at the AS's own bucket bit alone, and an AS exports
   upward and sideways only from a customer bucket.  So per lane the DP
   is a flag per AS — "has a class-respecting customer candidate of its
   own bucket" — and what an AS exports is one length (or "over k"):

     export u = offset (or over)    if u is the root
              = its bucket length   if u's bucket is a customer one and
                                    its flag is set
              = nothing             otherwise

   shifted by one hop (a length past k becomes "over").  Buckets are
   coded [kind * 64 + target]: kind 0 none, 1 customer, 2 peer,
   3 provider; target the length, or [k + 1] for "over k". *)
let code_none = 0
let kind c = c lsr 6
let target c = c land 63

let code_of_word ~k word =
  let len = Routing.Batch.Packed.len_of word in
  let t = if len <= k then len else k + 1 in
  match Routing.Batch.Packed.cls_code_of word with
  | 0 -> (1 lsl 6) lor t
  | 1 -> (2 lsl 6) lor t
  | 2 -> 3 lsl 6
  | _ -> code_none (* a root: the destination, or the lane's attacker *)

(* Does a neighbor in CSR slice [j .. stop-1] export a route that one
   more hop turns into [want]? *)
let rec exports_into (adj : Topology.Graph.ints) (codes : codes)
    (cok : Topology.Graph.ints) ~base ~k ~root ~root_len ~avoid ~want j stop =
  j < stop
  &&
  let u = adj.{j} in
  let e =
    if u = avoid then -1
    else if u = root then root_len
    else begin
      let c = codes.{base + u} in
      if kind c = 1 && cok.{u} = 1 then target c else -1
    end
  in
  (e >= 0 && (if e < k then e + 1 else k + 1) = want)
  || exports_into adj codes cok ~base ~k ~root ~root_len ~avoid ~want (j + 1)
       stop

let rec provider_avail (adj : Topology.Graph.ints) (avail : Topology.Graph.ints)
    ~root ~avoid j stop =
  j < stop
  &&
  let u = adj.{j} in
  (u <> avoid && (u = root || avail.{u} = 1))
  || provider_avail adj avail ~root ~avoid (j + 1) stop

(* One side of one lane: [avail.{v} = 1] when [v] has a class-respecting
   candidate route to [root] within its own bucket. *)
let lpk_side (ws : Ws.t) (csr : Topology.Graph.Csr.t) topo ~n ~k ~base ~root
    ~offset ~avoid (avail : Topology.Graph.ints) =
  let adj = csr.Topology.Graph.Csr.adj and xs = csr.Topology.Graph.Csr.xs in
  let codes = ws.Ws.codes and cok = ws.Ws.cok in
  let root_len = if offset <= k then offset else k + 1 in
  let seg v s = xs.{(3 * v) + s} in
  for i = 0 to n - 1 do
    let v = topo.(i) in
    let c = codes.{base + v} in
    cok.{v} <-
      (if
         v <> avoid && v <> root && kind c = 1
         && exports_into adj codes cok ~base ~k ~root ~root_len ~avoid
              ~want:(target c) (seg v 0) (seg v 1)
       then 1
       else 0)
  done;
  for i = n - 1 downto 0 do
    let v = topo.(i) in
    let c = codes.{base + v} in
    avail.{v} <-
      (if v = avoid || v = root then 0
       else
         match kind c with
         | 1 -> cok.{v}
         | 2 ->
             if
               exports_into adj codes cok ~base ~k ~root ~root_len ~avoid
                 ~want:(target c) (seg v 1) (seg v 2)
             then 1
             else 0
         | 3 ->
             if provider_avail adj avail ~root ~avoid (seg v 2) (seg v 3) then 1
             else 0
         | _ -> 0)
  done

let lpk_counts ?pool ?cache g policy gr ~k pairs =
  check_k k;
  let topo = topo_order g in
  let n = Topology.Graph.n g in
  let csr = Topology.Graph.csr g in
  H_metric.map_words ?pool ?cache g policy (Deployment.empty n) pairs
    (fun ~dst ~attackers b ->
      let ws = Ws.local () in
      let lanes = Array.length attackers in
      Ws.lpk_buffers ws ~n ~lanes;
      let codes = ws.Ws.codes in
      for i = 0 to (lanes * n) - 1 do
        codes.{i} <- code_none
      done;
      Routing.Batch.iter_fixed b (fun ~v ~mask ~word ~parent:_ ->
          let c = code_of_word ~k word in
          if c <> code_none then begin
            let m = ref mask in
            while !m <> 0 do
              codes.{(Prelude.Bitset.lowest_index !m * n) + v} <- c;
              m := !m land (!m - 1)
            done
          end);
      Ws.counters ws ~n ~groups:gr.groups;
      set_word ws ~dst attackers;
      Array.iteri
        (fun l attacker ->
          let base = l * n in
          lpk_side ws csr topo ~n ~k ~base ~root:dst ~offset:0 ~avoid:attacker
            ws.Ws.avail_d;
          lpk_side ws csr topo ~n ~k ~base ~root:attacker ~offset:1 ~avoid:dst
            ws.Ws.avail_m;
          (* Both sides are unavailable at the pair's own endpoints, so
             they stay out of every class. *)
          let bit = 1 lsl l in
          for v = 0 to n - 1 do
            let i = gr.gidx.(v) in
            if i >= 0 then
              tally ws i
                ~d_ok:(bit * ws.Ws.avail_d.{v})
                ~m_ok:(bit * ws.Ws.avail_m.{v})
          done)
        attackers;
      read_word ws gr ~lanes)

(* Security 3rd split by group: one walk over each word's groups tallies
   every non-root group's lanes by its endpoint flags. *)
let sec3_counts_by ?pool ?cache g policy gr pairs =
  let n = Topology.Graph.n g in
  H_metric.map_words ?pool ?cache g policy (Deployment.empty n) pairs
    (fun ~dst ~attackers b ->
      let ws = Ws.local () in
      Ws.counters ws ~n ~groups:gr.groups;
      set_word ws ~dst attackers;
      Routing.Batch.iter_fixed b (fun ~v ~mask ~word ~parent:_ ->
          let i = gr.gidx.(v) in
          if i >= 0 && Routing.Batch.Packed.cls_code_of word <> 3 then
            tally ws i
              ~d_ok:(if Routing.Batch.Packed.to_d_of word then mask else 0)
              ~m_ok:(if Routing.Batch.Packed.to_m_of word then mask else 0));
      read_word ws gr ~lanes:(Array.length attackers))

let validate g pairs =
  let n = Topology.Graph.n g in
  Array.iter
    (fun { H_metric.attacker; dst } ->
      check_pair "Partition.counts" n ~attacker ~dst)
    pairs

let counts_by ?pool ?cache g policy pairs ~groups ~group =
  validate g pairs;
  let gr = grouping ~n:(Topology.Graph.n g) ~groups ~group in
  if Array.length pairs = 0 then [||]
  else
    match ((policy : Routing.Policy.t).model, (policy : Routing.Policy.t).lp) with
    | Security_first, _ -> closure_counts ?pool g gr ~sec2:false pairs
    | Security_second, Standard -> closure_counts ?pool g gr ~sec2:true pairs
    | Security_second, Lp_k k -> lpk_counts ?pool ?cache g policy gr ~k pairs
    | Security_third, _ -> sec3_counts_by ?pool ?cache g policy gr pairs

let counts ?pool ?cache g policy pairs =
  match (policy : Routing.Policy.t).model with
  | Security_third ->
      validate g pairs;
      sec3_counts ?pool ?cache g policy pairs
  | Security_first | Security_second ->
      Array.map
        (fun by -> by.(0))
        (counts_by ?pool ?cache g policy pairs ~groups:1 ~group:(fun _ -> 0))

(* Sources other than the attacker holding any perceivable route to the
   destination, with nothing avoided: one lane per word of the plan, so
   the pairs of a word share its destination's closure, and each
   attacker's own slot is read off its masks. *)
let reach_counts ?pool g pairs =
  validate g pairs;
  let plan = H_metric.plan pairs in
  let module L = Routing.Reach.Lanes in
  let n = Topology.Graph.n g in
  let per_word =
    Parallel.map ?pool ~domains:1 ~chunk:1
      (fun word ->
        let ws = Ws.local () in
        let lanes = Array.length word in
        Array.iteri (fun l k -> ws.Ws.dsts.(l) <- plan.(k).H_metric.dst) word;
        Array.fill ws.Ws.attackers 0 lanes (-1);
        L.compute ws.Ws.d g ~lanes ~roots:ws.Ws.dsts ~avoid:ws.Ws.attackers;
        Ws.counters ws ~n ~groups:1;
        let any v =
          L.customer ws.Ws.d v lor L.peer ws.Ws.d v lor L.provider ws.Ws.d v
        in
        for v = 0 to n - 1 do
          Prelude.Lane_counter.add ws.Ws.immune.(0) (any v)
        done;
        Array.mapi
          (fun l k ->
            let w = plan.(k) in
            let reached = Prelude.Lane_counter.get ws.Ws.immune.(0) l in
            Array.map2
              (fun j m -> (j, reached - ((any m lsr l) land 1)))
              w.H_metric.pos w.H_metric.attackers)
          word)
      (words (Array.length plan))
  in
  let out = Array.make (Array.length pairs) 0 in
  Array.iter (Array.iter (Array.iter (fun (j, c) -> out.(j) <- c))) per_word;
  out
