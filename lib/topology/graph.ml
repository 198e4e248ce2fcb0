type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

module Csr = struct
  (* Flat compressed-sparse-row view of the adjacency: every neighbor of
     every AS lives in one contiguous [adj] array, one row per AS, with
     the row split into three segments — customers, then peers, then
     providers.  [xs] holds the 3n+1 segment boundaries:

       customers of v : adj[xs.{3v}   .. xs.{3v+1})
       peers of v     : adj[xs.{3v+1} .. xs.{3v+2})
       providers of v : adj[xs.{3v+2} .. xs.{3v+3})

     The row of v+1 starts where the row of v ends, so a full-row scan is
     a single linear pass and the relationship class of a neighbor is
     decided by which boundary its index has crossed — no per-class
     closure dispatch in the routing kernel's inner loop.

     Both arrays are off-heap native-int bigarrays: the GC never scans
     them (a million-AS adjacency is invisible to marking), and a
     snapshot file can be mapped straight into them
     ({!Serial.load_snapshot}) with no decode pass. *)
  type t = { adj : ints; xs : ints }

  let alloc len = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len

  let of_tables ~customers ~peers ~providers =
    let n = Array.length customers in
    let xs = alloc ((3 * n) + 1) in
    let total = ref 0 in
    for v = 0 to n - 1 do
      xs.{3 * v} <- !total;
      total := !total + Array.length customers.(v);
      xs.{(3 * v) + 1} <- !total;
      total := !total + Array.length peers.(v);
      xs.{(3 * v) + 2} <- !total;
      total := !total + Array.length providers.(v)
    done;
    xs.{3 * n} <- !total;
    let adj = alloc !total in
    let fill src pos = Array.iteri (fun i x -> adj.{pos + i} <- x) src in
    for v = 0 to n - 1 do
      fill customers.(v) xs.{3 * v};
      fill peers.(v) xs.{(3 * v) + 1};
      fill providers.(v) xs.{(3 * v) + 2}
    done;
    { adj; xs }
end

(* Per-AS adjacency tables: the boxed counterpart of the CSR.  A graph
   holds at least one of the two representations; each is built lazily
   from the other and cached. *)
type tables = {
  customers : int array array;
  providers : int array array;
  peers : int array array;
}

type t = {
  n : int;
  num_c2p : int;
  num_p2p : int;
  version : int;
  (* The three caches follow the same race discipline: two domains racing on
     a cold cache both build identical values and one pointer write wins
     — wasted work, never a wrong answer (the fields hold immutable
     values and pointer writes are atomic). *)
  mutable tables : tables option;
  mutable csr_cache : Csr.t option;
  mutable hierarchy_cache : (int array, int array) result option;
}

(* Graph identity for caches: process-global, monotone, never reused.
   No computed result may depend on it — it exists so a cache keyed on
   (version, deployment) cannot serve one topology's outcome for
   another after a delta step. *)
let version_counter = Atomic.make 0
let fresh_version () = Atomic.fetch_and_add version_counter 1

type edge =
  | Customer_provider of int * int
  | Peer_peer of int * int

let tables g =
  match g.tables with
  | Some tb -> tb
  | None ->
      let c =
        match g.csr_cache with
        | Some c -> c
        | None -> assert false (* constructors always install one side *)
      in
      let adj = c.Csr.adj and xs = c.Csr.xs in
      let seg lo hi = Array.init (hi - lo) (fun i -> adj.{lo + i}) in
      let tb =
        {
          customers = Array.init g.n (fun v -> seg xs.{3 * v} xs.{(3 * v) + 1});
          peers =
            Array.init g.n (fun v -> seg xs.{(3 * v) + 1} xs.{(3 * v) + 2});
          providers =
            Array.init g.n (fun v -> seg xs.{(3 * v) + 2} xs.{(3 * v) + 3});
        }
      in
      g.tables <- Some tb;
      tb

let csr g =
  match g.csr_cache with
  | Some c -> c
  | None ->
      let tb = tables g in
      let c =
        Csr.of_tables ~customers:tb.customers ~peers:tb.peers
          ~providers:tb.providers
      in
      g.csr_cache <- Some c;
      c

(* Relationship of the pair (a, b) with a < b, from a's point of view. *)
type rel = A_customer_of_b | B_customer_of_a | Peers

(* A path of a graph of [n] ASes is at most [n + 1] hops long with the
   attacker's claim, and the routing kernel packs lengths into 24 bits. *)
let max_ases = (1 lsl 24) - 2

let of_edges ~n edge_list =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  if n > max_ases then
    invalid_arg
      (Printf.sprintf "Graph.of_edges: %d ASes exceed max_ases = %d" n max_ases);
  let check v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Graph.of_edges: AS %d out of range" v)
  in
  (* Keyed on the single int [a * n + b] (with a < b) rather than a boxed
     (int * int) tuple: one immediate-int hash and compare per edge
     instead of a tuple allocation plus a structural walk.  [a * n + b]
     is injective on in-range pairs and fits an OCaml int for any
     realistic AS count. *)
  let tbl : (int, rel) Hashtbl.t = Hashtbl.create (List.length edge_list) in
  let insert a b rel =
    check a;
    check b;
    if a = b then invalid_arg "Graph.of_edges: self loop";
    let key, rel =
      if a < b then ((a * n) + b, rel)
      else
        ( (b * n) + a,
          match rel with
          | A_customer_of_b -> B_customer_of_a
          | B_customer_of_a -> A_customer_of_b
          | Peers -> Peers )
    in
    match Hashtbl.find_opt tbl key with
    | None -> Hashtbl.add tbl key rel
    | Some existing ->
        if existing <> rel then
          invalid_arg
            (Printf.sprintf
               "Graph.of_edges: conflicting relationships for pair (%d, %d)"
               (key / n) (key mod n))
  in
  List.iter
    (function
      | Customer_provider (c, p) -> insert c p A_customer_of_b
      | Peer_peer (a, b) -> insert a b Peers)
    edge_list;
  let cust_deg = Array.make n 0 and prov_deg = Array.make n 0 and peer_deg = Array.make n 0 in
  Hashtbl.iter
    (fun key rel ->
      let a = key / n and b = key mod n in
      match rel with
      | A_customer_of_b ->
          prov_deg.(a) <- prov_deg.(a) + 1;
          cust_deg.(b) <- cust_deg.(b) + 1
      | B_customer_of_a ->
          prov_deg.(b) <- prov_deg.(b) + 1;
          cust_deg.(a) <- cust_deg.(a) + 1
      | Peers ->
          peer_deg.(a) <- peer_deg.(a) + 1;
          peer_deg.(b) <- peer_deg.(b) + 1)
    tbl;
  let customers = Array.init n (fun v -> Array.make cust_deg.(v) 0) in
  let providers = Array.init n (fun v -> Array.make prov_deg.(v) 0) in
  let peers = Array.init n (fun v -> Array.make peer_deg.(v) 0) in
  let ci = Array.make n 0 and pi = Array.make n 0 and ei = Array.make n 0 in
  let add_cust p c =
    customers.(p).(ci.(p)) <- c;
    ci.(p) <- ci.(p) + 1
  in
  let add_prov c p =
    providers.(c).(pi.(c)) <- p;
    pi.(c) <- pi.(c) + 1
  in
  let add_peer a b =
    peers.(a).(ei.(a)) <- b;
    ei.(a) <- ei.(a) + 1
  in
  let num_c2p = ref 0 and num_p2p = ref 0 in
  Hashtbl.iter
    (fun key rel ->
      let a = key / n and b = key mod n in
      match rel with
      | A_customer_of_b ->
          incr num_c2p;
          add_cust b a;
          add_prov a b
      | B_customer_of_a ->
          incr num_c2p;
          add_cust a b;
          add_prov b a
      | Peers ->
          incr num_p2p;
          add_peer a b;
          add_peer b a)
    tbl;
  (* Sort adjacency for determinism (hash iteration order is arbitrary). *)
  let sort_all arrs = Array.iter (fun a -> Array.sort Int.compare a) arrs in
  sort_all customers;
  sort_all providers;
  sort_all peers;
  { n; num_c2p = !num_c2p; num_p2p = !num_p2p; version = fresh_version ();
    tables = Some { customers; providers; peers }; csr_cache = None;
    hierarchy_cache = None }

let unsafe_of_adjacency ~customers ~providers ~peers =
  let n = Array.length customers in
  if Array.length providers <> n || Array.length peers <> n then
    invalid_arg "Graph.unsafe_of_adjacency: table length mismatch";
  let sum arrs = Array.fold_left (fun acc a -> acc + Array.length a) 0 arrs in
  { n; num_c2p = sum customers; num_p2p = sum peers / 2;
    version = fresh_version ();
    tables = Some { customers; providers; peers }; csr_cache = None;
    hierarchy_cache = None }

let of_csr ~adj ~xs =
  let fail msg = invalid_arg ("Graph.of_csr: " ^ msg) in
  let xl = Bigarray.Array1.dim xs in
  if xl < 1 || (xl - 1) mod 3 <> 0 then fail "xs length is not 3n + 1";
  let n = (xl - 1) / 3 in
  if n > max_ases then fail (Printf.sprintf "%d ASes exceed max_ases" n);
  let al = Bigarray.Array1.dim adj in
  if xs.{0} <> 0 then fail "xs does not start at 0";
  for k = 0 to xl - 2 do
    if xs.{k} > xs.{k + 1} then fail "xs boundaries are not monotone"
  done;
  if xs.{xl - 1} <> al then fail "xs end disagrees with adj length";
  (* Each class segment: neighbors in range, no self loop, strictly
     ascending (sorted, duplicate-free). *)
  let check_seg v lo hi =
    let prev = ref (-1) in
    for i = lo to hi - 1 do
      let u = adj.{i} in
      if u < 0 || u >= n then
        fail (Printf.sprintf "neighbor %d of AS %d out of range" u v);
      if u = v then fail (Printf.sprintf "self loop at AS %d" v);
      if u <= !prev then
        fail (Printf.sprintf "row of AS %d unsorted or duplicated" v);
      prev := u
    done
  in
  for v = 0 to n - 1 do
    check_seg v xs.{3 * v} xs.{(3 * v) + 1};
    check_seg v xs.{(3 * v) + 1} xs.{(3 * v) + 2};
    check_seg v xs.{(3 * v) + 2} xs.{(3 * v) + 3}
  done;
  (* Mutuality: u's customer lists v as provider (and conversely), and
     peering is symmetric — binary search in the reverse segment. *)
  let mem_seg lo hi x =
    let lo = ref lo and hi = ref hi in
    let found = ref false in
    while (not !found) && !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let y = adj.{mid} in
      if y = x then found := true else if y < x then lo := mid + 1 else hi := mid
    done;
    !found
  in
  for v = 0 to n - 1 do
    for i = xs.{3 * v} to xs.{(3 * v) + 1} - 1 do
      let u = adj.{i} in
      if not (mem_seg xs.{(3 * u) + 2} xs.{(3 * u) + 3} v) then
        fail
          (Printf.sprintf "AS %d lists customer %d, but not conversely" v u)
    done;
    for i = xs.{(3 * v) + 1} to xs.{(3 * v) + 2} - 1 do
      let u = adj.{i} in
      if not (mem_seg xs.{(3 * u) + 1} xs.{(3 * u) + 2} v) then
        fail (Printf.sprintf "AS %d lists peer %d, but not conversely" v u)
    done;
    for i = xs.{(3 * v) + 2} to xs.{(3 * v) + 3} - 1 do
      let u = adj.{i} in
      if not (mem_seg xs.{3 * u} xs.{(3 * u) + 1} v) then
        fail
          (Printf.sprintf "AS %d lists provider %d, but not conversely" v u)
    done
  done;
  let num_c2p = ref 0 and peer_entries = ref 0 in
  for v = 0 to n - 1 do
    num_c2p := !num_c2p + (xs.{(3 * v) + 1} - xs.{3 * v});
    peer_entries := !peer_entries + (xs.{(3 * v) + 2} - xs.{(3 * v) + 1})
  done;
  { n; num_c2p = !num_c2p; num_p2p = !peer_entries / 2;
    version = fresh_version (); tables = None;
    csr_cache = Some { Csr.adj; xs }; hierarchy_cache = None }

let n g = g.n
let version g = g.version
let customers g v = (tables g).customers.(v)
let providers g v = (tables g).providers.(v)
let peers g v = (tables g).peers.(v)

let customer_degree g v =
  match g.csr_cache with
  | Some c -> c.Csr.xs.{(3 * v) + 1} - c.Csr.xs.{3 * v}
  | None -> Array.length (tables g).customers.(v)

let peer_degree g v =
  match g.csr_cache with
  | Some c -> c.Csr.xs.{(3 * v) + 2} - c.Csr.xs.{(3 * v) + 1}
  | None -> Array.length (tables g).peers.(v)

let provider_degree g v =
  match g.csr_cache with
  | Some c -> c.Csr.xs.{(3 * v) + 3} - c.Csr.xs.{(3 * v) + 2}
  | None -> Array.length (tables g).providers.(v)

let degree g v = customer_degree g v + peer_degree g v + provider_degree g v

let num_customer_provider_edges g = g.num_c2p
let num_peer_edges g = g.num_p2p
let is_stub g v = customer_degree g v = 0

let mem_sorted (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let y = a.(mid) in
    if y = x then found := true else if y < x then lo := mid + 1 else hi := mid
  done;
  !found

let relationship g a b =
  if a < 0 || a >= g.n || b < 0 || b >= g.n then
    invalid_arg "Graph.relationship: AS out of range";
  if a = b then invalid_arg "Graph.relationship: equal endpoints";
  let tb = tables g in
  if mem_sorted tb.providers.(a) b then Some (Customer_provider (a, b))
  else if mem_sorted tb.customers.(a) b then Some (Customer_provider (b, a))
  else if mem_sorted tb.peers.(a) b then
    Some (Peer_peer ((if a < b then a else b), if a < b then b else a))
  else None

let edges g =
  let tb = tables g in
  let acc = ref [] in
  for v = 0 to g.n - 1 do
    Array.iter (fun p -> acc := Customer_provider (v, p) :: !acc) tb.providers.(v);
    Array.iter (fun u -> if v < u then acc := Peer_peer (v, u) :: !acc) tb.peers.(v)
  done;
  !acc

(* Kahn's algorithm on the customer -> provider digraph, once per
   graph: the ASes in the order it retires them (every customer before
   its providers), or — when some never reach in-degree 0 — those, which
   sit on or above a cycle. *)
(* Kahn's algorithm on the CSR rows, so a snapshot-loaded graph never
   materializes its tables for it; [order] doubles as the FIFO queue
   (pops happen in push order). *)
let hierarchy g =
  match g.hierarchy_cache with
  | Some h -> h
  | None ->
      let c = csr g in
      let adj = c.Csr.adj and xs = c.Csr.xs in
      let indeg = Array.init g.n (fun v -> xs.{(3 * v) + 1} - xs.{3 * v}) in
      let order = Array.make g.n 0 in
      let tail = ref 0 in
      for v = 0 to g.n - 1 do
        if indeg.(v) = 0 then begin
          order.(!tail) <- v;
          incr tail
        end
      done;
      let head = ref 0 in
      while !head < !tail do
        let v = order.(!head) in
        incr head;
        for j = xs.{(3 * v) + 2} to xs.{(3 * v) + 3} - 1 do
          let p = adj.{j} in
          indeg.(p) <- indeg.(p) - 1;
          if indeg.(p) = 0 then begin
            order.(!tail) <- p;
            incr tail
          end
        done
      done;
      let h =
        if !tail = g.n then Ok order
        else begin
          let cycle = ref [] in
          for v = g.n - 1 downto 0 do
            if indeg.(v) > 0 then cycle := v :: !cycle
          done;
          Error (Array.of_list !cycle)
        end
      in
      g.hierarchy_cache <- Some h;
      h

let connected g =
  if g.n <= 1 then true
  else begin
    let tb = tables g in
    let seen = Prelude.Bitset.create g.n in
    let queue = Queue.create () in
    Prelude.Bitset.add seen 0;
    Queue.add 0 queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      let visit u =
        if not (Prelude.Bitset.mem seen u) then begin
          Prelude.Bitset.add seen u;
          Queue.add u queue
        end
      in
      Array.iter visit tb.customers.(v);
      Array.iter visit tb.providers.(v);
      Array.iter visit tb.peers.(v)
    done;
    Prelude.Bitset.cardinal seen = g.n
  end

module Delta = struct
  type op = Add of edge | Remove of edge | Flip of edge

  type t = op array

  let edge_ends = function
    | Customer_provider (c, p) -> (c, p)
    | Peer_peer (a, b) -> (a, b)

  let op_edge = function Add e | Remove e | Flip e -> e

  let canon = function
    | Customer_provider _ as e -> e
    | Peer_peer (a, b) -> if a <= b then Peer_peer (a, b) else Peer_peer (b, a)

  let edge_equal x y =
    match (canon x, canon y) with
    | Customer_provider (a, b), Customer_provider (c, d)
    | Peer_peer (a, b), Peer_peer (c, d) ->
        a = c && b = d
    | Customer_provider _, Peer_peer _ | Peer_peer _, Customer_provider _ ->
        false

  let endpoints (d : t) =
    Array.to_list d
    |> List.concat_map (fun op ->
           let a, b = edge_ends (op_edge op) in
           [ a; b ])
    |> List.sort_uniq Int.compare
    |> Array.of_list

  (* Per-vertex pending edit; the lists are tiny (one entry per op
     touching the vertex). *)
  type edit = {
    mutable c_rem : int list;
    mutable c_add : int list; (* customers *)
    mutable p_rem : int list;
    mutable p_add : int list; (* peers *)
    mutable r_rem : int list;
    mutable r_add : int list; (* providers *)
  }

  (* Validate every op against the base graph and fold it into per-vertex
     edits.  Returns the edit table, the touched vertices in first-touch
     order (the table itself is consulted by keyed lookup only — its
     iteration order never matters), and the edge-count deltas. *)
  let plan g (d : t) =
    let edits : (int, edit) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    let edit v =
      match Hashtbl.find_opt edits v with
      | Some e -> e
      | None ->
          let e =
            { c_rem = []; c_add = []; p_rem = []; p_add = [];
              r_rem = []; r_add = [] }
          in
          Hashtbl.add edits v e;
          order := v :: !order;
          e
    in
    let seen_pairs : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let claim a b =
      let lo = if a < b then a else b and hi = if a < b then b else a in
      let key = (lo * g.n) + hi in
      if Hashtbl.mem seen_pairs key then
        invalid_arg
          (Printf.sprintf "Graph.Delta: two ops touch the pair (%d, %d)" lo hi);
      Hashtbl.add seen_pairs key ()
    in
    let add_edge = function
      | Customer_provider (c, p) ->
          let ec = edit c in
          ec.r_add <- p :: ec.r_add;
          let ep = edit p in
          ep.c_add <- c :: ep.c_add
      | Peer_peer (a, b) ->
          let ea = edit a in
          ea.p_add <- b :: ea.p_add;
          let eb = edit b in
          eb.p_add <- a :: eb.p_add
    in
    let remove_edge = function
      | Customer_provider (c, p) ->
          let ec = edit c in
          ec.r_rem <- p :: ec.r_rem;
          let ep = edit p in
          ep.c_rem <- c :: ep.c_rem
      | Peer_peer (a, b) ->
          let ea = edit a in
          ea.p_rem <- b :: ea.p_rem;
          let eb = edit b in
          eb.p_rem <- a :: eb.p_rem
    in
    let is_cp = function Customer_provider _ -> true | Peer_peer _ -> false in
    let dc2p = ref 0 and dp2p = ref 0 in
    let count_add e = if is_cp e then incr dc2p else incr dp2p in
    let count_rem e = if is_cp e then decr dc2p else decr dp2p in
    Array.iter
      (fun op ->
        let e = canon (op_edge op) in
        let a, b = edge_ends e in
        if a < 0 || a >= g.n || b < 0 || b >= g.n then
          invalid_arg
            (Printf.sprintf "Graph.Delta: endpoint of pair (%d, %d) out of range"
               a b);
        if a = b then invalid_arg "Graph.Delta: self loop";
        claim a b;
        let cur = relationship g a b in
        match op with
        | Add _ -> (
            match cur with
            | None ->
                add_edge e;
                count_add e
            | Some _ ->
                invalid_arg
                  (Printf.sprintf
                     "Graph.Delta: Add of already-adjacent pair (%d, %d)" a b))
        | Remove _ -> (
            match cur with
            | Some have when edge_equal have e ->
                remove_edge e;
                count_rem e
            | Some _ | None ->
                invalid_arg
                  (Printf.sprintf
                     "Graph.Delta: Remove of pair (%d, %d) without that \
                      relationship"
                     a b))
        | Flip _ -> (
            match cur with
            | Some have when not (edge_equal have e) ->
                remove_edge have;
                count_rem have;
                add_edge e;
                count_add e
            | Some _ ->
                invalid_arg
                  (Printf.sprintf
                     "Graph.Delta: Flip of pair (%d, %d) to its current \
                      relationship"
                     a b)
            | None ->
                invalid_arg
                  (Printf.sprintf
                     "Graph.Delta: Flip of non-adjacent pair (%d, %d)" a b)))
      d;
    (edits, Array.of_list (List.rev !order), !dc2p, !dp2p)

  let mem_list x l = List.exists (fun y -> y = x) l

  (* Rebuild one adjacency row: drop removed members, append added ones,
     restore sorted order.  The base row is sorted and edits are tiny. *)
  let merge_row (base : int array) rem add =
    match (rem, add) with
    | [], [] -> base
    | _ ->
        let kept =
          Array.to_list base |> List.filter (fun x -> not (mem_list x rem))
        in
        Array.of_list (List.sort Int.compare (List.rev_append add kept))

  let apply g (d : t) =
    let edits, order, dc2p, dp2p = plan g d in
    let tb = tables g in
    let customers = Array.copy tb.customers in
    let providers = Array.copy tb.providers in
    let peers = Array.copy tb.peers in
    Array.iter
      (fun v ->
        match Hashtbl.find_opt edits v with
        | None -> ()
        | Some e ->
            customers.(v) <- merge_row customers.(v) e.c_rem e.c_add;
            peers.(v) <- merge_row peers.(v) e.p_rem e.p_add;
            providers.(v) <- merge_row providers.(v) e.r_rem e.r_add)
      order;
    { n = g.n; num_c2p = g.num_c2p + dc2p; num_p2p = g.num_p2p + dp2p;
      version = fresh_version ();
      tables = Some { customers; providers; peers }; csr_cache = None;
    hierarchy_cache = None }
end

type view = {
  view_n : int;
  iter_customers : (int -> unit) -> int -> unit;
  iter_peers : (int -> unit) -> int -> unit;
  iter_providers : (int -> unit) -> int -> unit;
}

let view g =
  match g.csr_cache with
  | Some c ->
      let adj = c.Csr.adj and xs = c.Csr.xs in
      let seg f lo hi =
        for i = lo to hi - 1 do
          f adj.{i}
        done
      in
      {
        view_n = g.n;
        iter_customers = (fun f v -> seg f xs.{3 * v} xs.{(3 * v) + 1});
        iter_peers = (fun f v -> seg f xs.{(3 * v) + 1} xs.{(3 * v) + 2});
        iter_providers = (fun f v -> seg f xs.{(3 * v) + 2} xs.{(3 * v) + 3});
      }
  | None ->
      let tb = tables g in
      {
        view_n = g.n;
        iter_customers = (fun f v -> Array.iter f tb.customers.(v));
        iter_peers = (fun f v -> Array.iter f tb.peers.(v));
        iter_providers = (fun f v -> Array.iter f tb.providers.(v));
      }

let overlay g (d : Delta.t) =
  let edits, _order, _dc2p, _dp2p = Delta.plan g d in
  let base = view g in
  if Hashtbl.length edits = 0 then base
  else
    let wrap base_it rem_of add_of f v =
      match Hashtbl.find_opt edits v with
      | None -> base_it f v
      | Some e ->
          let rem = rem_of e and add = add_of e in
          (match rem with
          | [] -> base_it f v
          | _ -> base_it (fun u -> if not (Delta.mem_list u rem) then f u) v);
          List.iter f add
    in
    {
      view_n = base.view_n;
      iter_customers =
        wrap base.iter_customers
          (fun e -> e.Delta.c_rem)
          (fun e -> e.Delta.c_add);
      iter_peers =
        wrap base.iter_peers (fun e -> e.Delta.p_rem) (fun e -> e.Delta.p_add);
      iter_providers =
        wrap base.iter_providers
          (fun e -> e.Delta.r_rem)
          (fun e -> e.Delta.r_add);
    }
