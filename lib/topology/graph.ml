type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

module Csr = struct
  (* Flat compressed-sparse-row adjacency: every neighbor of every AS
     lives in one contiguous [adj] array, one row per AS, with the row
     split into three segments — customers, then peers, then providers.
     [xs] holds the 3n+1 segment boundaries:

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
end

(* The CSR is the graph's only adjacency; it is never mutated once the
   graph holds it.  The hierarchy cache may race: two domains on a cold
   cache both build identical values and one pointer write wins —
   wasted work, never a wrong answer. *)
type t = {
  n : int;
  num_c2p : int;
  num_p2p : int;
  version : int;
  csr : Csr.t;
  mutable hierarchy_cache : (int array, int array) result option;
}

(* Graph identity for caches: process-global, monotone, never reused.
   No computed result may depend on it — it exists so a cache keyed on
   (version, deployment) cannot serve one topology's outcome for
   another after a delta step. *)
let version_counter = Atomic.make 0
let fresh_version () = Atomic.fetch_and_add version_counter 1

(* A graph over a CSR, its edge counts read off the segment sizes. *)
let make (c : Csr.t) =
  let xs = c.Csr.xs in
  let n = (Bigarray.Array1.dim xs - 1) / 3 in
  let c2p = ref 0 and peer_entries = ref 0 in
  for v = 0 to n - 1 do
    c2p := !c2p + (xs.{(3 * v) + 1} - xs.{3 * v});
    peer_entries := !peer_entries + (xs.{(3 * v) + 2} - xs.{(3 * v) + 1})
  done;
  { n; num_c2p = !c2p; num_p2p = !peer_entries / 2;
    version = fresh_version (); csr = c; hierarchy_cache = None }

let csr g = g.csr

(* Boundaries of [3n] consecutive segments, segment [k] of [size k]
   entries. *)
let boundaries n size =
  let xs = Csr.alloc ((3 * n) + 1) in
  xs.{0} <- 0;
  for k = 0 to (3 * n) - 1 do
    xs.{k + 1} <- xs.{k} + size k
  done;
  xs

(* Segment [k] of the CSR (class [k mod 3] of AS [k / 3], indexed like
   [xs]) copied into a fresh array. *)
let segment (c : Csr.t) k =
  let lo = c.Csr.xs.{k} in
  let a = Array.make (c.Csr.xs.{k + 1} - lo) 0 in
  for i = 0 to Array.length a - 1 do
    a.(i) <- c.Csr.adj.{lo + i}
  done;
  a

(* Whether [x] occurs in the sorted span [adj.{lo} .. adj.{hi - 1}]. *)
let mem_span (adj : ints) lo hi x =
  let lo = ref lo and hi = ref hi in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let y = adj.{mid} in
    if y = x then found := true else if y < x then lo := mid + 1 else hi := mid
  done;
  !found

type edge =
  | Customer_provider of int * int
  | Peer_peer of int * int

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
  (* [arcs f] calls [f k u] once per adjacency entry: neighbor [u] in
     segment [k] (indexed like [xs]). *)
  let arcs f =
    Hashtbl.iter
      (fun key rel ->
        let a = key / n and b = key mod n in
        match rel with
        | A_customer_of_b ->
            f ((3 * a) + 2) b;
            f (3 * b) a
        | B_customer_of_a ->
            f ((3 * b) + 2) a;
            f (3 * a) b
        | Peers ->
            f ((3 * a) + 1) b;
            f ((3 * b) + 1) a)
      tbl
  in
  let fill = Array.make (3 * n) 0 in
  arcs (fun k _ -> fill.(k) <- fill.(k) + 1);
  let xs = boundaries n (Array.get fill) in
  let c = { Csr.adj = Csr.alloc xs.{3 * n}; xs } in
  Array.fill fill 0 (3 * n) 0;
  arcs (fun k u ->
      c.Csr.adj.{xs.{k} + fill.(k)} <- u;
      fill.(k) <- fill.(k) + 1);
  (* Sort every segment for determinism (hash iteration order is
     arbitrary). *)
  for k = 0 to (3 * n) - 1 do
    if fill.(k) > 1 then begin
      let s = segment c k in
      Array.sort Int.compare s;
      Array.iteri (fun i u -> c.Csr.adj.{xs.{k} + i} <- u) s
    end
  done;
  make c

let unsafe_of_adjacency ~customers ~providers ~peers =
  let n = Array.length customers in
  if Array.length providers <> n || Array.length peers <> n then
    invalid_arg "Graph.unsafe_of_adjacency: table length mismatch";
  (* Segment [k] is table [k mod 3] (in CSR class order) of AS [k / 3],
     packed as given. *)
  let tables = [| customers; peers; providers |] in
  let row k = tables.(k mod 3).(k / 3) in
  let xs = boundaries n (fun k -> Array.length (row k)) in
  let adj = Csr.alloc xs.{3 * n} in
  for k = 0 to (3 * n) - 1 do
    Array.iteri (fun i u -> adj.{xs.{k} + i} <- u) (row k)
  done;
  make { Csr.adj; xs }

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
  for v = 0 to n - 1 do
    for i = xs.{3 * v} to xs.{(3 * v) + 1} - 1 do
      let u = adj.{i} in
      if not (mem_span adj xs.{(3 * u) + 2} xs.{(3 * u) + 3} v) then
        fail
          (Printf.sprintf "AS %d lists customer %d, but not conversely" v u)
    done;
    for i = xs.{(3 * v) + 1} to xs.{(3 * v) + 2} - 1 do
      let u = adj.{i} in
      if not (mem_span adj xs.{(3 * u) + 1} xs.{(3 * u) + 2} v) then
        fail (Printf.sprintf "AS %d lists peer %d, but not conversely" v u)
    done;
    for i = xs.{(3 * v) + 2} to xs.{(3 * v) + 3} - 1 do
      let u = adj.{i} in
      if not (mem_span adj xs.{3 * u} xs.{(3 * u) + 1} v) then
        fail
          (Printf.sprintf "AS %d lists provider %d, but not conversely" v u)
    done
  done;
  make { Csr.adj; xs }

let n g = g.n
let version g = g.version
let customers g v = segment g.csr (3 * v)
let peers g v = segment g.csr ((3 * v) + 1)
let providers g v = segment g.csr ((3 * v) + 2)

let seg_len g k = g.csr.Csr.xs.{k + 1} - g.csr.Csr.xs.{k}
let customer_degree g v = seg_len g (3 * v)
let peer_degree g v = seg_len g ((3 * v) + 1)
let provider_degree g v = seg_len g ((3 * v) + 2)
let degree g v = g.csr.Csr.xs.{(3 * v) + 3} - g.csr.Csr.xs.{3 * v}

let num_customer_provider_edges g = g.num_c2p
let num_peer_edges g = g.num_p2p
let is_stub g v = customer_degree g v = 0

let relationship g a b =
  if a < 0 || a >= g.n || b < 0 || b >= g.n then
    invalid_arg "Graph.relationship: AS out of range";
  if a = b then invalid_arg "Graph.relationship: equal endpoints";
  let { Csr.adj; xs } = g.csr in
  let has k = mem_span adj xs.{k} xs.{k + 1} b in
  if has ((3 * a) + 2) then Some (Customer_provider (a, b))
  else if has (3 * a) then Some (Customer_provider (b, a))
  else if has ((3 * a) + 1) then
    Some (Peer_peer ((if a < b then a else b), if a < b then b else a))
  else None

let edges g =
  let { Csr.adj; xs } = g.csr in
  let acc = ref [] in
  for v = 0 to g.n - 1 do
    for i = xs.{(3 * v) + 2} to xs.{(3 * v) + 3} - 1 do
      acc := Customer_provider (v, adj.{i}) :: !acc
    done;
    for i = xs.{(3 * v) + 1} to xs.{(3 * v) + 2} - 1 do
      if v < adj.{i} then acc := Peer_peer (v, adj.{i}) :: !acc
    done
  done;
  !acc

(* Kahn's algorithm on the customer -> provider digraph, once per
   graph: the ASes in the order it retires them (every customer before
   its providers), or — when some never reach in-degree 0 — those, which
   sit on or above a cycle.  [order] doubles as the FIFO queue (pops
   happen in push order). *)
let hierarchy g =
  match g.hierarchy_cache with
  | Some h -> h
  | None ->
      let { Csr.adj; xs } = g.csr in
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
    let { Csr.adj; xs } = g.csr in
    let seen = Prelude.Bitset.create g.n in
    let queue = Queue.create () in
    Prelude.Bitset.add seen 0;
    Queue.add 0 queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      for i = xs.{3 * v} to xs.{(3 * v) + 3} - 1 do
        let u = adj.{i} in
        if not (Prelude.Bitset.mem seen u) then begin
          Prelude.Bitset.add seen u;
          Queue.add u queue
        end
      done
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
     edits, keyed by every endpoint of the delta.  The table is consulted
     by keyed lookup only — its iteration order never matters. *)
  let plan g (d : t) =
    let edits : (int, edit) Hashtbl.t = Hashtbl.create 16 in
    let edit v =
      match Hashtbl.find_opt edits v with
      | Some e -> e
      | None ->
          let e =
            { c_rem = []; c_add = []; p_rem = []; p_add = [];
              r_rem = []; r_add = [] }
          in
          Hashtbl.add edits v e;
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
            | None -> add_edge e
            | Some _ ->
                invalid_arg
                  (Printf.sprintf
                     "Graph.Delta: Add of already-adjacent pair (%d, %d)" a b))
        | Remove _ -> (
            match cur with
            | Some have when edge_equal have e -> remove_edge e
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
                add_edge e
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
    edits

  let mem_list x l = List.exists (fun y -> y = x) l

  (* Rebuild one adjacency segment: drop removed members, append added
     ones, restore sorted order.  The base segment is sorted and edits
     are tiny. *)
  let merge_row (base : int array) rem add =
    match (rem, add) with
    | [], [] -> base
    | _ ->
        let kept =
          Array.to_list base |> List.filter (fun x -> not (mem_list x rem))
        in
        Array.of_list (List.sort Int.compare (List.rev_append add kept))

  (* The parent's CSR with the touched rows rewritten: the spans of
     untouched rows between them are blitted, shifted by what the
     touched rows before them grew or shrank. *)
  let apply g (d : t) =
    let edits = plan g d in
    let { Csr.adj; xs } = g.csr in
    let touched = endpoints d in
    let rows =
      Array.map
        (fun v ->
          let e = Hashtbl.find edits v in
          let seg s rem add = merge_row (segment g.csr ((3 * v) + s)) rem add in
          [| seg 0 e.c_rem e.c_add; seg 1 e.p_rem e.p_add;
             seg 2 e.r_rem e.r_add |])
        touched
    in
    let growth = ref 0 in
    Array.iteri
      (fun i v ->
        Array.iter (fun s -> growth := !growth + Array.length s) rows.(i);
        growth := !growth - (xs.{(3 * v) + 3} - xs.{3 * v}))
      touched;
    let xs' = Csr.alloc ((3 * g.n) + 1) in
    let adj' = Csr.alloc (Bigarray.Array1.dim adj + !growth) in
    (* Rows [from, upto) are untouched: their entries move by [shift]. *)
    let copy_rows from upto shift =
      for k = 3 * from to (3 * upto) - 1 do
        xs'.{k} <- xs.{k} + shift
      done;
      let lo = xs.{3 * from} and len = xs.{3 * upto} - xs.{3 * from} in
      Bigarray.Array1.blit
        (Bigarray.Array1.sub adj lo len)
        (Bigarray.Array1.sub adj' (lo + shift) len)
    in
    let from = ref 0 and shift = ref 0 in
    Array.iteri
      (fun i v ->
        copy_rows !from v !shift;
        let pos = ref (xs.{3 * v} + !shift) in
        Array.iteri
          (fun s seg ->
            xs'.{(3 * v) + s} <- !pos;
            Array.iteri (fun j u -> adj'.{!pos + j} <- u) seg;
            pos := !pos + Array.length seg)
          rows.(i);
        shift := !pos - xs.{(3 * v) + 3};
        from := v + 1)
      touched;
    copy_rows !from g.n !shift;
    xs'.{3 * g.n} <- xs.{3 * g.n} + !shift;
    make { Csr.adj = adj'; xs = xs' }
end
