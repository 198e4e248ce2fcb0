type t = {
  customer_set : Prelude.Bitset.t;
  peer_set : Prelude.Bitset.t;
  provider_set : Prelude.Bitset.t;
  root : int;
}

let compute_view (vw : Topology.Graph.view) ~root ?(avoid = -1) ?only () =
  let n = vw.Topology.Graph.view_n in
  if root < 0 || root >= n then invalid_arg "Reach.compute: root out of range";
  if root = avoid then invalid_arg "Reach.compute: root = avoid";
  let customer_set = Prelude.Bitset.create n in
  let peer_set = Prelude.Bitset.create n in
  let provider_set = Prelude.Bitset.create n in
  let allowed = match only with None -> fun _ -> true | Some f -> f in
  let ok v = v <> avoid && v <> root && allowed v in
  let iter_customers = vw.Topology.Graph.iter_customers in
  let iter_peers = vw.Topology.Graph.iter_peers in
  let iter_providers = vw.Topology.Graph.iter_providers in
  (* Customer routes: climb customer-to-provider edges from the root. *)
  let queue = Queue.create () in
  let push_customer v =
    if ok v && not (Prelude.Bitset.mem customer_set v) then begin
      Prelude.Bitset.add customer_set v;
      Queue.add v queue
    end
  in
  iter_providers push_customer root;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    iter_providers push_customer u
  done;
  (* Peer routes: one peer hop off a customer route (or off the root). *)
  let has_customer_or_root u = u = root || Prelude.Bitset.mem customer_set u in
  for v = 0 to n - 1 do
    if ok v then begin
      let found = ref false in
      iter_peers (fun u -> if (not !found) && has_customer_or_root u then found := true) v;
      if !found then Prelude.Bitset.add peer_set v
    end
  done;
  (* Provider routes: close downward from anything reachable. *)
  let push_provider v =
    if ok v && not (Prelude.Bitset.mem provider_set v) then begin
      Prelude.Bitset.add provider_set v;
      Queue.add v queue
    end
  in
  let seed u = iter_customers push_provider u in
  seed root;
  Prelude.Bitset.iter seed customer_set;
  Prelude.Bitset.iter seed peer_set;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    seed u
  done;
  { customer_set; peer_set; provider_set; root }

(* The plain-graph entry point runs the same closure over the graph's own
   view: CSR-backed segment scans when the CSR is already built, table
   iteration otherwise.  Reachability is O(E) queue work either way —
   the packed kernel ({!Batch}), not these closures, is the
   unsafe-access hot path. *)
let compute g ~root ?(avoid = -1) ?only () =
  compute_view (Topology.Graph.view g) ~root ~avoid ?only ()

let customer t v = Prelude.Bitset.mem t.customer_set v
let peer t v = Prelude.Bitset.mem t.peer_set v
let provider t v = Prelude.Bitset.mem t.provider_set v
let any t v = customer t v || peer t v || provider t v

let union_into t ~into =
  Prelude.Bitset.union_into ~into t.customer_set;
  Prelude.Bitset.union_into ~into t.peer_set;
  Prelude.Bitset.union_into ~into t.provider_set

let best_class t v =
  if customer t v then Some Policy.Customer
  else if peer t v then Some Policy.Peer
  else if provider t v then Some Policy.Provider
  else None

let in_class t cls v =
  match cls with
  | Policy.Customer -> customer t v
  | Policy.Peer -> peer t v
  | Policy.Provider -> provider t v

(* --- Lane-mask closures ------------------------------------------------

   Up to 63 closures at once, one per bit of a native int (multi-source
   bit-parallel BFS, Then et al., PVLDB 2014).  Each lane carries its own
   root and its own avoided AS, so lanes need not share anything.  The
   three classes become three pull passes over the CSR rows:

     cust[v] = ok[v] & OR over customers u of (cust[u] | root[u])
     peer[v] = ok[v] & OR over peers u     of (cust[u] | root[u])
     prov[v] = ok[v] & OR over providers p of (cust | peer | prov | root)[p]

   where [root[u]] holds the lanes rooted at [u] and [ok[v]] the lanes
   in which [v] is neither the root nor avoided.  Customers first, the
   customer pass reads only finished rows, and so does the provider pass
   in the reverse order: one pass each on an acyclic hierarchy.  On a
   cyclic one the passes repeat from empty masks until none changes; the
   masks only grow, so they stop at the least fixpoint, which is the
   per-lane closure whatever the visiting order.

   To read one array per edge, the buffers hold [up = cust | root] (a
   lane's root is never in its own [cust], so [cust = up & ~root]) and
   [any = up | peer | prov], the value a customer pulls from a
   provider. *)
module Lanes = struct
  (* The per-AS buffers live off the OCaml heap: one workspace per domain
     stays resident, and on the heap it would also grow the major heap
     the GC sizes from live data. *)
  type buf = Topology.Graph.ints

  type t = {
    mutable cap : int;
    mutable up : buf; (* cust | root *)
    mutable peer : buf;
    mutable prov : buf;
    mutable any : buf; (* up | peer | prov *)
    mutable root : buf; (* lanes rooted at the AS *)
    mutable off : buf; (* lanes where the AS is root or avoided *)
    (* The last call's lanes, whose [root]/[off] bits the next call
       clears. *)
    last_roots : int array;
    last_avoid : int array;
    mutable last_lanes : int;
  }

  let buf n =
    let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    Bigarray.Array1.fill b 0;
    b

  let create cap =
    if cap < 0 then invalid_arg "Reach.Lanes.create: negative size";
    {
      cap;
      up = buf cap;
      peer = buf cap;
      prov = buf cap;
      any = buf cap;
      root = buf cap;
      off = buf cap;
      last_roots = Array.make Prelude.Bitset.word_bits 0;
      last_avoid = Array.make Prelude.Bitset.word_bits (-1);
      last_lanes = 0;
    }

  let grow t n =
    if t.cap < n then begin
      t.cap <- n;
      t.up <- buf n;
      t.peer <- buf n;
      t.prov <- buf n;
      t.any <- buf n;
      t.root <- buf n;
      t.off <- buf n;
      t.last_lanes <- 0
    end

  let get (b : buf) i = Bigarray.Array1.unsafe_get b i
  let set (b : buf) i x = Bigarray.Array1.unsafe_set b i x

  (* Position [i] of the visiting order: the hierarchy's topological
     order when it has one, plain ids otherwise. *)
  let at order i = if Array.length order = 0 then i else Array.unsafe_get order i

  (* OR of [x.{u}] over the row slice [adj.{j} .. adj.{stop-1}]: an
     allocation-free loop (no [ref]).  Every Bigarray is annotated
     ([buf]) so its reads compile inline. *)
  let rec or_row adj x j stop acc =
    if j >= stop then acc else or_row adj x (j + 1) stop (acc lor get x (get adj j))

  (* The OR of [x] over segment [seg] (0 customers, 1 peers, 2 providers)
     of [v]'s row. *)
  let or_seg (csr : Topology.Graph.Csr.t) x v seg =
    let xs = csr.Topology.Graph.Csr.xs in
    or_row csr.Topology.Graph.Csr.adj x
      (get xs ((3 * v) + seg))
      (get xs ((3 * v) + seg + 1))
      0

  (* Each pass stores a mask only when it changes and reports whether
     any did, which the cyclic fixpoint loops on. *)
  let rec pass_customer t csr order i n changed =
    if i >= n then changed
    else begin
      let v = at order i in
      let m =
        or_seg csr t.up v 0 land lnot (get t.off v)
        lor get t.root v
      in
      let fresh = m <> get t.up v in
      if fresh then set t.up v m;
      pass_customer t csr order (i + 1) n (changed || fresh)
    end

  let pass_peer t csr n =
    for v = 0 to n - 1 do
      set t.peer v
        (or_seg csr t.up v 1 land lnot (get t.off v))
    done

  let rec pass_provider t csr order i changed =
    if i < 0 then changed
    else begin
      let v = at order i in
      let m = or_seg csr t.any v 2 land lnot (get t.off v) in
      let fresh = m <> get t.prov v in
      if fresh then set t.prov v m;
      set t.any v
        (get t.up v lor get t.peer v lor m);
      pass_provider t csr order (i - 1) (changed || fresh)
    end

  (* Set, or clear, the [root]/[off] bits of lane [l] rooted at [r] and
     avoiding [a]. *)
  let mark t r a l =
    let bit = 1 lsl l in
    t.root.{r} <- t.root.{r} lor bit;
    t.off.{r} <- t.off.{r} lor bit;
    if a >= 0 then t.off.{a} <- t.off.{a} lor bit

  let unmark t r a l =
    let keep = lnot (1 lsl l) in
    t.root.{r} <- t.root.{r} land keep;
    t.off.{r} <- t.off.{r} land keep;
    if a >= 0 then t.off.{a} <- t.off.{a} land keep

  let compute t g ~lanes ~roots ~avoid =
    let n = Topology.Graph.n g in
    if lanes < 1 || lanes > Prelude.Bitset.word_bits then
      invalid_arg "Reach.Lanes.compute: lane count out of range";
    if Array.length roots < lanes || Array.length avoid < lanes then
      invalid_arg "Reach.Lanes.compute: fewer roots than lanes";
    for l = 0 to lanes - 1 do
      let r = roots.(l) and a = avoid.(l) in
      if r < 0 || r >= n then invalid_arg "Reach.Lanes.compute: root out of range";
      if a < -1 || a >= n then
        invalid_arg "Reach.Lanes.compute: avoided AS out of range";
      if r = a then invalid_arg "Reach.Lanes.compute: root = avoid"
    done;
    grow t n;
    for l = 0 to t.last_lanes - 1 do
      unmark t t.last_roots.(l) t.last_avoid.(l) l
    done;
    for l = 0 to lanes - 1 do
      mark t roots.(l) avoid.(l) l
    done;
    Array.blit roots 0 t.last_roots 0 lanes;
    Array.blit avoid 0 t.last_avoid 0 lanes;
    t.last_lanes <- lanes;
    let csr = Topology.Graph.csr g in
    match Topology.Graph.hierarchy g with
    | Ok order ->
        ignore (pass_customer t csr order 0 n false);
        pass_peer t csr n;
        ignore (pass_provider t csr order (n - 1) false)
    | Error _ ->
        for v = 0 to n - 1 do
          t.up.{v} <- 0;
          t.prov.{v} <- 0
        done;
        while pass_customer t csr [||] 0 n false do () done;
        pass_peer t csr n;
        for v = 0 to n - 1 do
          t.any.{v} <- t.up.{v} lor t.peer.{v}
        done;
        while pass_provider t csr [||] (n - 1) false do () done

  let customer t v = t.up.{v} land lnot t.root.{v}
  let peer t v = t.peer.{v}
  let provider t v = t.prov.{v}
end
