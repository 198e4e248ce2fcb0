(* Destination-major batched stable-state kernel: the one production
   routing solver.

   For a fixed destination d the legitimate routing tree is the same for
   every attacker; only the bogus one-hop "m d" announcement differs.
   This kernel runs the label-setting computation once per destination
   for up to {!max_lanes} attackers at a time: attacker l is "lane" l, a
   bit in a native-int word (63 usable bits — an OCaml immediate int,
   matching {!Prelude.Bitset.word_bits}).  An empty attacker array
   solves one attacker-free lane: normal conditions.

   A lane's candidate state is one packed word per AS ({!Packed}),
   ordered by the preference rank in its top bits, with a parent.
   Per-lane candidate state would cost 63 rank compares per edge and
   erase the sharing.  Instead each AS holds a small set of {e groups}
   [(mask, word, parent)]: [mask] is the set of lanes in the group,
   [word] the lanes' shared packed candidate, [parent] the shared
   representative next hop.  Group masks are pairwise disjoint and
   every lane sits in at most one group, so an AS has at most 63 of
   them — and far from the attackers' influence the whole word stays in
   one monolithic group, which is where the batching wins: one CSR row
   scan, one rank compare and one queue push serve all 63 attackers at
   once.

   Every per-group operation is the one-lane operation applied to a
   lane set:

   - relax: lanes whose group has a worse rank move to a freshly
     appended winner group; equal ranks merge with the tiebreak
     (Bounds: or the endpoint flags, keep the minimum parent; LNH:
     replace when the offered parent is strictly smaller) — splitting
     the group when only part of it ties; better ranks ignore the offer.
   - fix: popping rank r freezes every live rank-r group of the AS at
     once and expands the union of their masks per endpoint-flag class
     (at most three CSR scans per AS per rank level, instead of one per
     attacker).

   Per-lane correctness rests on two properties of the rank encoding,
   both property-tested elsewhere: ranks are injective on (class,
   length, security), so all groups popped at one rank share every
   decoded field; and ranks are strictly monotone along route
   extensions, so all rank-r offers exist before the first rank-r pop
   (the queue is a monotone bucket queue) and equal-rank merge order is
   irrelevant because both tiebreaks are order-independent.  Each lane
   is bit-identical to the {!Reference} kernel solving its attacker
   alone. *)

type tiebreak = Bounds | Lowest_next_hop

(* Packed candidate state, one int per lane group (layout in the
   interface).  Because the rank is injective on (cls, len, secure) and
   sits above every other field, ordering two candidates by preference
   is a shift and an int test, and a Bounds merge is one [lor] — see
   {!Reference} for the seven-array layout this replaced.  The rank
   bound is O(max_len) for every model and LP variant (Policy.max_rank),
   so 34 rank bits dwarf any graph that fits the 24 length bits, which
   hold every length of a graph within [Topology.Graph.max_ases]. *)
module Packed = struct
  let to_m_flag = 1
  let to_d_flag = 2
  let secure_flag = 4
  let cls_shift = 3
  let len_shift = 5
  let len_mask = (1 lsl 24) - 1
  let rank_shift = len_shift + 24

  let pack ~rank ~cls_code ~len ~secure ~flags =
    (rank lsl rank_shift)
    lor (len lsl len_shift)
    lor (cls_code lsl cls_shift)
    lor (if secure then secure_flag else 0)
    lor flags

  let len_of w = (w lsr len_shift) land len_mask
  let cls_code_of w = (w lsr cls_shift) land 3
  let secure_of w = w land secure_flag <> 0
  let to_d_of w = w land to_d_flag <> 0
  let to_m_of w = w land to_m_flag <> 0

  let describe w =
    Printf.sprintf "rank=%d cls=%d len=%d secure=%b to_d=%b to_m=%b"
      (w lsr rank_shift) (cls_code_of w) (len_of w) (secure_of w) (to_d_of w)
      (to_m_of w)
end

let max_lanes = Prelude.Bitset.word_bits

module Workspace = struct
  (* Epoch-stamp discipline: per-AS state ([fixed] lane mask, group
     count) is live only when [stamp.(v) = epoch], so reuse costs O(1)
     plus one clear of the [touched] set (O(n / 63)).

     The group slabs [gmask]/[gword]/[gparent] are plane-major: group
     [i] of AS [v] sits at [i * cap + v], so plane [i] holds the [i]-th
     group of every AS contiguously.  A solve whose ASes hold one or two
     groups (every one-lane solve, and most of a full word far from the
     attackers) reads and writes only the first planes; the disjoint-mask
     invariant caps the live count at [max_lanes], so [max_lanes] planes
     never overflow.

     The slabs are off-heap and allocated uninitialised: the GC never
     scans them, and planes no solve reaches are never committed.  That
     is sound because every slab read of AS [v] is bounded by
     [gcnt.(v)], which [touch] resets to 0 under the epoch stamp before
     the first write; no slot at or above [gcnt.(v)] is ever read,
     whatever the memory held before. *)
  type slab = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = {
    mutable cap : int;
    mutable epoch : int;
    mutable stamp : int array;
    mutable fixed : int array; (* per AS: mask of fixed lanes *)
    mutable gcnt : int array; (* per AS: live group count *)
    mutable gmask : slab; (* max_lanes planes of cap slots each *)
    mutable gword : slab;
    mutable gparent : slab;
    mutable touched : Prelude.Bitset.t; (* ASes holding any group *)
    mutable queue : Prelude.Bucket_queue.t option;
    (* Per-lane counts of the non-root (AS, lane) routes the drain fixed,
       by endpoint flags: to the attacker only, to the destination only,
       to both.  Sized for [cap] ASes, cleared at each checkout. *)
    mutable m_only : Prelude.Lane_counter.t;
    mutable d_only : Prelude.Lane_counter.t;
    mutable both : Prelude.Lane_counter.t;
  }

  let slab cap =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout (cap * max_lanes)

  let create cap =
    if cap < 0 then invalid_arg "Batch.Workspace.create: negative size";
    {
      cap;
      epoch = 0;
      stamp = Array.make cap (-1);
      fixed = Array.make cap 0;
      gcnt = Array.make cap 0;
      gmask = slab cap;
      gword = slab cap;
      gparent = slab cap;
      touched = Prelude.Bitset.create cap;
      queue = None;
      m_only = Prelude.Lane_counter.create ~max_count:cap;
      d_only = Prelude.Lane_counter.create ~max_count:cap;
      both = Prelude.Lane_counter.create ~max_count:cap;
    }

  let key = Domain.DLS.new_key (fun () -> create 0)
  let local () = Domain.DLS.get key

  let grow t n =
    if t.cap < n then begin
      t.cap <- n;
      t.stamp <- Array.make n (-1);
      t.fixed <- Array.make n 0;
      t.gcnt <- Array.make n 0;
      t.gmask <- slab n;
      t.gword <- slab n;
      t.gparent <- slab n;
      t.touched <- Prelude.Bitset.create n;
      t.m_only <- Prelude.Lane_counter.create ~max_count:n;
      t.d_only <- Prelude.Lane_counter.create ~max_count:n;
      t.both <- Prelude.Lane_counter.create ~max_count:n
    end

  let checkout t ~n ~max_rank =
    grow t n;
    t.epoch <- t.epoch + 1;
    Prelude.Bitset.clear t.touched;
    Prelude.Lane_counter.clear t.m_only;
    Prelude.Lane_counter.clear t.d_only;
    Prelude.Lane_counter.clear t.both;
    let queue =
      match t.queue with
      | Some q when Prelude.Bucket_queue.capacity q >= max_rank ->
          Prelude.Bucket_queue.clear q;
          q
      | Some _ | None ->
          let q = Prelude.Bucket_queue.create ~max_rank in
          t.queue <- Some q;
          q
    in
    queue
end

type t = {
  n : int;
  b_dst : int;
  b_lanes : int;
  b_attackers : int array;
      (* lane l's attacker; empty for the one attacker-free lane *)
  ws : Workspace.t; (* owns the frozen group state *)
  epoch : int; (* result valid while ws.epoch = epoch *)
}

let live t =
  if t.ws.Workspace.epoch <> t.epoch then
    invalid_arg "Batch: result invalidated by a later compute on its workspace"

let all_mask ~lanes = if lanes >= max_lanes then -1 else (1 lsl lanes) - 1

let compute ?(tiebreak = Bounds) ?(attacker_claim = 1) ?ws g policy dep
    ~dst ~attackers =
  if attacker_claim < 0 then invalid_arg "Batch.compute: attacker_claim < 0";
  let n = Topology.Graph.n g in
  if Array.length attackers > max_lanes then
    invalid_arg
      (Printf.sprintf "Batch.compute: lane count %d outside 0..%d"
         (Array.length attackers) max_lanes);
  (* No attacker still solves one lane: the normal state. *)
  let nlanes = max 1 (Array.length attackers) in
  let check v name =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Batch.compute: %s %d out of range" name v)
  in
  check dst "dst";
  Array.iter
    (fun m ->
      check m "attacker";
      if m = dst then invalid_arg "Batch.compute: attacker = dst")
    attackers;
  (* Graphs are bounded so that [max_len] fits the packed length field. *)
  if n > Topology.Graph.max_ases then
    invalid_arg "Batch.compute: graph exceeds Topology.Graph.max_ases";
  let max_len = n + 1 in
  let tbl = Policy.Rank_table.make policy ~max_len in
  let max_rank = tbl.Policy.Rank_table.max_rank in
  let ws = match ws with Some ws -> ws | None -> Workspace.create n in
  let queue = Workspace.checkout ws ~n ~max_rank in
  let epoch = ws.Workspace.epoch in
  let stamp = ws.Workspace.stamp in
  let fixed = ws.Workspace.fixed in
  let gcnt = ws.Workspace.gcnt in
  let gmask = ws.Workspace.gmask in
  let gword = ws.Workspace.gword in
  let gparent = ws.Workspace.gparent in
  let cap = ws.Workspace.cap in
  let touched = ws.Workspace.touched in
  let csr = Topology.Graph.csr g in
  let adj = csr.Topology.Graph.Csr.adj in
  let xs = csr.Topology.Graph.Csr.xs in
  let mul = tbl.Policy.Rank_table.mul in
  let add = tbl.Policy.Rank_table.add in
  let kk = tbl.Policy.Rank_table.kk in
  (* First contact with an AS this solve: revalidate its lazily-reused
     per-AS state. *)
  let touch v =
    if Array.unsafe_get stamp v <> epoch then begin
      Array.unsafe_set stamp v epoch;
      Array.unsafe_set fixed v 0;
      Array.unsafe_set gcnt v 0;
      Prelude.Bitset.add touched v
    end
  in
  let append w ~mask ~word ~parent =
    let c = Array.unsafe_get gcnt w in
    assert (c < max_lanes);
    let gi = (c * cap) + w in
    Bigarray.Array1.unsafe_set gmask gi mask;
    Bigarray.Array1.unsafe_set gword gi word;
    Bigarray.Array1.unsafe_set gparent gi parent;
    Array.unsafe_set gcnt w (c + 1)
  in
  (* Offer (cls, len, secure, flags) via next hop [u] to the lanes in
     [mask] at AS [w] — one lane's relax applied group-wise.  Lanes
     whose group loses the rank compare collect in [winners] and join
     the fresh lanes (no group yet) in one newly appended group.
     The scratch refs are hoisted to solve scope: [relax] runs once per
     (neighbor, offer) — the hottest loop in the batched kernel — and a
     non-flambda build would otherwise box three fresh refs per call. *)
  let remaining = ref 0 and winners = ref 0 and i = ref 0 in
  let relax w ~mask ~cls_code ~len ~secure ~flags ~parent:u =
    if len <= max_len then begin
      touch w;
      let live = mask land lnot (Array.unsafe_get fixed w) in
      if live <> 0 then begin
        let sbit = if secure then 0 else 1 in
        let j = (2 * cls_code) + sbit + if len <= kk then 0 else 6 in
        let r = (Array.unsafe_get mul j * len) + Array.unsafe_get add j in
        remaining := live;
        winners := 0;
        i := 0;
        while !i < Array.unsafe_get gcnt w && !remaining <> 0 do
          let gi = (!i * cap) + w in
          let gm = Bigarray.Array1.unsafe_get gmask gi in
          let inter = gm land !remaining in
          if inter = 0 then incr i
          else begin
            remaining := !remaining lxor inter;
            let gw = Bigarray.Array1.unsafe_get gword gi in
            let cur = gw lsr Packed.rank_shift in
            if r < cur then begin
              (* These lanes take the new offer; shrink or delete the
                 losing group (delete swaps the last group in, so the
                 slot is re-examined). *)
              winners := !winners lor inter;
              if inter = gm then begin
                let c = Array.unsafe_get gcnt w - 1 in
                Array.unsafe_set gcnt w c;
                let last = (c * cap) + w in
                Bigarray.Array1.unsafe_set gmask gi
                  (Bigarray.Array1.unsafe_get gmask last);
                Bigarray.Array1.unsafe_set gword gi
                  (Bigarray.Array1.unsafe_get gword last);
                Bigarray.Array1.unsafe_set gparent gi
                  (Bigarray.Array1.unsafe_get gparent last)
              end
              else begin
                Bigarray.Array1.unsafe_set gmask gi (gm lxor inter);
                incr i
              end
            end
            else begin
              (if r = cur then
                 match tiebreak with
                 | Bounds ->
                     (* Same rank implies same class/length/security;
                        accumulate endpoint flags, keep the lowest
                        representative hop — updating in place when the
                        whole group ties, splitting off the tying lanes
                        otherwise. *)
                     let gp = Bigarray.Array1.unsafe_get gparent gi in
                     let nw = gw lor flags in
                     let np = if u < gp then u else gp in
                     if nw <> gw || np <> gp then
                       if inter = gm then begin
                         Bigarray.Array1.unsafe_set gword gi nw;
                         Bigarray.Array1.unsafe_set gparent gi np
                       end
                       else begin
                         Bigarray.Array1.unsafe_set gmask gi (gm lxor inter);
                         append w ~mask:inter ~word:nw ~parent:np
                       end
                 | Lowest_next_hop ->
                     if u < Bigarray.Array1.unsafe_get gparent gi then begin
                       let nw =
                         gw
                         land lnot (Packed.to_d_flag lor Packed.to_m_flag)
                         lor flags
                       in
                       if inter = gm then begin
                         Bigarray.Array1.unsafe_set gword gi nw;
                         Bigarray.Array1.unsafe_set gparent gi u
                       end
                       else begin
                         Bigarray.Array1.unsafe_set gmask gi (gm lxor inter);
                         append w ~mask:inter ~word:nw ~parent:u
                       end
                     end);
              incr i
            end
          end
        done;
        let installs = !winners lor !remaining in
        if installs <> 0 then begin
          append w ~mask:installs
            ~word:(Packed.pack ~rank:r ~cls_code ~len ~secure ~flags)
            ~parent:u;
          Prelude.Bucket_queue.push queue ~rank:r w
        end
      end
    end
  in
  (* Propagate a fixed route to the neighbors of [u] for the lanes in
     [mask], respecting Ex: one linear scan over the AS's CSR row, the
     offered class decided by the segment boundary the index has
     crossed.  Customers of u always learn u's route (a provider route
     at them); peers and providers only when u's own route is a
     customer route (or u is a root). *)
  let expand u ~mask ~cls_code ~len ~secure ~flags ~exports_everywhere =
    let signed = secure in
    let len1 = len + 1 in
    let base = 3 * u in
    let c0 = Bigarray.Array1.unsafe_get xs base in
    let p0 = Bigarray.Array1.unsafe_get xs (base + 1) in
    let r0 = Bigarray.Array1.unsafe_get xs (base + 2) in
    let rend = Bigarray.Array1.unsafe_get xs (base + 3) in
    for i = c0 to p0 - 1 do
      let w = Bigarray.Array1.unsafe_get adj i in
      relax w ~mask ~cls_code:2 ~len:len1
        ~secure:(signed && Deployment.is_full dep w)
        ~flags ~parent:u
    done;
    if exports_everywhere || cls_code = 0 then begin
      for i = p0 to r0 - 1 do
        let w = Bigarray.Array1.unsafe_get adj i in
        relax w ~mask ~cls_code:1 ~len:len1
          ~secure:(signed && Deployment.is_full dep w)
          ~flags ~parent:u
      done;
      for i = r0 to rend - 1 do
        let w = Bigarray.Array1.unsafe_get adj i in
        relax w ~mask ~cls_code:0 ~len:len1
          ~secure:(signed && Deployment.is_full dep w)
          ~flags ~parent:u
      done
    end
  in
  (* Roots: the destination is fixed for every lane; each attacker only
     for its own lane (in the other lanes it is an ordinary AS).  Root
     groups carry cls 3 in the word.  The destination's announcement is
     signed when it deploys full or simplex S*BGP; the attacker's bogus
     one is plain BGP with the claimed path length (1 for the paper's
     "m d"). *)
  let every = all_mask ~lanes:nlanes in
  let signs = Deployment.signs_origin dep dst in
  touch dst;
  fixed.(dst) <- every;
  append dst ~mask:every
    ~word:
      (Packed.pack ~rank:0 ~cls_code:3 ~len:0 ~secure:signs
         ~flags:Packed.to_d_flag)
    ~parent:(-1);
  Array.iteri
    (fun l m ->
      touch m;
      fixed.(m) <- fixed.(m) lor (1 lsl l);
      append m ~mask:(1 lsl l)
        ~word:
          (Packed.pack ~rank:0 ~cls_code:3 ~len:attacker_claim ~secure:false
             ~flags:Packed.to_m_flag)
        ~parent:dst)
    attackers;
  expand dst ~mask:every ~cls_code:(-1) ~len:0 ~secure:signs
    ~flags:Packed.to_d_flag ~exports_everywhere:true;
  Array.iteri
    (fun l m ->
      expand m ~mask:(1 lsl l) ~cls_code:(-1) ~len:attacker_claim
        ~secure:false ~flags:Packed.to_m_flag ~exports_everywhere:true)
    attackers;
  (* Drain: popping rank r freezes every live rank-r group of the AS at
     once.  Rank injectivity means they all decode to the same
     (cls, len, secure), so expansion needs one CSR walk per distinct
     endpoint-flag value (to_m / to_d / both) — the masks are unioned
     per flag class first.

     Each (AS, lane) is fixed by exactly one pop, with its final
     endpoint flags (relax never touches a fixed lane), so adding the
     three unioned masks to the workspace's lane counters counts every
     lane's stable routes by endpoint as they settle.  Root groups are
     fixed before the drain and never popped, which leaves out exactly
     each lane's two non-sources: the destination, and the lane's own
     attacker. *)
  (* Scratch refs hoisted like [relax]'s; the [pop_exn]/[last_rank] pair
     avoids boxing an option per settled rank. *)
  let em1 = ref 0 and em2 = ref 0 and em3 = ref 0 in
  let shared = ref 0 in
  let m_only = ws.Workspace.m_only in
  let d_only = ws.Workspace.d_only in
  let both = ws.Workspace.both in
  let rec drain () =
    if not (Prelude.Bucket_queue.is_empty queue) then begin
      let v = Prelude.Bucket_queue.pop_exn queue in
      let r = Prelude.Bucket_queue.last_rank queue in
      let fx = Array.unsafe_get fixed v in
      em1 := 0;
      em2 := 0;
      em3 := 0;
      shared := 0;
      for i = 0 to Array.unsafe_get gcnt v - 1 do
        let gi = (i * cap) + v in
        let gm = Bigarray.Array1.unsafe_get gmask gi in
        if gm land fx = 0 then begin
          let gw = Bigarray.Array1.unsafe_get gword gi in
          if gw lsr Packed.rank_shift = r then begin
            shared := gw;
            match gw land (Packed.to_d_flag lor Packed.to_m_flag) with
            | 1 -> em1 := !em1 lor gm
            | 2 -> em2 := !em2 lor gm
            | _ -> em3 := !em3 lor gm
          end
        end
      done;
      let em_all = !em1 lor !em2 lor !em3 in
      if em_all <> 0 then begin
        Array.unsafe_set fixed v (fx lor em_all);
        let gw = !shared in
        let cls_code = Packed.cls_code_of gw in
        let len = Packed.len_of gw in
        let secure = Packed.secure_of gw in
        let m1 = !em1 and m2 = !em2 and m3 = !em3 in
        if m1 <> 0 then begin
          Prelude.Lane_counter.add m_only m1;
          expand v ~mask:m1 ~cls_code ~len ~secure ~flags:1
            ~exports_everywhere:false
        end;
        if m2 <> 0 then begin
          Prelude.Lane_counter.add d_only m2;
          expand v ~mask:m2 ~cls_code ~len ~secure ~flags:2
            ~exports_everywhere:false
        end;
        if m3 <> 0 then begin
          Prelude.Lane_counter.add both m3;
          expand v ~mask:m3 ~cls_code ~len ~secure ~flags:3
            ~exports_everywhere:false
        end
      end;
      drain ()
    end
  in
  drain ();
  {
    n;
    b_dst = dst;
    b_lanes = nlanes;
    b_attackers = Array.copy attackers;
    ws;
    epoch;
  }

let iter_fixed t f =
  live t;
  let ws = t.ws in
  let gcnt = ws.Workspace.gcnt in
  let gmask = ws.Workspace.gmask in
  let gword = ws.Workspace.gword in
  let gparent = ws.Workspace.gparent in
  let cap = ws.Workspace.cap in
  Prelude.Bitset.iter_set
    (fun v ->
      for i = 0 to gcnt.(v) - 1 do
        let gi = (i * cap) + v in
        f ~v ~mask:gmask.{gi} ~word:gword.{gi} ~parent:gparent.{gi}
      done)
    ws.Workspace.touched

type endpoints = { d_only : int; m_only : int; both : int }

let endpoints t =
  live t;
  let ws = t.ws in
  Array.init t.b_lanes (fun l ->
      {
        d_only = Prelude.Lane_counter.get ws.Workspace.d_only l;
        m_only = Prelude.Lane_counter.get ws.Workspace.m_only l;
        both = Prelude.Lane_counter.get ws.Workspace.both l;
      })

let groups t =
  live t;
  let gcnt = t.ws.Workspace.gcnt in
  Prelude.Bitset.fold (fun v acc -> acc + gcnt.(v)) t.ws.Workspace.touched 0

let decode ?into t ~lane =
  live t;
  if lane < 0 || lane >= t.b_lanes then invalid_arg "Batch.decode: bad lane";
  let attacker =
    if Array.length t.b_attackers = 0 then None
    else Some t.b_attackers.(lane)
  in
  let o =
    match into with
    | Some o -> Outcome.reset o ~n:t.n ~dst:t.b_dst ~attacker
    | None -> Outcome.create ~n:t.n ~dst:t.b_dst ~attacker
  in
  let bit = 1 lsl lane in
  iter_fixed t (fun ~v ~mask ~word ~parent ->
      if mask land bit <> 0 then
        if Packed.cls_code_of word = 3 then
          Outcome.fix_root o v ~len:(Packed.len_of word)
            ~secure:(Packed.secure_of word) ~to_d:(Packed.to_d_of word)
            ~to_m:(Packed.to_m_of word) ~parent
        else
          Outcome.fix_code o v ~cls_code:(Packed.cls_code_of word)
            ~len:(Packed.len_of word) ~secure:(Packed.secure_of word)
            ~to_d:(Packed.to_d_of word) ~to_m:(Packed.to_m_of word) ~parent);
  o

let group_of t ~v ~lane =
  live t;
  if lane < 0 || lane >= t.b_lanes then invalid_arg "Batch.group_of: bad lane";
  if v < 0 || v >= t.n then invalid_arg "Batch.group_of: AS out of range";
  let ws = t.ws in
  if ws.Workspace.stamp.(v) <> t.epoch then None
  else begin
    let bit = 1 lsl lane in
    let cap = ws.Workspace.cap in
    let res = ref None in
    for i = 0 to ws.Workspace.gcnt.(v) - 1 do
      let gi = (i * cap) + v in
      if ws.Workspace.gmask.{gi} land bit <> 0 then
        res :=
          Some
            ( ws.Workspace.gmask.{gi},
              ws.Workspace.gword.{gi},
              ws.Workspace.gparent.{gi} )
    done;
    !res
  end
