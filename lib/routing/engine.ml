type tiebreak = Bounds | Lowest_next_hop

(* Packed candidate state.  A not-yet-fixed AS's best offer is one int
   (plus a parent), laid out LSB-first as

     bit  0      to_m   — some equally-best route leads to the attacker
     bit  1      to_d   — some equally-best route leads to the destination
     bit  2      secure — the route is fully signed and validated
     bits 3-4    cls    — 0 customer / 1 peer / 2 provider
     bits 5-28   len    — perceived path length (max_len = n + 1 < 2^24)
     bits 29-62  rank   — Policy.rank of (cls, len, secure)

   Because the rank is injective on (cls, len, secure) and sits above
   every other field, ordering two candidates by preference is a shift
   and an int test, and a relax touches two hot cache lines (word +
   parent, plus the epoch stamp) instead of the seven parallel arrays
   the pre-change kernel walked — see {!Reference} for that layout.
   The rank bound is O(max_len) for every model and LP variant
   (Policy.max_rank), so 34 rank bits dwarf any graph that fits the 24
   length bits. *)
let to_m_flag = 1

let to_d_flag = 2
let secure_flag = 4
let cls_shift = 3
let len_shift = 5
let len_bits = 24
let len_mask = (1 lsl len_bits) - 1
let rank_shift = len_shift + len_bits

let pack ~rank ~cls_code ~len ~secure ~flags =
  (rank lsl rank_shift)
  lor (len lsl len_shift)
  lor (cls_code lsl cls_shift)
  lor (if secure then secure_flag else 0)
  lor flags

(* The layout as a public sub-module: {!Batch} packs the same word per
   attacker lane, and the batched-divergence checker decodes both sides
   of a mismatch — one definition, re-exported, so the two kernels
   cannot drift apart silently. *)
module Packed = struct
  let to_m_flag = to_m_flag
  let to_d_flag = to_d_flag
  let len_mask = len_mask
  let rank_shift = rank_shift
  let pack = pack
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

module Workspace = struct
  (* A candidate slot is live only when [stamp.(v) = epoch]; bumping the
     epoch invalidates every slot at once, so reuse costs O(1) instead of
     re-filling the candidate arrays per (attacker, destination) pair.
     The bucket queue and the outcome record are recycled in place (the
     queue is empty after a completed drain, the outcome is reset by
     filling, which is cheap relative to allocating + collecting it). *)
  type t = {
    mutable cap : int;
    mutable epoch : int;
    mutable stamp : int array; (* slot live iff stamp.(v) = epoch *)
    mutable word : int array; (* packed candidate, live slots only *)
    mutable parent : int array;
    mutable queue : Prelude.Bucket_queue.t option;
    mutable outcome : Outcome.t option;
  }

  let create cap =
    if cap < 0 then invalid_arg "Engine.Workspace.create: negative size";
    {
      cap;
      epoch = 0;
      stamp = Array.make cap (-1);
      word = Array.make cap 0;
      parent = Array.make cap (-1);
      queue = None;
      outcome = None;
    }

  let key = Domain.DLS.new_key (fun () -> create 0)
  let local () = Domain.DLS.get key

  let grow t n =
    if t.cap < n then begin
      t.cap <- n;
      t.stamp <- Array.make n (-1);
      t.word <- Array.make n 0;
      t.parent <- Array.make n (-1)
    end

  (* Check out the buffers for one computation of size [n] with the given
     rank bound.  Invalidates the outcome of the previous computation
     that used this workspace. *)
  let checkout t ~n ~max_rank ~dst ~attacker =
    grow t n;
    t.epoch <- t.epoch + 1;
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
    let outcome =
      match t.outcome with
      | Some o -> Outcome.reset o ~n ~dst ~attacker
      | None -> Outcome.create ~n ~dst ~attacker
    in
    t.outcome <- Some outcome;
    (t.word, t.parent, t.stamp, t.epoch, queue, outcome)
end

let compute ?(tiebreak = Bounds) ?(attacker_claim = 1) ?ws g policy dep ~dst
    ~attacker =
  if attacker_claim < 0 then
    invalid_arg "Engine.compute: attacker_claim < 0";
  let n = Topology.Graph.n g in
  let check v name =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Engine.compute: %s %d out of range" name v)
  in
  check dst "dst";
  (match attacker with
  | Some m ->
      check m "attacker";
      if m = dst then invalid_arg "Engine.compute: attacker = dst"
  | None -> ());
  let max_len = n + 1 in
  if max_len > len_mask then
    invalid_arg "Engine.compute: graph too large for the packed kernel";
  let tbl = Policy.Rank_table.make policy ~max_len in
  let max_rank = tbl.Policy.Rank_table.max_rank in
  let word, parent, stamp, epoch, queue, outcome =
    match ws with
    | Some ws -> Workspace.checkout ws ~n ~max_rank ~dst ~attacker
    | None ->
        (* Fresh buffers: a zero stamp with epoch 0 marks no slot live,
           matching the workspace's "nothing checked out yet" state. *)
        ( Array.make n 0,
          Array.make n (-1),
          Array.make n (-1),
          0,
          Prelude.Bucket_queue.create ~max_rank,
          Outcome.create ~n ~dst ~attacker )
  in
  (* Fixedness is a sign test on the outcome's raw length array; [fixed]
     entries are never candidates again. *)
  let lengths = Outcome.lengths outcome in
  let csr = Topology.Graph.csr g in
  let adj = csr.Topology.Graph.Csr.adj in
  let xs = csr.Topology.Graph.Csr.xs in
  let mul = tbl.Policy.Rank_table.mul in
  let add = tbl.Policy.Rank_table.add in
  let kk = tbl.Policy.Rank_table.kk in
  (* Offer the route abstraction (cls, len, secure, endpoint flags) to AS
     [w] via next hop [u].  [flags] carries to_d (bit 1) and to_m
     (bit 0). *)
  let relax w ~cls_code ~len ~secure ~flags ~parent:u =
    if Array.unsafe_get lengths w < 0 && len <= max_len then begin
      let sbit = if secure then 0 else 1 in
      let j = (2 * cls_code) + sbit + if len <= kk then 0 else 6 in
      let r = (Array.unsafe_get mul j * len) + Array.unsafe_get add j in
      let cur =
        if Array.unsafe_get stamp w = epoch then
          Array.unsafe_get word w lsr rank_shift
        else max_int
      in
      if r < cur then begin
        Array.unsafe_set stamp w epoch;
        Array.unsafe_set word w (pack ~rank:r ~cls_code ~len ~secure ~flags);
        Array.unsafe_set parent w u;
        Prelude.Bucket_queue.push queue ~rank:r w
      end
      else if r = cur then begin
        match tiebreak with
        | Bounds ->
            (* Same rank implies same class/length/security; accumulate
               endpoints, keep the lowest-numbered representative hop. *)
            Array.unsafe_set word w (Array.unsafe_get word w lor flags);
            if u < Array.unsafe_get parent w then Array.unsafe_set parent w u
        | Lowest_next_hop ->
            if u < Array.unsafe_get parent w then begin
              Array.unsafe_set parent w u;
              Array.unsafe_set word w
                ((Array.unsafe_get word w land lnot (to_d_flag lor to_m_flag))
                lor flags)
            end
      end
    end
  in
  (* Propagate a fixed AS's route to its neighbors, respecting Ex: one
     linear scan over the AS's CSR row, the offered class decided by the
     segment boundary the index has crossed.  Customers of u always
     learn u's route (a provider route at them); peers and providers
     only when u's own route is a customer route (or u is a root). *)
  let expand u ~cls_code ~len ~secure ~flags ~exports_everywhere =
    let signed = secure in
    let len1 = len + 1 in
    let base = 3 * u in
    let c0 = Bigarray.Array1.unsafe_get xs base in
    let p0 = Bigarray.Array1.unsafe_get xs (base + 1) in
    let r0 = Bigarray.Array1.unsafe_get xs (base + 2) in
    let rend = Bigarray.Array1.unsafe_get xs (base + 3) in
    for i = c0 to p0 - 1 do
      let w = Bigarray.Array1.unsafe_get adj i in
      relax w ~cls_code:2 ~len:len1
        ~secure:(signed && Deployment.is_full dep w)
        ~flags ~parent:u
    done;
    if exports_everywhere || cls_code = 0 then begin
      for i = p0 to r0 - 1 do
        let w = Bigarray.Array1.unsafe_get adj i in
        relax w ~cls_code:1 ~len:len1
          ~secure:(signed && Deployment.is_full dep w)
          ~flags ~parent:u
      done;
      for i = r0 to rend - 1 do
        let w = Bigarray.Array1.unsafe_get adj i in
        relax w ~cls_code:0 ~len:len1
          ~secure:(signed && Deployment.is_full dep w)
          ~flags ~parent:u
      done
    end
  in
  (* Roots.  The destination's own announcement is signed when it deploys
     full or simplex S*BGP; the attacker's bogus announcement is plain
     BGP with the claimed path length (1 for the paper's "m d"). *)
  Outcome.fix_root outcome dst ~len:0
    ~secure:(Deployment.signs_origin dep dst)
    ~to_d:true ~to_m:false ~parent:(-1);
  (match attacker with
  | Some m ->
      Outcome.fix_root outcome m ~len:attacker_claim ~secure:false
        ~to_d:false ~to_m:true ~parent:dst
  | None -> ());
  expand dst ~cls_code:(-1) ~len:0
    ~secure:(Deployment.signs_origin dep dst)
    ~flags:to_d_flag ~exports_everywhere:true;
  (match attacker with
  | Some m ->
      expand m ~cls_code:(-1) ~len:attacker_claim ~secure:false
        ~flags:to_m_flag ~exports_everywhere:true
  | None -> ());
  (* Allocation-free drain: [pop_exn]/[last_rank] avoid the option+pair
     a [pop] per settled AS would box. *)
  let rec drain () =
    if not (Prelude.Bucket_queue.is_empty queue) then begin
      let v = Prelude.Bucket_queue.pop_exn queue in
      if Array.unsafe_get lengths v < 0 then begin
        let wv = word.(v) in
        assert (
          stamp.(v) = epoch
          && Prelude.Bucket_queue.last_rank queue = wv lsr rank_shift);
        let cls_code = (wv lsr cls_shift) land 3 in
        let len = (wv lsr len_shift) land len_mask in
        let secure = wv land secure_flag <> 0 in
        Outcome.fix_code outcome v ~cls_code ~len ~secure
          ~to_d:(wv land to_d_flag <> 0)
          ~to_m:(wv land to_m_flag <> 0)
          ~parent:parent.(v);
        expand v ~cls_code ~len ~secure
          ~flags:(wv land (to_d_flag lor to_m_flag))
          ~exports_everywhere:false
      end;
      drain ()
    end
  in
  drain ();
  outcome
