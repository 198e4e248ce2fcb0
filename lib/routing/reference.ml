(* The pre-CSR routing kernel, preserved verbatim as a differential
   baseline: seven parallel candidate arrays, per-class [Array.iter]
   adjacency closures and a [Policy.rank] call per offered edge.  The
   packed CSR engine ({!Engine}) must stay bit-identical to this module
   on every input — enforced by {!Check.Kernel} and test/test_kernel.ml.
   Do not optimize this file: it is the oracle, not a production
   path. *)

type tiebreak = Engine.tiebreak = Bounds | Lowest_next_hop

(* Candidate bookkeeping for not-yet-fixed ASes.  Because the rank encodes
   (class, length, security) completely, all candidates of equal rank at an
   AS differ only in next hop and reachable endpoints; merging their
   to_d/to_m flags is exactly the BPR set of Appendix B. *)
type cand = {
  rank : int array;
  cls : int array; (* 0 customer / 1 peer / 2 provider *)
  len : int array;
  secure : Bytes.t;
  to_d : Bytes.t;
  to_m : Bytes.t;
  parent : int array;
}

let cand_create n =
  {
    rank = Array.make n max_int;
    cls = Array.make n (-1);
    len = Array.make n (-1);
    secure = Bytes.make n '\000';
    to_d = Bytes.make n '\000';
    to_m = Bytes.make n '\000';
    parent = Array.make n (-1);
  }

module Workspace = struct
  (* A candidate slot is live only when [stamp.(v) = epoch]; bumping the
     epoch invalidates every slot at once, so reuse costs O(1) instead of
     re-filling ~7 size-n arrays per (attacker, destination) pair.  The
     bucket queue and the outcome record are recycled in place (the queue
     is empty after a completed drain, the outcome is reset by filling,
     which is cheap relative to allocating + collecting it). *)
  type t = {
    mutable cap : int;
    mutable epoch : int;
    mutable stamp : int array; (* slot live iff stamp.(v) = epoch *)
    mutable cand : cand;
    mutable queue : Prelude.Bucket_queue.t option;
    mutable outcome : Outcome.t option;
  }

  let create cap =
    if cap < 0 then invalid_arg "Reference.Workspace.create: negative size";
    {
      cap;
      epoch = 0;
      stamp = Array.make cap (-1);
      cand = cand_create cap;
      queue = None;
      outcome = None;
    }

  let grow t n =
    if t.cap < n then begin
      t.cap <- n;
      t.stamp <- Array.make n (-1);
      t.cand <- cand_create n
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
    (t.cand, t.stamp, t.epoch, queue, outcome)
end

let cls_of_code = function
  | 0 -> Policy.Customer
  | 1 -> Policy.Peer
  | _ -> Policy.Provider

let compute ?(tiebreak = Bounds) ?(attacker_claim = 1) ?ws g policy dep ~dst
    ~attacker =
  if attacker_claim < 0 then
    invalid_arg "Reference.compute: attacker_claim < 0";
  let n = Topology.Graph.n g in
  let check v name =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Reference.compute: %s %d out of range" name v)
  in
  check dst "dst";
  (match attacker with
  | Some m ->
      check m "attacker";
      if m = dst then invalid_arg "Reference.compute: attacker = dst"
  | None -> ());
  let max_len = n + 1 in
  let max_rank = Policy.max_rank policy ~max_len in
  let cand, stamp, epoch, queue, outcome =
    match ws with
    | Some ws -> Workspace.checkout ws ~n ~max_rank ~dst ~attacker
    | None ->
        (* Fresh buffers: [cand_create]'s sentinel values are exactly the
           "no live candidate" state, so a zero stamp with epoch 0 is
           consistent. *)
        ( cand_create n,
          Array.make n 0,
          0,
          Prelude.Bucket_queue.create ~max_rank,
          Outcome.create ~n ~dst ~attacker )
  in
  let bool_get b v = Bytes.unsafe_get b v <> '\000' in
  let bool_set b v x = Bytes.unsafe_set b v (if x then '\001' else '\000') in
  (* Rank of the best live candidate at [w], max_int when none. *)
  let cand_rank w = if stamp.(w) = epoch then cand.rank.(w) else max_int in
  (* Offer the route abstraction (cls, len, secure, flags) to AS [w] via
     next hop [u]. *)
  let relax w ~cls_code ~len ~secure ~to_d ~to_m ~parent =
    if not (Outcome.is_fixed outcome w) && len <= max_len then begin
      let cls = cls_of_code cls_code in
      let r = Policy.rank policy ~max_len cls ~len ~secure in
      let cur = cand_rank w in
      if r < cur then begin
        stamp.(w) <- epoch;
        cand.rank.(w) <- r;
        cand.cls.(w) <- cls_code;
        cand.len.(w) <- len;
        bool_set cand.secure w secure;
        bool_set cand.to_d w to_d;
        bool_set cand.to_m w to_m;
        cand.parent.(w) <- parent;
        Prelude.Bucket_queue.push queue ~rank:r w
      end
      else if r = cur then begin
        match tiebreak with
        | Bounds ->
            (* Same rank implies same class/length/security; accumulate
               endpoints, keep the lowest-numbered representative hop. *)
            bool_set cand.to_d w (bool_get cand.to_d w || to_d);
            bool_set cand.to_m w (bool_get cand.to_m w || to_m);
            if parent < cand.parent.(w) then cand.parent.(w) <- parent
        | Lowest_next_hop ->
            if parent < cand.parent.(w) then begin
              cand.parent.(w) <- parent;
              bool_set cand.to_d w to_d;
              bool_set cand.to_m w to_m
            end
      end
    end
  in
  (* Propagate a fixed AS's route to its neighbors, respecting Ex. *)
  let expand u ~cls_code ~len ~secure ~to_d ~to_m ~exports_everywhere =
    let signed = secure in
    let offer w cls_code =
      let secure_w = signed && Deployment.is_full dep w in
      relax w ~cls_code ~len:(len + 1) ~secure:secure_w ~to_d ~to_m ~parent:u
    in
    (* Customers of u always learn u's route; u's route at them is a
       provider route. *)
    Array.iter (fun w -> offer w 2) (Topology.Graph.customers g u);
    if exports_everywhere || cls_code = 0 then begin
      Array.iter (fun w -> offer w 1) (Topology.Graph.peers g u);
      Array.iter (fun w -> offer w 0) (Topology.Graph.providers g u)
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
  expand dst ~cls_code:(-1)
    ~len:0
    ~secure:(Deployment.signs_origin dep dst)
    ~to_d:true ~to_m:false ~exports_everywhere:true;
  (match attacker with
  | Some m ->
      expand m ~cls_code:(-1) ~len:attacker_claim ~secure:false ~to_d:false
        ~to_m:true ~exports_everywhere:true
  | None -> ());
  let rec drain () =
    match Prelude.Bucket_queue.pop queue with
    | None -> ()
    | Some (rank, v) ->
        if not (Outcome.is_fixed outcome v) then begin
          assert (stamp.(v) = epoch && rank = cand.rank.(v));
          let cls_code = cand.cls.(v) in
          let len = cand.len.(v) in
          let secure = bool_get cand.secure v in
          let to_d = bool_get cand.to_d v in
          let to_m = bool_get cand.to_m v in
          Outcome.fix outcome v ~cls:(cls_of_code cls_code) ~len ~secure
            ~to_d ~to_m ~parent:cand.parent.(v);
          expand v ~cls_code ~len ~secure ~to_d ~to_m
            ~exports_everywhere:false
        end;
        drain ()
  in
  drain ();
  outcome
