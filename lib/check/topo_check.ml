(* Differential checks for the off-heap topology layer:

   - every graph of a seeded delta chain must hold the CSR that
     [Graph.of_edges] rebuilds from its edge list: [Delta.apply]
     patches the parent's CSR row by row, and a divergence means the
     patch (or the rebuild) is wrong;
   - a binary snapshot must round-trip bit-identically, and a corrupted
     payload must be rejected (the digest gate actually fires);
   - replaying a seeded chain of topology deltas through
     {!Metric.H_metric.Replay} must be bit-identical to from-scratch
     pair bounds on every stepped graph — the dirty-cone influence test
     may only skip work, never change results. *)

module D = Diagnostic
module G = Topology.Graph
module M = Metric.H_metric

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ---- Snapshot round-trip ------------------------------------------ *)

let graphs_identical a b =
  let ints_equal (x : G.ints) (y : G.ints) =
    Bigarray.Array1.dim x = Bigarray.Array1.dim y
    &&
    let ok = ref true in
    for i = 0 to Bigarray.Array1.dim x - 1 do
      if x.{i} <> y.{i} then ok := false
    done;
    !ok
  in
  let ca = G.csr a and cb = G.csr b in
  G.n a = G.n b
  && G.num_customer_provider_edges a = G.num_customer_provider_edges b
  && G.num_peer_edges a = G.num_peer_edges b
  && ints_equal ca.G.Csr.xs cb.G.Csr.xs
  && ints_equal ca.G.Csr.adj cb.G.Csr.adj

let with_temp_snapshot f =
  let path = Filename.temp_file "sbgp-check" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let snapshot_pass g =
  let diags = ref [] in
  let fail msg =
    diags := !diags @ [ D.error ~rule:"topo/snapshot" msg ]
  in
  with_temp_snapshot (fun path ->
      Topology.Serial.save_snapshot path g;
      (match Topology.Serial.load_snapshot path with
      | g' ->
          if not (graphs_identical g g') then
            fail "snapshot round-trip is not bit-identical to the source graph"
      | exception Failure msg ->
          fail ("snapshot round-trip failed to load: " ^ msg));
      (* The digest must catch payload corruption: flip one byte past the
         header and demand a load failure. *)
      let size = (Unix.stat path).Unix.st_size in
      if size > Topology.Serial.snapshot_payload_offset then begin
        let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let pos = Topology.Serial.snapshot_payload_offset in
            ignore (Unix.lseek fd pos Unix.SEEK_SET);
            let b = Bytes.create 1 in
            ignore (Unix.read fd b 0 1);
            Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
            ignore (Unix.lseek fd pos Unix.SEEK_SET);
            ignore (Unix.write fd b 0 1));
        match Topology.Serial.load_snapshot path with
        | _ -> fail "corrupted snapshot payload loaded without a digest error"
        | exception Failure _ -> ()
      end);
  (2, !diags)

(* ---- Delta replay vs scratch -------------------------------------- *)

(* Deterministic mixed deployment (the same shape check.ml uses; kept
   local so this module stays self-contained). *)
let dep_mixed n =
  Deployment.of_modes
    (Array.init n (fun v ->
         match v mod 5 with
         | 0 | 1 -> Deployment.Full
         | 2 -> Deployment.Simplex
         | _ -> Deployment.Off))

let sample_pairs rng n k =
  Array.init k (fun _ ->
      let dst = Rng.int rng n in
      let attacker = (dst + 1 + Rng.int rng (n - 1)) mod n in
      { M.attacker; dst })

(* One step's delta against the current graph: flip the class of a few
   seeded edges (customer-provider <-> peer), plus one remove/re-add
   pair across consecutive steps so every [Delta.op] constructor is
   exercised.  Flips of either direction are legal deltas; the replay
   identity does not assume an acyclic hierarchy. *)
let flip_of = function
  | G.Customer_provider (c, p) -> G.Peer_peer (min c p, max c p)
  | G.Peer_peer (a, b) -> G.Customer_provider (a, b)

let step_delta rng g ~removed =
  let edges = Array.of_list (G.edges g) in
  let ops = ref [] in
  let used = Hashtbl.create 8 in
  let ends = function
    | G.Customer_provider (c, p) -> (min c p, max c p)
    | G.Peer_peer (a, b) -> (a, b)
  in
  let claim e =
    let k = ends e in
    if Hashtbl.mem used k then false
    else begin
      Hashtbl.replace used k ();
      true
    end
  in
  let flips = min 3 (Array.length edges) in
  for _ = 1 to flips do
    let e = edges.(Rng.int rng (Array.length edges)) in
    if claim e then ops := G.Delta.Flip (flip_of e) :: !ops
  done;
  (match !removed with
  | Some e when claim e ->
      ops := G.Delta.Add e :: !ops;
      removed := None
  | _ ->
      let e = edges.(Rng.int rng (Array.length edges)) in
      if claim e then begin
        ops := G.Delta.Remove e :: !ops;
        removed := Some e
      end);
  Array.of_list (List.rev !ops)

let delta_pass ~seed ~pairs ~steps g policies =
  let n = G.n g in
  let items = ref 0 in
  let diags = ref [] in
  if n >= 8 && pairs > 0 then begin
    let rng = Rng.create seed in
    let ps = sample_pairs rng n pairs in
    let dep = dep_mixed n in
    List.iter
      (fun policy ->
        let rng = Rng.create (seed + 7) in
        let rp = M.Replay.create g policy dep ps in
        ignore (M.Replay.eval rp);
        let removed = ref None in
        for step = 1 to steps do
          let delta = step_delta rng (M.Replay.graph rp) ~removed in
          ignore (M.Replay.step rp delta);
          let g' = M.Replay.graph rp in
          let vals = M.Replay.values rp in
          let ws = Routing.Batch.Workspace.local () in
          Array.iteri
            (fun i p ->
              incr items;
              let want = M.pair_bounds ~ws g' policy dep p in
              let got = vals.(i) in
              if
                not
                  (bits_equal want.M.lb got.M.lb
                  && bits_equal want.M.ub got.M.ub)
              then
                diags :=
                  !diags
                  @ [
                      D.error ~rule:"topo/delta-divergence"
                        ~subjects:[ p.M.attacker; p.M.dst ]
                        (Printf.sprintf
                           "policy %s, delta step %d: replay bounds [%.17g, \
                            %.17g] differ from scratch [%.17g, %.17g] for \
                            pair (m=%d, d=%d)"
                           (Routing.Policy.name policy)
                           step got.M.lb got.M.ub want.M.lb want.M.ub
                           p.M.attacker p.M.dst);
                    ])
            ps
        done)
      policies
  end;
  (!items, !diags)

(* ---- Patched CSR vs rebuilt CSR ---------------------------------- *)

(* The delta chain of [delta_pass]'s replays (same seed), stepped with
   [Delta.apply]; each stepped graph is compared with the graph
   [of_edges] builds from its edges. *)
let csr_pass ~seed ~steps g =
  let items = ref 0 in
  let diags = ref [] in
  if G.num_customer_provider_edges g + G.num_peer_edges g > 0 then begin
    let rng = Rng.create (seed + 7) in
    let removed = ref None in
    let cur = ref g in
    for step = 1 to steps do
      let delta = step_delta rng !cur ~removed in
      let g' = G.Delta.apply !cur delta in
      incr items;
      if not (graphs_identical g' (G.of_edges ~n:(G.n g') (G.edges g'))) then
        diags :=
          !diags
          @ [
              D.error ~rule:"topo/csr-mismatch"
                ~subjects:(Array.to_list (G.Delta.endpoints delta))
                (Printf.sprintf
                   "delta step %d: the CSR Delta.apply patched differs from \
                    the one of_edges builds from the same edges"
                   step);
            ];
      cur := g'
    done
  end;
  (!items, !diags)

let analyze ?(steps = 4) ~seed ~pairs g policies =
  let citems, cdiags = csr_pass ~seed ~steps g in
  let sitems, sdiags = snapshot_pass g in
  let ditems, ddiags = delta_pass ~seed ~pairs ~steps g policies in
  (citems + sitems + ditems, cdiags @ sdiags @ ddiags)
