module G = Topology.Graph
module Tiers = Topology.Tiers
module D = Diagnostic

(* Cap per-rule subject lists so a badly broken input stays readable. *)
let max_subjects = 8

let cap vs = if List.length vs <= max_subjects then vs else List.filteri (fun i _ -> i < max_subjects) vs

(* ------------------------------------------------------------------ *)
(* Raw edge lists                                                      *)
(* ------------------------------------------------------------------ *)

type rel = C2p_low_high | C2p_high_low | Peers

let edges ~n edge_list =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let seen : (int * int, rel) Hashtbl.t = Hashtbl.create 64 in
  let endpoints = function
    | G.Customer_provider (c, p) -> (c, p)
    | G.Peer_peer (a, b) -> (a, b)
  in
  let rel_of a b = function
    | G.Peer_peer _ -> Peers
    | G.Customer_provider (c, _) ->
        if a < b then if c = a then C2p_low_high else C2p_high_low
        else if c = b then C2p_low_high
        else C2p_high_low
  in
  List.iter
    (fun e ->
      let a, b = endpoints e in
      if a < 0 || a >= n || b < 0 || b >= n then
        emit
          (D.error ~rule:"topo/out-of-range"
             ~subjects:(List.filter (fun v -> v < 0 || v >= n) [ a; b ])
             (Printf.sprintf "edge (%d, %d) outside [0, %d)" a b n))
      else if a = b then
        emit
          (D.error ~rule:"topo/self-loop" ~subjects:[ a ]
             (Printf.sprintf "self loop at AS %d" a))
      else begin
        let key = if a < b then (a, b) else (b, a) in
        let rel = rel_of (fst key) (snd key) e in
        match Hashtbl.find_opt seen key with
        | None -> Hashtbl.add seen key rel
        | Some prev when prev = rel ->
            emit
              (D.error ~rule:"topo/duplicate-edge"
                 ~subjects:[ fst key; snd key ]
                 (Printf.sprintf "edge (%d, %d) listed twice" (fst key)
                    (snd key)))
        | Some _ ->
            emit
              (D.error ~rule:"topo/relationship-conflict"
                 ~subjects:[ fst key; snd key ]
                 (Printf.sprintf
                    "pair (%d, %d) appears with two different relationships"
                    (fst key) (snd key)))
      end)
    edge_list;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Built graphs                                                        *)
(* ------------------------------------------------------------------ *)

let contains arr x = Array.exists (fun y -> y = x) arr

let table_diags g =
  let n = G.n g in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let self_loops = ref [] and dups = ref [] and unsorted = ref [] in
  let asym = ref [] and conflicts = ref [] in
  let scan v name table =
    let a = table v in
    let len = Array.length a in
    for i = 0 to len - 1 do
      if a.(i) = v then self_loops := (v, name) :: !self_loops;
      if i > 0 then begin
        if a.(i) = a.(i - 1) then dups := (v, name) :: !dups
        else if a.(i) < a.(i - 1) then unsorted := (v, name) :: !unsorted
      end
    done
  in
  for v = 0 to n - 1 do
    scan v "customers" (G.customers g);
    scan v "providers" (G.providers g);
    scan v "peers" (G.peers g);
    (* Symmetry: u in customers(v) <-> v in providers(u); peers mirror. *)
    Array.iter
      (fun u ->
        if u >= 0 && u < n && u <> v && not (contains (G.providers g u) v)
        then asym := (v, u, "customer") :: !asym)
      (G.customers g v);
    Array.iter
      (fun u ->
        if u >= 0 && u < n && u <> v && not (contains (G.customers g u) v)
        then asym := (v, u, "provider") :: !asym)
      (G.providers g v);
    Array.iter
      (fun u ->
        if u >= 0 && u < n && u <> v && not (contains (G.peers g u) v) then
          asym := (v, u, "peer") :: !asym)
      (G.peers g v);
    (* One pair, one relationship. *)
    Array.iter
      (fun u ->
        if contains (G.peers g v) u then conflicts := (v, u) :: !conflicts)
      (G.customers g v);
    Array.iter
      (fun u ->
        if contains (G.peers g v) u || contains (G.customers g v) u then
          conflicts := (v, u) :: !conflicts)
      (G.providers g v)
  done;
  let cmp_vn (v1, n1) (v2, n2) =
    match Int.compare v1 v2 with 0 -> String.compare n1 n2 | c -> c
  in
  let cmp_vuk (v1, u1, k1) (v2, u2, k2) =
    match Int.compare v1 v2 with
    | 0 -> (
        match Int.compare u1 u2 with 0 -> String.compare k1 k2 | c -> c)
    | c -> c
  in
  let cmp_vu (v1, u1) (v2, u2) =
    match Int.compare v1 v2 with 0 -> Int.compare u1 u2 | c -> c
  in
  List.iter
    (fun (v, name) ->
      emit
        (D.error ~rule:"topo/self-loop" ~subjects:[ v ]
           (Printf.sprintf "%s table of AS %d contains itself" name v)))
    (List.sort_uniq cmp_vn !self_loops);
  List.iter
    (fun (v, name) ->
      emit
        (D.error ~rule:"topo/duplicate-edge" ~subjects:[ v ]
           (Printf.sprintf "%s table of AS %d has a duplicate entry" name v)))
    (List.sort_uniq cmp_vn !dups);
  List.iter
    (fun (v, name) ->
      emit
        (D.warning ~rule:"topo/unsorted" ~subjects:[ v ]
           (Printf.sprintf "%s table of AS %d is not sorted ascending" name v)))
    (List.sort_uniq cmp_vn !unsorted);
  List.iter
    (fun (v, u, kind) ->
      emit
        (D.error ~rule:"topo/asymmetric" ~subjects:[ v; u ]
           (Printf.sprintf
              "AS %d lists AS %d as %s but the reverse table disagrees" v u
              kind)))
    (List.sort_uniq cmp_vuk !asym);
  List.iter
    (fun (v, u) ->
      emit
        (D.error ~rule:"topo/relationship-conflict" ~subjects:[ v; u ]
           (Printf.sprintf "pair (%d, %d) carries two relationships" v u)))
    (List.sort_uniq cmp_vu !conflicts);
  (* Cached counts. *)
  let c2p = ref 0 and p2p = ref 0 in
  for v = 0 to n - 1 do
    c2p := !c2p + Array.length (G.customers g v);
    p2p := !p2p + Array.length (G.peers g v)
  done;
  if G.num_customer_provider_edges g <> !c2p then
    emit
      (D.error ~rule:"topo/counts"
         (Printf.sprintf
            "cached customer-provider edge count %d, adjacency says %d"
            (G.num_customer_provider_edges g)
            !c2p));
  if G.num_peer_edges g * 2 <> !p2p then
    emit
      (D.error ~rule:"topo/counts"
         (Printf.sprintf "cached peer edge count %d, adjacency says %d"
            (G.num_peer_edges g) (!p2p / 2)));
  List.rev !diags

(* ASes that Kahn's algorithm never retires sit on (or above) a
   customer-to-provider cycle. *)
let cycle_diags g =
  match G.hierarchy g with
  | Ok _ -> []
  | Error cycle ->
      [
        D.error ~rule:"topo/cp-cycle"
          ~subjects:(cap (Array.to_list cycle))
          (Printf.sprintf
             "customer-to-provider hierarchy has a cycle involving %d ASes"
             (Array.length cycle));
      ]

let tier_diags g tiers =
  let n = G.n g in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let bad rule v msg = emit (D.error ~rule ~subjects:[ v ] msg) in
  for v = 0 to n - 1 do
    let cust = G.customer_degree g v in
    let peer = G.peer_degree g v in
    let prov = Array.length (G.providers g v) in
    match Tiers.tier_of tiers v with
    | Tiers.T1 ->
        if prov > 0 then
          bad "topo/tier" v
            (Printf.sprintf "Tier 1 AS %d has %d providers" v prov)
    | Tiers.T2 | Tiers.T3 ->
        if prov = 0 then
          bad "topo/tier" v
            (Printf.sprintf "Tier 2/3 AS %d has no providers" v)
    | Tiers.Small_cp ->
        if peer = 0 then
          bad "topo/tier" v
            (Printf.sprintf "small content provider %d has no peers" v)
    | Tiers.Stub ->
        if cust > 0 then
          bad "topo/tier" v
            (Printf.sprintf "stub AS %d has %d customers" v cust)
        else if peer > 0 then
          bad "topo/tier" v
            (Printf.sprintf "stub AS %d has %d peers (should be STUB-X)" v
               peer)
    | Tiers.Stub_x ->
        if cust > 0 then
          bad "topo/tier" v
            (Printf.sprintf "stub-x AS %d has %d customers" v cust)
        else if peer = 0 then
          bad "topo/tier" v
            (Printf.sprintf "stub-x AS %d has no peers (should be STUB)" v)
    | Tiers.Smdg ->
        if cust = 0 then
          bad "topo/tier" v
            (Printf.sprintf "SMDG AS %d has no customers (is a stub)" v)
    | Tiers.Cp -> ()
  done;
  (* Membership tables must partition [0, n) consistently with tier_of. *)
  let covered = Array.make n 0 in
  List.iter
    (fun tier ->
      Array.iter
        (fun v ->
          if v >= 0 && v < n then begin
            covered.(v) <- covered.(v) + 1;
            if Tiers.tier_of tiers v <> tier then
              bad "topo/tier" v
                (Printf.sprintf
                   "AS %d is in the %s member table but classified %s" v
                   (Tiers.tier_name tier)
                   (Tiers.tier_name (Tiers.tier_of tiers v)))
          end
          else bad "topo/tier" v "tier member table entry out of range")
        (Tiers.members tiers tier))
    Tiers.all_tiers;
  for v = 0 to n - 1 do
    if covered.(v) <> 1 then
      bad "topo/tier" v
        (Printf.sprintf "AS %d appears in %d tier member tables" v covered.(v))
  done;
  List.rev !diags

let graph ?tiers g =
  let structural = table_diags g @ cycle_diags g in
  let conn =
    if G.connected g then []
    else
      [
        D.warning ~rule:"topo/disconnected"
          "underlying undirected graph is disconnected";
      ]
  in
  let tier = match tiers with None -> [] | Some t -> tier_diags g t in
  structural @ conn @ tier

(* ------------------------------------------------------------------ *)
(* IXP augmentation                                                    *)
(* ------------------------------------------------------------------ *)

type pair_rel = R_c2p of int (* the customer *) | R_p2p

let edge_table g =
  let tbl = Hashtbl.create (G.num_customer_provider_edges g + G.num_peer_edges g) in
  List.iter
    (fun e ->
      match e with
      | G.Customer_provider (c, p) ->
          let key = if c < p then (c, p) else (p, c) in
          Hashtbl.replace tbl key (R_c2p c)
      | G.Peer_peer (a, b) ->
          let key = if a < b then (a, b) else (b, a) in
          Hashtbl.replace tbl key R_p2p)
    (G.edges g);
  tbl

let ixp ~base ~augmented =
  if G.n base <> G.n augmented then
    [
      D.error ~rule:"topo/ixp"
        (Printf.sprintf "augmentation changed the AS count (%d -> %d)"
           (G.n base) (G.n augmented));
    ]
  else begin
    let before = edge_table base and after = edge_table augmented in
    let diags = ref [] in
    let emit d = diags := d :: !diags in
    Hashtbl.iter
      (fun (a, b) rel ->
        match Hashtbl.find_opt after (a, b) with
        | Some rel' when rel = rel' -> ()
        | Some _ ->
            emit
              (D.error ~rule:"topo/ixp" ~subjects:[ a; b ]
                 (Printf.sprintf
                    "augmentation changed the relationship of pair (%d, %d)"
                    a b))
        | None ->
            emit
              (D.error ~rule:"topo/ixp" ~subjects:[ a; b ]
                 (Printf.sprintf "augmentation dropped edge (%d, %d)" a b)))
      before;
    Hashtbl.iter
      (fun (a, b) rel ->
        if not (Hashtbl.mem before (a, b)) then
          match rel with
          | R_p2p -> ()
          | R_c2p _ ->
              emit
                (D.error ~rule:"topo/ixp" ~subjects:[ a; b ]
                   (Printf.sprintf
                      "augmentation added non-peer edge (%d, %d)" a b)))
      after;
    List.rev !diags
  end
