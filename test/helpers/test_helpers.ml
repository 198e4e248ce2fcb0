(* Shared helpers for the alcotest/qcheck suites. *)

module G = Core.Graph

(* Tiny edge-list DSL: [c2p a b] makes [a] a customer of [b]. *)
let c2p a b = G.Customer_provider (a, b)
let p2p a b = G.Peer_peer (a, b)
let graph n edges = G.of_edges ~n edges

(* A fair coin: the low bit of the next raw draw. *)
let coin rng = Int64.logand (Core.Rng.bits64 rng) 1L = 1L

(* Random annotated AS graph: node 0 is the top of the hierarchy; every
   other node takes at least one provider with a smaller id, so the graph
   is connected and the hierarchy acyclic by construction.  Random peer
   edges are sprinkled on top.  The size is uniform in [min_n .. max_n].

   [cycle] (default [false]) first plants a customer-provider cycle on
   the three largest ids, [n-3 -> n-2 -> n-1 -> n-3] (each a customer of
   the next), so the hierarchy is cyclic; the regular provider draws
   then skip those three pairs. *)
let random_graph ?(min_n = 3) ?(cycle = false) rng ~max_n =
  let n = min_n + Core.Rng.int rng (max_n - min_n + 1) in
  let edges = ref [] in
  let seen = Hashtbl.create 16 in
  let key a b = if a < b then (a, b) else (b, a) in
  let try_add e a b =
    if a <> b && not (Hashtbl.mem seen (key a b)) then begin
      Hashtbl.replace seen (key a b) ();
      edges := e :: !edges
    end
  in
  if cycle && n >= 3 then begin
    let a = n - 3 and b = n - 2 and c = n - 1 in
    try_add (c2p a b) a b;
    try_add (c2p b c) b c;
    try_add (c2p c a) c a
  end;
  for v = 1 to n - 1 do
    let n_prov = 1 + Core.Rng.int rng 2 in
    for _ = 1 to n_prov do
      let p = Core.Rng.int rng v in
      try_add (c2p v p) v p
    done
  done;
  let n_peer = Core.Rng.int rng (2 * n) in
  for _ = 1 to n_peer do
    let a = Core.Rng.int rng n and b = Core.Rng.int rng n in
    try_add (p2p a b) a b
  done;
  graph n !edges

(* Random valid topology delta against [g]: flip the class of up to
   three distinct edges, remove one, and add one brand-new pair (when a
   non-adjacent pair turns up quickly).  Distinct pairs throughout, as
   [Graph.Delta] requires. *)
let random_delta rng g =
  let n = G.n g in
  let edge_pair = function
    | G.Customer_provider (a, b) | G.Peer_peer (a, b) ->
        if a < b then (a, b) else (b, a)
  in
  let edges = Array.of_list (G.edges g) in
  let used = Hashtbl.create 8 in
  let claim e =
    let p = edge_pair e in
    if Hashtbl.mem used p then false
    else begin
      Hashtbl.replace used p ();
      true
    end
  in
  let ops = ref [] in
  let flip = function
    | G.Customer_provider (a, b) -> G.Peer_peer (min a b, max a b)
    | G.Peer_peer (a, b) -> G.Customer_provider (a, b)
  in
  for _ = 1 to 1 + Core.Rng.int rng 3 do
    if Array.length edges > 0 then begin
      let e = edges.(Core.Rng.int rng (Array.length edges)) in
      if claim e then ops := G.Delta.Flip (flip e) :: !ops
    end
  done;
  if Array.length edges > 0 then begin
    let e = edges.(Core.Rng.int rng (Array.length edges)) in
    if claim e then ops := G.Delta.Remove e :: !ops
  end;
  (let tries = ref 10 in
   let found = ref false in
   while (not !found) && !tries > 0 do
     decr tries;
     let a = Core.Rng.int rng n and b = Core.Rng.int rng n in
     if a <> b && G.relationship g a b = None then
       if claim (p2p (min a b) (max a b)) then begin
         ops := G.Delta.Add (p2p (min a b) (max a b)) :: !ops;
         found := true
       end
   done);
  Array.of_list (List.rev !ops)

(* Random deployment over the same graph. *)
let random_deployment rng n =
  let modes =
    Array.init n (fun _ ->
        match Core.Rng.int rng 4 with
        | 0 | 1 -> Core.Deployment.Off
        | 2 -> Core.Deployment.Simplex
        | _ -> Core.Deployment.Full)
  in
  Core.Deployment.of_modes modes

let random_policy rng =
  let model =
    match Core.Rng.int rng 3 with
    | 0 -> Core.Policy.Security_first
    | 1 -> Core.Policy.Security_second
    | _ -> Core.Policy.Security_third
  in
  let lp =
    match Core.Rng.int rng 3 with
    | 0 -> Core.Policy.Standard
    | 1 -> Core.Policy.Lp_k (1 + Core.Rng.int rng 3)
    | _ -> Core.Policy.Lp_k (1 + Core.Rng.int rng 40)
  in
  Core.Policy.make ~lp model

(* Compare two outcomes field by field; returns a description of the first
   mismatch. *)
let outcome_mismatch a b =
  let n = Core.Outcome.n a in
  let describe v field va vb =
    Some (Printf.sprintf "AS %d: %s differs (%s vs %s)" v field va vb)
  in
  let rec go v =
    if v >= n then None
    else begin
      let ra = Core.Outcome.reached a v and rb = Core.Outcome.reached b v in
      if ra <> rb then
        describe v "reached" (string_of_bool ra) (string_of_bool rb)
      else if not ra then go (v + 1)
      else if Core.Outcome.length a v <> Core.Outcome.length b v then
        describe v "length"
          (string_of_int (Core.Outcome.length a v))
          (string_of_int (Core.Outcome.length b v))
      else if Core.Outcome.secure a v <> Core.Outcome.secure b v then
        describe v "secure"
          (string_of_bool (Core.Outcome.secure a v))
          (string_of_bool (Core.Outcome.secure b v))
      else if Core.Outcome.to_d a v <> Core.Outcome.to_d b v then
        describe v "to_d"
          (string_of_bool (Core.Outcome.to_d a v))
          (string_of_bool (Core.Outcome.to_d b v))
      else if Core.Outcome.to_m a v <> Core.Outcome.to_m b v then
        describe v "to_m"
          (string_of_bool (Core.Outcome.to_m a v))
          (string_of_bool (Core.Outcome.to_m b v))
      else if
        v <> Core.Outcome.dst a
        && Core.Outcome.attacker a <> Some v
        && Core.Outcome.route_class a v <> Core.Outcome.route_class b v
      then
        describe v "class"
          (Core.Policy.class_name (Core.Outcome.route_class a v))
          (Core.Policy.class_name (Core.Outcome.route_class b v))
      else go (v + 1)
    end
  in
  go 0

(* One pair's happy-source bounds from the {!Core.Reference} kernel: an
   oracle for [Metric.pair_bounds] and the batched metric that shares no
   code with the production kernel.  Sources are every AS but the
   destination and the attacker. *)
let reference_bounds g policy dep { Core.Metric.attacker; dst } =
  let out =
    Core.Reference.compute g policy dep ~dst ~attacker:(Some attacker)
  in
  let lb = ref 0 and ub = ref 0 in
  for v = 0 to G.n g - 1 do
    if v <> dst && v <> attacker then begin
      if Core.Outcome.happy_lb out v then incr lb;
      if Core.Outcome.happy_ub out v then incr ub
    end
  done;
  let sources = G.n g - 2 in
  {
    Core.Metric.lb = Core.Stats.fraction !lb sources;
    ub = Core.Stats.fraction !ub sources;
  }

(* qcheck boilerplate: seed-driven properties. *)
let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

let qtest name ?(count = 200) prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count seed_arb prop)

let check_none what = function
  | None -> true
  | Some msg ->
      Printf.eprintf "%s: %s\n%!" what msg;
      false
