(* Topology: graph construction, tiers, serialization, IXP augmentation. *)

open Core
open Test_helpers

let test_graph_basics () =
  let g = graph 4 [ c2p 1 0; c2p 2 0; p2p 1 2; c2p 3 1 ] in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check (array int)) "customers of 0" [| 1; 2 |] (Graph.customers g 0);
  Alcotest.(check (array int)) "providers of 3" [| 1 |] (Graph.providers g 3);
  Alcotest.(check (array int)) "peers of 1" [| 2 |] (Graph.peers g 1);
  Alcotest.(check int) "c2p edges" 3 (Graph.num_customer_provider_edges g);
  Alcotest.(check int) "p2p edges" 1 (Graph.num_peer_edges g);
  Alcotest.(check int) "degree of 1" 3 (Graph.degree g 1);
  Alcotest.(check bool) "3 is a stub" true (Graph.is_stub g 3);
  Alcotest.(check bool) "0 is not a stub" false (Graph.is_stub g 0);
  Alcotest.(check bool) "acyclic" true (Graph.acyclic_hierarchy g);
  Alcotest.(check bool) "connected" true (Graph.connected g)

let test_graph_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self loop")
    (fun () -> ignore (graph 2 [ c2p 1 1 ]))

let test_graph_rejects_conflict () =
  Alcotest.check_raises "conflict"
    (Invalid_argument
       "Graph.of_edges: conflicting relationships for pair (0, 1)") (fun () ->
      ignore (graph 2 [ c2p 0 1; p2p 0 1 ]))

let test_graph_dedups () =
  let g = graph 2 [ c2p 0 1; c2p 0 1 ] in
  Alcotest.(check int) "single edge" 1 (Graph.num_customer_provider_edges g)

let test_graph_out_of_range () =
  Alcotest.check_raises "range" (Invalid_argument "Graph.of_edges: AS 5 out of range")
    (fun () -> ignore (graph 2 [ c2p 0 5 ]))

let test_cycle_detection () =
  let g = graph 3 [ c2p 0 1; c2p 1 2; c2p 2 0 ] in
  Alcotest.(check bool) "cyclic hierarchy" false (Graph.acyclic_hierarchy g)

let test_disconnected () =
  let g = graph 4 [ c2p 0 1; c2p 2 3 ] in
  Alcotest.(check bool) "disconnected" false (Graph.connected g)

let test_edges_roundtrip =
  qtest "of_edges/edges round trip" ~count:200 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let g2 = Graph.of_edges ~n:(Graph.n g) (Graph.edges g) in
      List.sort compare (Graph.edges g) = List.sort compare (Graph.edges g2))

let test_serial_roundtrip =
  qtest "serialization round trip" ~count:200 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let g2 = Serial.of_string (Serial.to_string g) in
      Graph.n g = Graph.n g2
      && List.sort compare (Graph.edges g) = List.sort compare (Graph.edges g2))

let test_serial_format () =
  let g = graph 3 [ c2p 1 0; p2p 1 2 ] in
  let s = Serial.to_string g in
  Alcotest.(check string) "format" "# n=3\n0|1|-1\n1|2|0\n" s

let test_serial_errors () =
  Alcotest.check_raises "bad relationship"
    (Failure "Serial: line 1: unknown relationship \"7\"") (fun () ->
      ignore (Serial.of_string "1|2|7"));
  Alcotest.check_raises "bad id" (Failure "Serial: line 1: non-integer AS id")
    (fun () -> ignore (Serial.of_string "a|2|0"));
  (* Defects Graph.of_edges would reject must fail on their own line,
     through both parsers. *)
  let fails what text msg =
    Alcotest.check_raises what (Failure msg) (fun () ->
        ignore (Serial.of_string text));
    Alcotest.check_raises (what ^ " (remapped)") (Failure msg) (fun () ->
        ignore (Serial.of_string_remapped text))
  in
  fails "self loop" "0|2|-1\n1|1|0" "Serial: line 2: self loop at AS 1";
  fails "conflicting relationships" "0|1|-1\n# c\n1|0|0"
    "Serial: line 3: conflicting relationships for pair (1, 0) (first \
     given on line 1)";
  fails "both directions of one customer edge" "0|1|-1\n1|0|-1"
    "Serial: line 2: conflicting relationships for pair (1, 0) (first \
     given on line 1)";
  fails "negative id" "0|1|0\n-1|2|0" "Serial: line 2: negative AS id";
  fails "id at the header's n" "# n=2\n0|1|0\n0|2|-1"
    "Serial: line 3: AS 2 out of range for the header's n=2";
  fails "header without a count" "# n=x\n0|1|0"
    "Serial: line 1: expected a non-negative AS count after \"# n=\"";
  fails "negative header" "# n=-1"
    "Serial: line 1: expected a non-negative AS count after \"# n=\"";
  (* A restated edge is not a conflict, and other comments stay comments. *)
  let g = Serial.of_string "# n=3\n# name=x\n0|1|-1\n0|1|-1\n" in
  Alcotest.(check int) "duplicate edge kept once" 1
    (Graph.num_customer_provider_edges g)

(* Random text over the alphabet 0-9 | - # n = a, space and newline,
   built from edge, header and comment lines (so some inputs parse and
   many hit a specific defect) and then overwritten at a few random
   bytes.  The overwrites draw no digit, so every number stays one digit
   long and no input names more than ten ASes. *)
let fuzz_text rng =
  let noise = "|-#n=a \n" in
  let id () =
    if Rng.int rng 8 = 0 then "-" ^ string_of_int (1 + Rng.int rng 3)
    else string_of_int (Rng.int rng 6)
  in
  let line () =
    match Rng.int rng 6 with
    | 0 -> "# n=" ^ [| ""; "a"; "-1"; string_of_int (Rng.int rng 8) |].(Rng.int rng 4)
    | 1 -> "# a"
    | 2 -> ""
    | _ ->
        String.concat "|"
          [ id (); id (); [| "-1"; "0"; "-1"; "0"; "1"; "a" |].(Rng.int rng 6) ]
  in
  let b =
    Bytes.of_string
      (String.concat "\n" (List.init (1 + Rng.int rng 6) (fun _ -> line ())))
  in
  for _ = 1 to if Bytes.length b = 0 then 0 else Rng.int rng 3 do
    Bytes.set b
      (Rng.int rng (Bytes.length b))
      noise.[Rng.int rng (String.length noise)]
  done;
  Bytes.to_string b

let test_serial_fuzz =
  qtest "parsers fail only with a line-numbered Failure" ~count:2000
    (fun seed ->
      let text = fuzz_text (Rng.create seed) in
      let loud name parse =
        match parse text with
        | _ -> true
        | exception Failure msg when String.starts_with ~prefix:"Serial: line " msg ->
            true
        | exception e ->
            Printf.eprintf "%s %S: %s\n%!" name text (Printexc.to_string e);
            false
      in
      loud "of_string" Serial.of_string
      && loud "of_string_remapped" Serial.of_string_remapped)

let test_serial_remapped () =
  (* Real-world style: sparse ASNs and a trailing source column. *)
  let text = "# comment\n3356|21740|-1|bgp\n174|3356|0|mlp\n3356|1299|-1\n" in
  let g, asns = Serial.of_string_remapped text in
  Alcotest.(check int) "four ASes" 4 (Graph.n g);
  Alcotest.(check (array int)) "asn order" [| 3356; 21740; 174; 1299 |] asns;
  let id asn =
    let found = ref (-1) in
    Array.iteri (fun i a -> if a = asn then found := i) asns;
    !found
  in
  Alcotest.(check bool) "21740 customer of 3356" true
    (Array.exists (( = ) (id 3356)) (Graph.providers g (id 21740)));
  Alcotest.(check bool) "174 peers 3356" true
    (Array.exists (( = ) (id 174)) (Graph.peers g (id 3356)))

let test_serial_extra_fields () =
  let g = Serial.of_string "0|1|-1|extra|fields\n" in
  Alcotest.(check int) "edge parsed" 1 (Graph.num_customer_provider_edges g)

let test_serial_file_roundtrip () =
  let g = graph 3 [ c2p 1 0; c2p 2 0 ] in
  let path = Filename.temp_file "sbgp_test" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serial.save path g;
      (* The CLI's loader: a file [save] wrote already has dense ids in
         reading order, so remapping is the identity. *)
      let g2, asns = Serial.load_remapped path in
      Alcotest.(check (array int)) "identity remap" [| 0; 1; 2 |] asns;
      Alcotest.(check int) "n" 3 (Graph.n g2);
      Alcotest.(check bool) "edges equal" true
        (List.sort compare (Graph.edges g) = List.sort compare (Graph.edges g2)))

(* ---- Binary snapshots --------------------------------------------- *)

let ints_equal (x : Graph.ints) (y : Graph.ints) =
  Bigarray.Array1.dim x = Bigarray.Array1.dim y
  &&
  let ok = ref true in
  for i = 0 to Bigarray.Array1.dim x - 1 do
    if x.{i} <> y.{i} then ok := false
  done;
  !ok

let csr_identical a b =
  let ca = Graph.csr a and cb = Graph.csr b in
  Graph.n a = Graph.n b
  && ints_equal ca.Graph.Csr.xs cb.Graph.Csr.xs
  && ints_equal ca.Graph.Csr.adj cb.Graph.Csr.adj

let with_snapshot_file f =
  let path = Filename.temp_file "sbgp_test" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_snapshot_roundtrip =
  qtest "snapshot round trip is bit-identical" ~count:100 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:40 in
      with_snapshot_file (fun path ->
          Serial.save_snapshot path g;
          let g2 = Serial.load_snapshot path in
          csr_identical g g2
          && Graph.num_customer_provider_edges g
             = Graph.num_customer_provider_edges g2
          && Graph.num_peer_edges g = Graph.num_peer_edges g2
          && Graph.version g <> Graph.version g2
          && List.sort compare (Graph.edges g)
             = List.sort compare (Graph.edges g2)))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

(* [mutate] maps the on-disk bytes to a corrupted variant; the load must
   then fail with a message containing [expect]. *)
let expect_load_failure what g ~mutate ~expect =
  with_snapshot_file (fun path ->
      Serial.save_snapshot path g;
      write_file path (mutate (read_file path));
      match Serial.load_snapshot path with
      | _ -> Alcotest.failf "%s: corrupted snapshot loaded" what
      | exception Failure msg ->
          let contains s sub =
            let n = String.length s and m = String.length sub in
            let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
            m = 0 || go 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S mentions %S" what msg expect)
            true (contains msg expect))

let set_byte s pos c =
  let b = Bytes.of_string s in
  Bytes.set b pos c;
  Bytes.to_string b

let test_snapshot_errors () =
  let g = graph 3 [ c2p 1 0; p2p 1 2 ] in
  expect_load_failure "magic" g
    ~mutate:(fun s -> set_byte s 0 'X')
    ~expect:"bad magic";
  expect_load_failure "version" g
    ~mutate:(fun s -> set_byte s 8 '\x63')
    ~expect:"format version 99";
  expect_load_failure "word size" g
    ~mutate:(fun s -> set_byte s 16 '\x04')
    ~expect:"payload word size";
  expect_load_failure "truncated header" g
    ~mutate:(fun s -> String.sub s 0 17)
    ~expect:"truncated header";
  expect_load_failure "truncated payload" g
    ~mutate:(fun s -> String.sub s 0 (String.length s - 8))
    ~expect:"truncated payload";
  expect_load_failure "trailing bytes" g
    ~mutate:(fun s -> s ^ "junk8bytes")
    ~expect:"trailing bytes";
  expect_load_failure "digest" g
    ~mutate:(fun s ->
      let pos = Serial.snapshot_payload_offset + 3 in
      set_byte s pos (Char.chr (Char.code s.[pos] lxor 0x20)))
    ~expect:"digest mismatch";
  (* Payload corruption that keeps the digest out of the way: zero the
     stored digest AND break CSR monotonicity is hard to stage by hand,
     but a wrong header count with a matching digest must still be
     rejected by the CSR cross-checks — here the digest catches it
     first, which is fine; the qcheck round trip plus Check.Topo's
     corruption gate cover the rest. *)
  ()

let test_snapshot_empty_graph () =
  let g = Graph.of_edges ~n:1 [] in
  with_snapshot_file (fun path ->
      Serial.save_snapshot path g;
      let g2 = Serial.load_snapshot path in
      Alcotest.(check int) "n" 1 (Graph.n g2);
      Alcotest.(check int) "edges" 0 (Graph.num_peer_edges g2))

(* ---- Topology deltas ---------------------------------------------- *)

(* Reference semantics: apply the ops to the edge list and rebuild. *)
let edge_pair = function
  | Graph.Customer_provider (a, b) -> if a < b then (a, b) else (b, a)
  | Graph.Peer_peer (a, b) -> if a < b then (a, b) else (b, a)

let reference_apply g (delta : Graph.Delta.t) =
  let edges = ref (Graph.edges g) in
  Array.iter
    (fun op ->
      match op with
      | Graph.Delta.Add e -> edges := e :: !edges
      | Graph.Delta.Remove e | Graph.Delta.Flip e ->
          let p = edge_pair e in
          edges := List.filter (fun e' -> edge_pair e' <> p) !edges;
          (match op with
          | Graph.Delta.Flip e -> edges := e :: !edges
          | _ -> ()))
    delta;
  Graph.of_edges ~n:(Graph.n g) !edges

let test_delta_apply =
  qtest "Delta.apply matches the edge-list reference" ~count:300 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let delta = random_delta rng g in
      let got = Graph.Delta.apply g delta in
      let want = reference_apply g delta in
      csr_identical got want && Graph.version got <> Graph.version g)

let collect_view (vw : Graph.view) v =
  let seg iter =
    let acc = ref [] in
    iter (fun u -> acc := u :: !acc) v;
    List.sort compare !acc
  in
  ( seg vw.Graph.iter_customers,
    seg vw.Graph.iter_peers,
    seg vw.Graph.iter_providers )

let test_delta_overlay =
  qtest "overlay view equals the applied graph's view" ~count:300 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let delta = random_delta rng g in
      let ov = Graph.overlay g delta in
      let applied = Graph.view (Graph.Delta.apply g delta) in
      let ok = ref (ov.Graph.view_n = applied.Graph.view_n) in
      for v = 0 to Graph.n g - 1 do
        if collect_view ov v <> collect_view applied v then ok := false
      done;
      !ok)

let test_delta_endpoints () =
  let g = graph 4 [ c2p 1 0; c2p 2 0; c2p 3 1 ] in
  let delta =
    [| Graph.Delta.Flip (p2p 0 1); Graph.Delta.Remove (c2p 3 1) |]
  in
  Alcotest.(check (array int))
    "endpoints sorted uniq" [| 0; 1; 3 |]
    (Graph.Delta.endpoints delta);
  let g2 = Graph.Delta.apply g delta in
  Alcotest.(check bool)
    "flip applied" true
    (Graph.relationship g2 0 1 = Some (p2p 0 1));
  Alcotest.(check bool) "remove applied" true (Graph.relationship g2 3 1 = None)

let test_delta_invalid () =
  let g = graph 3 [ c2p 1 0; p2p 1 2 ] in
  let expect_invalid what delta =
    match Graph.Delta.apply g delta with
    | _ -> Alcotest.failf "%s: invalid delta applied" what
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "add adjacent" [| Graph.Delta.Add (p2p 0 1) |];
  expect_invalid "remove absent" [| Graph.Delta.Remove (c2p 2 0) |];
  expect_invalid "remove wrong class" [| Graph.Delta.Remove (p2p 0 1) |];
  expect_invalid "flip same class" [| Graph.Delta.Flip (c2p 1 0) |];
  expect_invalid "flip absent" [| Graph.Delta.Flip (p2p 0 2) |];
  expect_invalid "self loop" [| Graph.Delta.Add (p2p 1 1) |];
  expect_invalid "out of range" [| Graph.Delta.Add (p2p 1 7) |];
  expect_invalid "duplicate pair"
    [| Graph.Delta.Remove (c2p 1 0); Graph.Delta.Add (c2p 1 0) |]

(* Tiers per Table 1 on a small hand graph. *)
let test_tiers () =
  (* 0,1: provider-less with customers (T1); 2: transit with providers;
     3: stub with a peer (stub-x); 4: plain stub; 5: CP designate. *)
  let g =
    graph 6 [ c2p 2 0; c2p 2 1; p2p 0 1; c2p 3 2; p2p 3 5; c2p 4 2; c2p 5 2 ]
  in
  let tiers =
    Tiers.classify ~n_t1:2 ~n_t2:1 ~n_t3:0 ~n_small_cp:0 ~cps:[ 5 ] g
  in
  Alcotest.(check string) "0 is T1" "T1" (Tiers.tier_name (Tiers.tier_of tiers 0));
  Alcotest.(check string) "1 is T1" "T1" (Tiers.tier_name (Tiers.tier_of tiers 1));
  Alcotest.(check string) "2 is T2" "T2" (Tiers.tier_name (Tiers.tier_of tiers 2));
  Alcotest.(check string) "3 is stub-x" "STUB-X"
    (Tiers.tier_name (Tiers.tier_of tiers 3));
  Alcotest.(check string) "4 is stub" "STUB"
    (Tiers.tier_name (Tiers.tier_of tiers 4));
  Alcotest.(check string) "5 is CP" "CP" (Tiers.tier_name (Tiers.tier_of tiers 5));
  Alcotest.(check (array int)) "non-stubs" [| 0; 1; 2; 5 |] (Tiers.non_stubs tiers)

let test_tiers_partition =
  qtest "tiers partition all ASes" ~count:100 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:60 in
      let tiers = Tiers.classify ~n_t1:3 ~n_t2:5 ~n_t3:5 ~n_small_cp:5 g in
      let total =
        List.fold_left
          (fun acc t -> acc + Array.length (Tiers.members tiers t))
          0 Tiers.all_tiers
      in
      total = Graph.n g)

(* The list-sort classification [Tiers.classify] replaced, kept as its
   specification: the same precedence, with the candidate orders built
   by sorting boxed lists through a degree closure and providers read
   from the adjacency tables. *)
let classify_spec ~n_t1 ~n_t2 ~n_t3 ~n_small_cp ~cps g =
  let n = Graph.n g in
  let assigned = Array.make n None in
  let take tier candidates count =
    let taken = ref 0 in
    List.iter
      (fun v ->
        if !taken < count && assigned.(v) = None then begin
          assigned.(v) <- Some tier;
          incr taken
        end)
      candidates
  in
  let sorted_by degree =
    List.sort
      (fun a b ->
        match compare (degree b) (degree a) with 0 -> compare a b | c -> c)
      (List.init n Fun.id)
  in
  let by_customer_degree =
    sorted_by (fun v -> Array.length (Graph.customers g v))
  in
  let has_providers v = Array.length (Graph.providers g v) > 0 in
  take Tiers.T1
    (List.filter (fun v -> not (has_providers v)) by_customer_degree)
    n_t1;
  List.iter
    (fun v ->
      if v >= 0 && v < n && assigned.(v) = None then
        assigned.(v) <- Some Tiers.Cp)
    cps;
  let with_providers = List.filter has_providers by_customer_degree in
  take Tiers.T2 with_providers n_t2;
  take Tiers.T3 with_providers n_t3;
  let peer_degree v = Array.length (Graph.peers g v) in
  take Tiers.Small_cp
    (List.filter (fun v -> peer_degree v > 0) (sorted_by peer_degree))
    n_small_cp;
  Array.mapi
    (fun v -> function
      | Some t -> t
      | None ->
          if Array.length (Graph.customers g v) = 0 then
            if peer_degree v > 0 then Tiers.Stub_x else Tiers.Stub
          else Tiers.Smdg)
    assigned

(* Small tier quotas on small graphs keep every cutoff inside a run of
   tied degrees often; the CP list may repeat ids, name a T1 or fall
   out of range.  Classified once on the adjacency tables and once more
   after the CSR is built, since the degrees then come from the CSR. *)
let test_tiers_spec =
  qtest "classify = list-sort specification" ~count:200 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:50 in
      let n = Graph.n g in
      let n_t1 = Rng.int rng 4 and n_t2 = Rng.int rng 6 in
      let n_t3 = Rng.int rng 6 and n_small_cp = Rng.int rng 6 in
      let cps = List.init (Rng.int rng 5) (fun _ -> Rng.int rng (n + 2) - 1) in
      let spec = classify_spec ~n_t1 ~n_t2 ~n_t3 ~n_small_cp ~cps g in
      let agrees () =
        let tiers = Tiers.classify ~n_t1 ~n_t2 ~n_t3 ~n_small_cp ~cps g in
        Array.for_all Fun.id
          (Array.init n (fun v -> Tiers.tier_of tiers v = spec.(v)))
        && List.for_all
             (fun t ->
               Tiers.members tiers t
               = Array.of_list
                   (List.filter (fun v -> spec.(v) = t) (List.init n Fun.id)))
             Tiers.all_tiers
      in
      let on_tables = agrees () in
      ignore (Graph.csr g);
      on_tables && agrees ())

let test_stubs_of () =
  let g = graph 5 [ c2p 1 0; c2p 2 0; c2p 3 1; c2p 4 2; c2p 3 2 ] in
  (* stubs: 3 (providers 1,2), 4 (provider 2). *)
  Alcotest.(check (array int)) "stubs of [1]" [| 3 |] (Tiers.stubs_of g [| 1 |]);
  Alcotest.(check (array int)) "stubs of [2]" [| 3; 4 |] (Tiers.stubs_of g [| 2 |]);
  Alcotest.(check (array int)) "stubs of [0]" [||] (Tiers.stubs_of g [| 0 |])

let test_ixp_augment =
  qtest "IXP augmentation adds only new peer edges" ~count:50 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:40 in
      let g2, added = Ixp.augment rng g in
      Graph.n g2 = Graph.n g
      && Graph.num_customer_provider_edges g2
         = Graph.num_customer_provider_edges g
      && Graph.num_peer_edges g2 = Graph.num_peer_edges g + added
      && added >= 0)

let () =
  Alcotest.run "topology"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "self loop" `Quick test_graph_rejects_self_loop;
          Alcotest.test_case "conflict" `Quick test_graph_rejects_conflict;
          Alcotest.test_case "dedup" `Quick test_graph_dedups;
          Alcotest.test_case "out of range" `Quick test_graph_out_of_range;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          test_edges_roundtrip;
        ] );
      ( "serial",
        [
          test_serial_roundtrip;
          Alcotest.test_case "format" `Quick test_serial_format;
          Alcotest.test_case "errors" `Quick test_serial_errors;
          test_serial_fuzz;
          Alcotest.test_case "file round trip" `Quick test_serial_file_roundtrip;
          Alcotest.test_case "sparse ASN remapping" `Quick test_serial_remapped;
          Alcotest.test_case "extra fields tolerated" `Quick
            test_serial_extra_fields;
        ] );
      ( "snapshot",
        [
          test_snapshot_roundtrip;
          Alcotest.test_case "corruption rejected" `Quick test_snapshot_errors;
          Alcotest.test_case "empty graph" `Quick test_snapshot_empty_graph;
        ] );
      ( "delta",
        [
          test_delta_apply;
          test_delta_overlay;
          Alcotest.test_case "endpoints and apply" `Quick test_delta_endpoints;
          Alcotest.test_case "invalid deltas rejected" `Quick
            test_delta_invalid;
        ] );
      ( "tiers",
        [
          Alcotest.test_case "table 1 classification" `Quick test_tiers;
          test_tiers_partition;
          test_tiers_spec;
          Alcotest.test_case "stubs_of" `Quick test_stubs_of;
        ] );
      ("ixp", [ test_ixp_augment ]);
    ]
