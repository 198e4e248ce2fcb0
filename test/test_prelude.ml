(* Prelude data structures: bucket queue, bitset, stats, table. *)

open Core

let test_bucket_queue_order () =
  let q = Bucket_queue.create ~max_rank:100 in
  List.iter
    (fun (r, v) -> Bucket_queue.push q ~rank:r v)
    [ (5, 50); (1, 10); (7, 70); (1, 11); (3, 30) ];
  let popped = ref [] in
  let rec drain () =
    match Bucket_queue.pop q with
    | None -> ()
    | Some (r, v) ->
        popped := (r, v) :: !popped;
        drain ()
  in
  drain ();
  let ranks = List.rev_map fst !popped in
  Alcotest.(check (list int)) "ranks ascending" [ 1; 1; 3; 5; 7 ] ranks;
  Alcotest.(check bool) "empty after drain" true (Bucket_queue.is_empty q)

let test_bucket_queue_monotone () =
  let q = Bucket_queue.create ~max_rank:10 in
  Bucket_queue.push q ~rank:5 1;
  let (_ : (int * int) option) = Bucket_queue.pop q in
  Alcotest.check_raises "pushing below cursor"
    (Invalid_argument "Bucket_queue.push: rank 3 below cursor 5") (fun () ->
      Bucket_queue.push q ~rank:3 2)

let test_bucket_queue_bounds () =
  let q = Bucket_queue.create ~max_rank:4 in
  Alcotest.check_raises "rank too large"
    (Invalid_argument "Bucket_queue.push: rank 4 >= max_rank 4") (fun () ->
      Bucket_queue.push q ~rank:4 0)

let test_bucket_queue_clear () =
  let q = Bucket_queue.create ~max_rank:10 in
  Bucket_queue.push q ~rank:9 1;
  let (_ : (int * int) option) = Bucket_queue.pop q in
  Bucket_queue.clear q;
  (* After clear the cursor resets; low ranks are accepted again. *)
  Bucket_queue.push q ~rank:0 7;
  Alcotest.(check (option (pair int int))) "pops the new item" (Some (0, 7))
    (Bucket_queue.pop q)

let test_bucket_queue_vs_sort =
  Test_helpers.qtest "bucket queue pops in sorted order" ~count:200
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 100 in
      let items = Array.init n (fun i -> (Rng.int rng 50, i)) in
      let q = Bucket_queue.create ~max_rank:50 in
      Array.iter (fun (r, v) -> Bucket_queue.push q ~rank:r v) items;
      let out = ref [] in
      let rec drain () =
        match Bucket_queue.pop q with
        | None -> ()
        | Some rv ->
            out := rv :: !out;
            drain ()
      in
      drain ();
      let got = List.rev_map fst !out in
      let expected = Array.to_list (Array.map fst items) in
      got = List.sort compare expected)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "not mem 62" false (Bitset.mem s 62);
  Bitset.add s 63;
  Alcotest.(check int) "re-adding is a no-op" 4 (Bitset.cardinal s);
  Alcotest.(check (list int)) "fold in ascending order" [ 0; 63; 64; 99 ]
    (List.rev (Bitset.fold List.cons s []));
  Bitset.clear s;
  Alcotest.(check int) "cleared" 0 (Bitset.cardinal s)

let test_bitset_bounds () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Bitset: index out of bounds") (fun () -> Bitset.add s 8)

let test_bitset_vs_reference =
  Test_helpers.qtest "bitset agrees with list-set reference" ~count:200
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 200 in
      let s = Bitset.create n in
      let reference = Hashtbl.create 16 in
      for _ = 1 to 300 do
        let v = Rng.int rng n in
        if Rng.int rng 50 = 0 then begin
          Bitset.clear s;
          Hashtbl.reset reference
        end
        else begin
          Bitset.add s v;
          Hashtbl.replace reference v ()
        end
      done;
      let members = Bitset.fold List.cons s [] in
      Bitset.cardinal s = Hashtbl.length reference
      && List.length members = Hashtbl.length reference
      && List.for_all (fun v -> Hashtbl.mem reference v) members
      && List.for_all (fun v -> Bitset.mem s v = Hashtbl.mem reference v)
           (List.init n Fun.id))

(* Word-level operations against a naive bool-array model: random adds
   to two sets, then (maybe) the word-at-a-time [union_into], then
   [iter_set] checked for exact member order and [cardinal] for the
   popcount bookkeeping of the in-place union. *)
let test_bitset_words_vs_model =
  Test_helpers.qtest "bitset word API agrees with bool-array model" ~count:300
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 300 in
      let s = Bitset.create n and s2 = Bitset.create n in
      let m = Array.make n false and m2 = Array.make n false in
      for _ = 1 to 200 do
        let v = Rng.int rng n in
        if Rng.int rng 2 = 0 then begin
          Bitset.add s v;
          m.(v) <- true
        end
        else begin
          Bitset.add s2 v;
          m2.(v) <- true
        end
      done;
      if Rng.int rng 2 = 0 then begin
        Bitset.union_into ~into:s s2;
        Array.iteri (fun i b -> if b then m.(i) <- true) m2
      end;
      let model_card = Array.fold_left (fun a b -> if b then a + 1 else a) 0 m in
      let members = ref [] in
      Bitset.iter_set (fun i -> members := i :: !members) s;
      let model_members = ref [] in
      for i = n - 1 downto 0 do
        if m.(i) then model_members := i :: !model_members
      done;
      Bitset.cardinal s = model_card && List.rev !members = !model_members)

(* Raw-word helpers on adversarial patterns, the sign bit (index 62)
   included; iteration across the sign bit of a backing word. *)
let test_bitset_raw_words () =
  Alcotest.(check int) "word_bits" 63 Bitset.word_bits;
  Alcotest.(check int) "popcount 0" 0 (Bitset.popcount_word 0);
  Alcotest.(check int) "popcount -1" 63 (Bitset.popcount_word (-1));
  Alcotest.(check int) "popcount sign bit" 1
    (Bitset.popcount_word (1 lsl 62));
  let s = Bitset.create 130 in
  List.iter (Bitset.add s) [ 0; 5; 62; 63; 125; 126 ];
  let members = ref [] in
  Bitset.iter_set (fun i -> members := i :: !members) s;
  Alcotest.(check (list int)) "iter_set across word edges"
    [ 0; 5; 62; 63; 125; 126 ] (List.rev !members)

(* The bit-sliced counter against per-lane ints: lanes 0 and 62 (the
   sign bit) are driven through every power-of-two boundary up to
   [max_count], each add checked on every lane, then overflow, a full
   mask on a fresh counter and the range checks. *)
let test_lane_counter () =
  let max_count = 1 lsl 10 in
  let c = Lane_counter.create ~max_count in
  let model = Array.make Bitset.word_bits 0 in
  let add mask =
    Lane_counter.add c mask;
    for l = 0 to Bitset.word_bits - 1 do
      if mask land (1 lsl l) <> 0 then model.(l) <- model.(l) + 1
    done
  in
  let agree () = Lane_counter.to_array c ~lanes:Bitset.word_bits = model in
  let ok = ref true in
  for i = 1 to max_count do
    (* Lane 62 every step, lane 0 on odd steps, lane 31 on every third. *)
    let mask =
      min_int lor (if i land 1 = 1 then 1 else 0)
      lor if i mod 3 = 0 then 1 lsl 31 else 0
    in
    add mask;
    if not (agree ()) then ok := false
  done;
  Alcotest.(check bool) "every add agrees with the model" true !ok;
  Alcotest.(check int) "lane 62 reaches max_count" max_count
    (Lane_counter.get c 62);
  Alcotest.(check int) "lane 0" (max_count / 2) (Lane_counter.get c 0);
  Alcotest.(check int) "lane 31" (max_count / 3) (Lane_counter.get c 31);
  Alcotest.(check int) "untouched lane" 0 (Lane_counter.get c 5);
  Alcotest.check_raises "carry past max_count"
    (Invalid_argument "Lane_counter.add: count exceeds max_count") (fun () ->
      for _ = 1 to max_count do
        Lane_counter.add c min_int
      done);
  let c = Lane_counter.create ~max_count in
  Lane_counter.add c (-1);
  Alcotest.(check (array int)) "full mask" (Array.make 63 1)
    (Lane_counter.to_array c ~lanes:63);
  Alcotest.check_raises "zero planes"
    (Invalid_argument "Lane_counter.add: count exceeds max_count") (fun () ->
      Lane_counter.add (Lane_counter.create ~max_count:0) 1);
  Lane_counter.add (Lane_counter.create ~max_count:0) 0;
  Alcotest.check_raises "lane out of range"
    (Invalid_argument "Lane_counter.get: lane out of range") (fun () ->
      ignore (Lane_counter.get c 63));
  Alcotest.check_raises "lanes out of range"
    (Invalid_argument "Lane_counter.to_array: lanes out of range") (fun () ->
      ignore (Lane_counter.to_array c ~lanes:64));
  Alcotest.check_raises "negative max_count"
    (Invalid_argument "Lane_counter.create: max_count < 0") (fun () ->
      ignore (Lane_counter.create ~max_count:(-1)))

let test_bitset_word_bounds () =
  let s = Bitset.create 10 and tiny = Bitset.create 9 in
  Alcotest.check_raises "union universe mismatch"
    (Invalid_argument "Bitset.union_into: universe sizes differ") (fun () ->
      Bitset.union_into ~into:s tiny)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  Alcotest.(check (float 1e-9)) "mean empty" 0. (Stats.mean [||]);
  Alcotest.(check (float 1e-9)) "median" 2.5
    (Stats.quantile [| 1.; 2.; 3.; 4. |] 0.5);
  Alcotest.(check (float 1e-9)) "q0" 1. (Stats.quantile [| 3.; 1.; 2. |] 0.);
  Alcotest.(check (float 1e-9)) "q1" 3. (Stats.quantile [| 3.; 1.; 2. |] 1.);
  Alcotest.(check (float 1e-9)) "fraction" 0.25 (Stats.fraction 1 4);
  Alcotest.(check (float 1e-9)) "fraction by zero" 0. (Stats.fraction 1 0);
  Alcotest.(check string) "percent" "12.5%" (Stats.percent 0.125)

let test_table () =
  let t = Table.create ~header:[ "a"; "bb" ] in
  Table.add_row t [ "x"; "y" ];
  Table.add_row t [ "longer" ];
  Alcotest.(check string) "aligned, short row padded"
    "a       bb\n----------\nx       y \nlonger    \n" (Table.to_string t);
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: more cells than header columns")
    (fun () -> Table.add_row t [ "1"; "2"; "3" ])

let () =
  Alcotest.run "prelude"
    [
      ( "bucket_queue",
        [
          Alcotest.test_case "pops in order" `Quick test_bucket_queue_order;
          Alcotest.test_case "monotone violation" `Quick
            test_bucket_queue_monotone;
          Alcotest.test_case "rank bounds" `Quick test_bucket_queue_bounds;
          Alcotest.test_case "clear resets" `Quick test_bucket_queue_clear;
          test_bucket_queue_vs_sort;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic ops" `Quick test_bitset_basic;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "raw words" `Quick test_bitset_raw_words;
          Alcotest.test_case "word bounds" `Quick test_bitset_word_bounds;
          Alcotest.test_case "lane counter" `Quick test_lane_counter;
          test_bitset_vs_reference;
          test_bitset_words_vs_model;
        ] );
      ( "stats",
        [ Alcotest.test_case "basics" `Quick test_stats ] );
      ( "table",
        [ Alcotest.test_case "render" `Quick test_table ] );
    ]
