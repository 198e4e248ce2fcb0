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
  Bitset.remove s 63;
  Alcotest.(check int) "cardinal after remove" 3 (Bitset.cardinal s);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 64; 99 ] (Bitset.to_list s);
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
        if Rng.bool rng then begin
          Bitset.add s v;
          Hashtbl.replace reference v ()
        end
        else begin
          Bitset.remove s v;
          Hashtbl.remove reference v
        end
      done;
      Bitset.cardinal s = Hashtbl.length reference
      && List.for_all (fun v -> Hashtbl.mem reference v) (Bitset.to_list s))

(* Word-level API against a naive bool-array model: random add/remove
   churn plus in-place union/diff against a second set, then every
   accessor cross-checked — [get_word]/[fold_words] bit-by-bit against
   the model, [iter_set] for exact member order, cardinal for the
   popcount bookkeeping of the in-place operations. *)
let test_bitset_words_vs_model =
  Test_helpers.qtest "bitset word API agrees with bool-array model" ~count:300
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 300 in
      let s = Bitset.create n and s2 = Bitset.create n in
      let m = Array.make n false and m2 = Array.make n false in
      for _ = 1 to 200 do
        let v = Rng.int rng n in
        match Rng.int rng 4 with
        | 0 ->
            Bitset.add s v;
            m.(v) <- true
        | 1 ->
            Bitset.remove s v;
            m.(v) <- false
        | 2 ->
            Bitset.add s2 v;
            m2.(v) <- true
        | _ ->
            Bitset.remove s2 v;
            m2.(v) <- false
      done;
      (match Rng.int rng 3 with
      | 0 ->
          Bitset.union_into ~into:s s2;
          Array.iteri (fun i b -> if b then m.(i) <- true) m2
      | 1 ->
          Bitset.diff_into ~into:s s2;
          Array.iteri (fun i b -> if b then m.(i) <- false) m2
      | _ -> ());
      let model_card = Array.fold_left (fun a b -> if b then a + 1 else a) 0 m in
      let words_ok =
        Bitset.words s = (n + Bitset.word_bits - 1) / Bitset.word_bits
      in
      let get_ok = ref true in
      for j = 0 to Bitset.words s - 1 do
        let w = Bitset.get_word s j in
        for b = 0 to Bitset.word_bits - 1 do
          let i = (j * Bitset.word_bits) + b in
          let want = i < n && m.(i) in
          if w land (1 lsl b) <> 0 <> want then get_ok := false
        done
      done;
      let fold_card =
        Bitset.fold_words (fun _ w acc -> acc + Bitset.popcount_word w) s 0
      in
      let members = ref [] in
      Bitset.iter_set (fun i -> members := i :: !members) s;
      let model_members = ref [] in
      for i = n - 1 downto 0 do
        if m.(i) then model_members := i :: !model_members
      done;
      words_ok && !get_ok
      && Bitset.cardinal s = model_card
      && fold_card = model_card
      && List.rev !members = !model_members)

(* Raw-word helpers on adversarial patterns, the sign bit (index 62)
   included. *)
let test_bitset_raw_words () =
  Alcotest.(check int) "word_bits" 63 Bitset.word_bits;
  Alcotest.(check int) "popcount 0" 0 (Bitset.popcount_word 0);
  Alcotest.(check int) "popcount -1" 63 (Bitset.popcount_word (-1));
  Alcotest.(check int) "popcount sign bit" 1
    (Bitset.popcount_word (1 lsl 62));
  let bits w =
    let acc = ref [] in
    Bitset.iter_word (fun b -> acc := b :: !acc) w;
    List.rev !acc
  in
  Alcotest.(check (list int)) "iter_word mixed" [ 0; 5; 62 ]
    (bits (1 lor (1 lsl 5) lor (1 lsl 62)));
  Alcotest.(check (list int)) "iter_word empty" [] (bits 0)

(* [iter_word] against a naive scan of bits 0..62, on random full-width
   words (sign bit included) and on the extreme patterns. *)
let test_iter_word_vs_scan =
  let naive w =
    List.filter (fun b -> w land (1 lsl b) <> 0) (List.init Bitset.word_bits Fun.id)
  in
  let bits w =
    let acc = ref [] in
    Bitset.iter_word (fun b -> acc := b :: !acc) w;
    List.rev !acc
  in
  Test_helpers.qtest "iter_word = naive bit scan" ~count:500 (fun seed ->
      let rng = Rng.create seed in
      let random = Int64.to_int (Rng.bits64 rng) in
      (* Sparse words too: the AND of three draws keeps ~1/8 of the bits. *)
      let sparse =
        random land Int64.to_int (Rng.bits64 rng)
        land Int64.to_int (Rng.bits64 rng)
      in
      List.for_all
        (fun w -> bits w = naive w)
        [ random; sparse; 0; -1; min_int; max_int; 1 ])

(* The bit-sliced counter against per-lane ints: lanes 0 and 62 (the
   sign bit) are driven through every power-of-two boundary up to
   [max_count], each add checked on every lane, then overflow, clear and
   the range checks. *)
let test_lane_counter () =
  let max_count = 1 lsl 10 in
  let c = Lane_counter.create ~max_count in
  let model = Array.make Bitset.word_bits 0 in
  let add mask =
    Lane_counter.add c mask;
    Bitset.iter_word (fun l -> model.(l) <- model.(l) + 1) mask
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
  Lane_counter.clear c;
  Alcotest.(check (array int)) "clear" (Array.make 63 0)
    (Lane_counter.to_array c ~lanes:63);
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
  Alcotest.check_raises "get_word out of bounds"
    (Invalid_argument "Bitset.get_word: word index out of bounds") (fun () ->
      ignore (Bitset.get_word s 1));
  Alcotest.check_raises "union universe mismatch"
    (Invalid_argument "Bitset.union_into: universe sizes differ") (fun () ->
      Bitset.union_into ~into:s tiny);
  Alcotest.check_raises "diff universe mismatch"
    (Invalid_argument "Bitset.diff_into: universe sizes differ") (fun () ->
      Bitset.diff_into ~into:s tiny)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  Alcotest.(check (float 1e-9)) "mean empty" 0. (Stats.mean [||]);
  Alcotest.(check (float 1e-9)) "median" 2.5
    (Stats.quantile [| 1.; 2.; 3.; 4. |] 0.5);
  Alcotest.(check (float 1e-9)) "q0" 1. (Stats.quantile [| 3.; 1.; 2. |] 0.);
  Alcotest.(check (float 1e-9)) "q1" 3. (Stats.quantile [| 3.; 1.; 2. |] 1.);
  Alcotest.(check (float 1e-9)) "fraction" 0.25 (Stats.fraction 1 4);
  Alcotest.(check (float 1e-9)) "fraction by zero" 0. (Stats.fraction 1 0);
  Alcotest.(check string) "percent" "12.5%" (Stats.percent 0.125);
  let h = Stats.histogram ~bins:4 ~lo:0. ~hi:4. [| 0.5; 1.5; 1.6; 3.9; 9. |] in
  Alcotest.(check (array int)) "histogram" [| 1; 2; 0; 2 |] h

let test_stats_stddev () =
  Alcotest.(check (float 1e-9)) "stddev" 2.
    (Stats.stddev [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |]);
  Alcotest.(check (float 1e-9)) "stddev single" 0. (Stats.stddev [| 5. |])

let test_table () =
  let t = Table.create ~header:[ "a"; "bb" ] in
  Table.add_row t [ "x"; "y" ];
  Table.add_row t [ "longer" ];
  let rendered = Table.to_string t in
  Alcotest.(check bool) "contains header" true
    (String.length rendered > 0 && String.sub rendered 0 1 = "a");
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: more cells than header columns")
    (fun () -> Table.add_row t [ "1"; "2"; "3" ]);
  let csv = Table.csv t in
  Alcotest.(check string) "csv" "a,bb\nx,y\nlonger,\n" csv

let test_table_csv_quoting () =
  let t = Table.create ~header:[ "v" ] in
  Table.add_row t [ "a,b" ];
  Table.add_row t [ "q\"q" ];
  Alcotest.(check string) "quoted" "v\n\"a,b\"\n\"q\"\"q\"\n" (Table.csv t)

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
          test_iter_word_vs_scan;
          Alcotest.test_case "lane counter" `Quick test_lane_counter;
          test_bitset_vs_reference;
          test_bitset_words_vs_model;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
        ] );
      ( "table",
        [
          Alcotest.test_case "render and csv" `Quick test_table;
          Alcotest.test_case "csv quoting" `Quick test_table_csv_quoting;
        ] );
    ]
