(* Deterministic RNG. *)

open Core

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check int) "different streams" 0 !same

let test_copy () =
  let a = Rng.create 9 in
  let (_ : int64) = Rng.bits64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.bits64 a) (Rng.bits64 b)

let test_int_bounds =
  Test_helpers.qtest "int stays in bounds" ~count:300 (fun seed ->
      let rng = Rng.create seed in
      let bound = 1 + Rng.int rng 1000 in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let test_int_rejects_bad_bound () =
  let rng = Rng.create 0 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Rng.int rng 0))

let test_float_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0. && v < 2.5)
  done

let test_int_roughly_uniform () =
  let rng = Rng.create 5 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "within 10% of uniform" true
        (abs (c - (n / 10)) < n / 100))
    counts

let test_geometric_mean () =
  let rng = Rng.create 11 in
  let p = 0.5 in
  let total = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    total := !total + Rng.geometric rng ~p
  done;
  let mean = float_of_int !total /. float_of_int n in
  (* Mean of failures-before-success is (1-p)/p = 1. *)
  Alcotest.(check bool) "mean close to 1" true (abs_float (mean -. 1.) < 0.05)

let test_weighted_index () =
  let rng = Rng.create 17 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Rng.weighted_index rng [| 1.; 2.; 7. |] in
    counts.(i) <- counts.(i) + 1
  done;
  let f i = float_of_int counts.(i) /. 30_000. in
  Alcotest.(check bool) "weights respected" true
    (abs_float (f 0 -. 0.1) < 0.02
    && abs_float (f 1 -. 0.2) < 0.02
    && abs_float (f 2 -. 0.7) < 0.02)

let test_shuffle_permutation =
  Test_helpers.qtest "shuffle is a permutation" ~count:200 (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 50 in
      let arr = Array.init n (fun i -> i) in
      Rng.shuffle rng arr;
      let sorted = Array.copy arr in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let test_sample_without_replacement =
  Test_helpers.qtest "sample has distinct in-range elements" ~count:200
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 100 in
      let k = Rng.int rng (n + 1) in
      let s = Rng.sample_without_replacement rng k n in
      let tbl = Hashtbl.create k in
      Array.iter (fun v -> Hashtbl.replace tbl v ()) s;
      Array.length s = k
      && Hashtbl.length tbl = k
      && Array.for_all (fun v -> v >= 0 && v < n) s)

let () =
  Alcotest.run "rng"
    [
      ( "streams",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
          Alcotest.test_case "copy" `Quick test_copy;
        ] );
      ( "distributions",
        [
          test_int_bounds;
          Alcotest.test_case "bad bound" `Quick test_int_rejects_bad_bound;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "uniformity" `Slow test_int_roughly_uniform;
          Alcotest.test_case "geometric mean" `Slow test_geometric_mean;
          Alcotest.test_case "weighted index" `Slow test_weighted_index;
          test_shuffle_permutation;
          test_sample_without_replacement;
        ] );
    ]
