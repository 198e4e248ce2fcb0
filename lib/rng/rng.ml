type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let copy t = { state = t.state }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Rejection sampling on the top 62 bits to avoid modulo bias. *)
  let mask = 0x3FFFFFFFFFFFFFFFL in
  let rec go () =
    let r = Int64.to_int (Int64.logand (bits64 t) mask) in
    let v = r mod bound in
    if r - v > (1 lsl 62) - bound then go () else v
  in
  go ()

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let geometric t ~p =
  if p <= 0. || p > 1. then invalid_arg "Rng.geometric";
  if p = 1. then 0
  else begin
    let u = ref (float t 1.0) in
    if !u = 0. then u := epsilon_float;
    int_of_float (floor (log !u /. log (1. -. p)))
  end

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let weighted_index t weights =
  let total = Array.fold_left ( +. ) 0. weights in
  if total <= 0. then invalid_arg "Rng.weighted_index: non-positive total";
  let target = float t total in
  let n = Array.length weights in
  let rec go i acc =
    if i = n - 1 then i
    else begin
      let acc = acc +. weights.(i) in
      if target < acc then i else go (i + 1) acc
    end
  in
  go 0 0.

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k > n || k < 0 then invalid_arg "Rng.sample_without_replacement";
  if 3 * k >= n then begin
    (* Dense case: shuffle a prefix of the full range. *)
    let all = Array.init n (fun i -> i) in
    shuffle t all;
    Array.sub all 0 k
  end
  else begin
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
