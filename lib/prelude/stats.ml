let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty array";
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) in
  let hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let w = pos -. float_of_int lo in
    (sorted.(lo) *. (1. -. w)) +. (sorted.(hi) *. w)
  end

let fraction num denom = if denom = 0 then 0. else float_of_int num /. float_of_int denom
let percent f = Printf.sprintf "%.1f%%" (100. *. f)
