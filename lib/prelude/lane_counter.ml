(* Plane [i] holds bit [i] of every lane's count, so adding a mask is a
   binary increment done on all its lanes in parallel: XOR the carry
   into a plane, and the lanes that were already 1 there carry into the
   next.  The carry empties after one plane for half of the lanes, two
   for a quarter, and so on. *)

type t = { planes : int array }

let create ~max_count =
  if max_count < 0 then invalid_arg "Lane_counter.create: max_count < 0";
  let rec bit_length k = if k = 0 then 0 else 1 + bit_length (k lsr 1) in
  { planes = Array.make (bit_length max_count) 0 }

let rec ripple planes i carry =
  if carry <> 0 then begin
    if i >= Array.length planes then
      invalid_arg "Lane_counter.add: count exceeds max_count";
    let p = planes.(i) in
    planes.(i) <- p lxor carry;
    ripple planes (i + 1) (p land carry)
  end

let add t mask = ripple t.planes 0 mask

let get t lane =
  if lane < 0 || lane >= Bitset.word_bits then
    invalid_arg "Lane_counter.get: lane out of range";
  let c = ref 0 in
  for i = Array.length t.planes - 1 downto 0 do
    c := (!c lsl 1) lor ((t.planes.(i) lsr lane) land 1)
  done;
  !c

let to_array t ~lanes =
  if lanes < 0 || lanes > Bitset.word_bits then
    invalid_arg "Lane_counter.to_array: lanes out of range";
  Array.init lanes (get t)
