(* Plane [i] holds bit [i] of every lane's count, so adding a mask is a
   binary increment done on all its lanes in parallel: XOR the carry
   into a plane, and the lanes that were already 1 there carry into the
   next.  The carry empties after one plane for half of the lanes, two
   for a quarter, and so on.

   The planes sit in an off-heap int array: a counter is one block the
   GC never scans, and building one (once per batched-kernel workspace)
   allocates nothing on the OCaml heap. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let rec bit_length k = if k = 0 then 0 else 1 + bit_length (k lsr 1)

let create ~max_count =
  if max_count < 0 then invalid_arg "Lane_counter.create: max_count < 0";
  let t =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout (bit_length max_count)
  in
  Bigarray.Array1.fill t 0;
  t

let clear t = Bigarray.Array1.fill t 0

let rec ripple (planes : t) i carry =
  if carry <> 0 then begin
    if i >= Bigarray.Array1.dim planes then
      invalid_arg "Lane_counter.add: count exceeds max_count";
    let p = planes.{i} in
    planes.{i} <- p lxor carry;
    ripple planes (i + 1) (p land carry)
  end

let add t mask = ripple t 0 mask

let get (t : t) lane =
  if lane < 0 || lane >= Bitset.word_bits then
    invalid_arg "Lane_counter.get: lane out of range";
  let c = ref 0 in
  for i = Bigarray.Array1.dim t - 1 downto 0 do
    c := (!c lsl 1) lor ((t.{i} lsr lane) land 1)
  done;
  !c
