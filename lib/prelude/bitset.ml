(* Backed by an [int array], 63 membership bits per word (the width of
   an OCaml immediate int).  The word layout is public — see the .mli —
   because the batched routing kernel packs one attacker per bit and
   advances a whole word of attackers per CSR scan; keeping the set
   representation and the kernel's lane masks the same width means a
   destination's attacker word can flow between the two without
   re-packing. *)

let word_bits = 63

type t = { words : int array; n : int; mutable card : int }

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Array.make ((n + word_bits - 1) / word_bits) 0; n; card = 0 }

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: index out of bounds"

let mem t i =
  check t i;
  t.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let add t i =
  check t i;
  let w = t.words.(i / word_bits) in
  let bit = 1 lsl (i mod word_bits) in
  if w land bit = 0 then begin
    t.words.(i / word_bits) <- w lor bit;
    t.card <- t.card + 1
  end

let clear t =
  Array.fill t.words 0 (Array.length t.words) 0;
  t.card <- 0

let cardinal t = t.card

(* Kernighan loop: one iteration per set bit.  Valid for any word
   pattern a [t] can hold (bit 62 included: [w - 1] on [min_int] wraps
   to [max_int], clearing exactly the sign bit). *)
let popcount_word w0 =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w0 0

(* Index of a one-bit word in O(1): 2 is a primitive root mod 67, so
   2^k mod 67 is distinct for k = 0..61 and never 0.  Bit 62 is
   [min_int], negative, so the sign bit is masked off first and bit 62
   lands alone in slot 0. *)
let bit_index =
  let slot k = ((1 lsl k) land max_int) mod 67 in
  let rec find r k = if k >= word_bits || slot k = r then k else find r (k + 1) in
  (* Slots no bit reaches (4 of 67) are never read; they hold 63. *)
  Array.init 67 (fun r -> find r 0)

let lowest_index w = bit_index.(((w land -w) land max_int) mod 67)

let rec iter_bits f base w =
  if w <> 0 then begin
    let b = w land -w in
    f (base + bit_index.((b land max_int) mod 67));
    iter_bits f base (w lxor b)
  end

let iter_set f t =
  for j = 0 to Array.length t.words - 1 do
    iter_bits f (j * word_bits) t.words.(j)
  done

let iter = iter_set

let fold f t init =
  let acc = ref init in
  iter_set (fun i -> acc := f i !acc) t;
  !acc

let union_into ~into src =
  if into.n <> src.n then
    invalid_arg "Bitset.union_into: universe sizes differ";
  let c = ref 0 in
  for j = 0 to Array.length into.words - 1 do
    let w = into.words.(j) lor src.words.(j) in
    into.words.(j) <- w;
    c := !c + popcount_word w
  done;
  into.card <- !c
