(** Bit-sliced ("vertical") per-lane counters over one word of lanes.

    Holds one non-negative count for each of the {!Bitset.word_bits}
    lanes of a word, stored transposed: plane [i] is an [int] whose bit
    [l] is bit [i] of lane [l]'s count.  {!add} increments every lane of
    a mask at once with a ripple carry through the planes, so a fold
    that adds one lane mask per group pays about two word operations
    per group (amortized), independent of how many lanes the mask
    holds or where they sit.  Counts are decoded once, at the end. *)

type t

val create : max_count:int -> t
(** [create ~max_count] is a counter with every lane at 0 that can
    count each lane up to [max_count].  It keeps one plane per bit of
    [max_count] (none when [max_count = 0]).  Raises [Invalid_argument]
    if [max_count < 0]. *)

val clear : t -> unit
(** [clear t] sets every lane back to 0, keeping the planes. *)

val add : t -> int -> unit
(** [add t mask] adds 1 to the count of every lane whose bit is set in
    [mask] (bit 62, the sign bit, included).  Raises [Invalid_argument]
    when that would carry a lane past the planes {!create} sized; a
    counter never fails while every count stays within [max_count]. *)

val get : t -> int -> int
(** [get t lane] is lane [lane]'s count.  Raises [Invalid_argument]
    unless [0 <= lane < Bitset.word_bits]. *)
