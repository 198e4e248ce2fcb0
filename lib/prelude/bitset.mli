(** Compact fixed-capacity set of small non-negative integers.

    Backed by an [int array] with {!word_bits} membership bits per word.
    The word granularity is part of the interface: the batched routing
    kernel ({!Routing.Batch}) identifies "one attacker" with "one bit of
    a word", so a single CSR frontier scan advances up to {!word_bits}
    attackers at once. *)

type t

val word_bits : int
(** Membership bits per backing word: 63, the width of an OCaml
    immediate int (bit indices 0..62; the would-be bit 63 does not exist
    in a native [int]).  Word [j] holds members
    [j * word_bits .. j * word_bits + word_bits - 1]. *)

val create : int -> t
(** [create n] is the empty set over the universe [0 .. n-1].
    Raises [Invalid_argument] if [n < 0]. *)

val mem : t -> int -> bool
val add : t -> int -> unit
(** Membership and insertion.  Both raise [Invalid_argument] when the
    index is outside the universe. *)

val clear : t -> unit

val cardinal : t -> int
(** Number of members; O(1). *)

val iter_set : (int -> unit) -> t -> unit
(** [iter_set f t] applies [f] to every member in ascending order.
    Cost is O(words + cardinal), not O(length): zero words are skipped
    whole, and each set bit costs O(1) — it is extracted with
    [w land (-w)] and its index read from a 67-entry table — which is
    what makes sparse iteration over a large universe cheap.  Allocates
    nothing beyond what [f] does. *)

val union_into : into:t -> t -> unit
(** [union_into ~into src] adds every member of [src] to [into], word
    at a time.  Raises [Invalid_argument] when the universe sizes
    differ (a word-wise merge of different universes would silently
    misalign lanes). *)

val popcount_word : int -> int
(** Number of set bits in a raw word (any OCaml int, sign bit
    included).  One loop iteration per set bit. *)

val iter : (int -> unit) -> t -> unit
(** Alias of {!iter_set} (kept for callers of the byte-backed
    predecessor). *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t init] folds [f] over the members in ascending order. *)
