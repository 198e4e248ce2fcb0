(** Result of one stable-state computation for a destination (and an
    optional attacker), per Appendix B of the paper.

    Every AS that has any perceivable route is "fixed" with the abstraction
    of its best route(s): class, length, security, and where its best
    routes can lead.  When the tiebreak step TB is left unresolved
    ([Batch.Bounds] mode), an AS whose equally-best routes lead both to
    the destination and to the attacker has [to_d] and [to_m] both set;
    the metric treats it as unhappy in the lower bound and happy in the
    upper bound (Section 4.1). *)

type t

val dst : t -> int
val attacker : t -> int option
val n : t -> int

val reached : t -> int -> bool
(** The AS has some route (to the destination or the attacker). *)

val length : t -> int -> int
(** Path length of the chosen route(s); [-1] if unreached.  For routes
    through the attacker this is the {e perceived} length, counting the
    bogus "m d" edge. *)

val route_class : t -> int -> Policy.route_class
(** Raises [Invalid_argument] if the AS is unreached or is the
    destination/attacker. *)

val secure : t -> int -> bool
(** The AS's chosen route is a fully-signed secure route that the AS
    itself validated (always false for unreached, non-[Full] and attacked
    routes). *)

val to_d : t -> int -> bool
(** Some equally-best route leads to the legitimate destination. *)

val to_m : t -> int -> bool
(** Some equally-best route leads through the attacker. *)

val happy_lb : t -> int -> bool
(** Definitely happy: routes to the destination whatever TB does. *)

val happy_ub : t -> int -> bool
(** Possibly happy: some best route reaches the destination. *)

val next_hop : t -> int -> int
(** Representative next hop ([-1] for the destination or unreached ASes;
    the destination for the attacker, reflecting the bogus claimed edge).
    In [Batch.Lowest_next_hop] mode this is the unique chosen next hop;
    in [Batch.Bounds] mode it is the lowest-numbered next hop among the
    equally-best routes. *)

val path : t -> int -> int list
(** The (representative) chosen route from the given AS to its apparent
    origin, e.g. [[s; u; d]] or [[s; u; m; d]] for an attacked route
    (the trailing [d] after [m] is the bogus claimed hop).  Empty for
    unreached ASes; [[d]] for the destination itself. *)

(** {1 Construction — used by the engines} *)

val create : n:int -> dst:int -> attacker:int option -> t

val reset : t -> n:int -> dst:int -> attacker:int option -> t
(** Recycle the buffers of [t] for a new computation: every AS becomes
    unreached and the destination/attacker are re-pointed.  Returns [t]
    itself when its buffers are large enough, a fresh record otherwise.
    Used by [Batch.decode ?into]; the previous state of [t] is lost. *)

val fix :
  t ->
  int ->
  cls:Policy.route_class ->
  len:int ->
  secure:bool ->
  to_d:bool ->
  to_m:bool ->
  parent:int ->
  unit

val fix_root :
  t ->
  int ->
  len:int ->
  secure:bool ->
  to_d:bool ->
  to_m:bool ->
  parent:int ->
  unit
(** Fix the destination or the attacker; their [route_class] is undefined
    (they have no neighbor route). *)

val is_fixed : t -> int -> bool

val fix_code :
  t ->
  int ->
  cls_code:int ->
  len:int ->
  secure:bool ->
  to_d:bool ->
  to_m:bool ->
  parent:int ->
  unit
(** {!fix} with the class already in code form (0 customer / 1 peer /
    2 provider) — the packed kernel stores codes, not variants, so this
    skips a decode/re-encode round trip per fixed AS.  The code is not
    validated. *)
