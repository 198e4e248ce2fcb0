(** Route-origin authentication with the RPKI (RFC 6480 / 6483 semantics).

    The paper's threat model (Section 3) assumes the RPKI and origin
    authentication are fully deployed, so prefix- and subprefix-hijacks
    are filtered, and the remaining attack is the bogus path announcement
    "m d" — which passes origin validation because the claimed origin is
    the legitimate one.  This module implements that substrate: prefixes,
    ROAs, and the origin-validation outcome for announcements. *)

type prefix = { addr : int32; len : int }
(** An IPv4 prefix in CIDR form; bits beyond [len] must be zero. *)

val prefix : string -> prefix
(** [prefix "10.16.0.0/12"].  Raises [Invalid_argument] on syntax errors,
    bad masks, or non-zero host bits. *)

val covers : prefix -> prefix -> bool
(** [covers p q]: [q] is [p] itself or a more-specific prefix of [p]. *)

type roa = { roa_prefix : prefix; max_len : int; origin : int }
(** Route Origin Authorization: [origin] may announce [roa_prefix] and
    more-specifics up to [max_len]. *)

val roa : string -> ?max_len:int -> int -> roa
(** [roa "10.0.0.0/8" ~max_len:24 65001]; [max_len] defaults to the
    prefix length. *)

type announcement = { ann_prefix : prefix; as_path : int list }
(** [as_path] ends at the origin AS. *)

val origin_of : announcement -> int
(** Raises [Invalid_argument] on an empty path. *)

type validity = Valid | Invalid | Unknown

val validate : roa list -> announcement -> validity
(** RFC 6483 origin validation: [Unknown] when no ROA covers the
    announced prefix; [Valid] when some covering ROA matches the origin
    and the length limit; [Invalid] otherwise. *)
