(** Single-unit Typedtree walk: facts only, no policy.

    One record per compilation unit, collected in a single
    {!Tast_iterator} pass: polymorphic-comparison uses with their
    instantiated subject type, unsafe-access and nondeterministic
    primitives, exception-swallowing handlers, value-level call edges
    and type declarations — plus the domain-safety facts the A6–A8
    rules judge: mutable-state accesses with their enclosing-lambda
    context and statically-held mutexes, lock events, and
    workspace-typed values referenced inside closures.  Scoping and
    allowlisting happen in {!Rules}. *)

type kind =
  | Poly_compare of { op : string; subject : Types.type_expr option }
      (** [op] is canonical (["Stdlib.="], ["Stdlib.List.mem"]);
          [subject] the instantiated first-argument type, [None] when no
          arrow type was recoverable. *)
  | Unsafe_access of string
      (** ["Stdlib.Array.unsafe_get"/"unsafe_set"/"Stdlib.Obj.magic"] *)
  | Nondet_prim of string
      (** unordered [Hashtbl] iteration (including local [Hashtbl.Make]
          instances), [Random.*], wall-clock reads, [Domain.self] *)
  | Exn_swallow of string
      (** catch-all or bound-but-unused exception handler, or a
          [Printexc.print_backtrace] debugging escape *)

type occurrence = {
  kind : kind;
  encl : string;  (** canonical enclosing toplevel symbol *)
  line : int;
}

type edge = {
  from_ : string;
  target : string;
  line : int;
  lambdas : string option list;
      (** enclosing literal lambdas, outermost first; [Some callee] when
          the lambda was a direct argument of [callee], [None] otherwise.
          Lets the rules find call edges that originate inside a
          [Parallel.map (fun item -> ...)] closure. *)
}

(** Who owns the mutated cell. *)
type subject =
  | Local of int
      (** bound at this lambda depth; [0] is the unit toplevel *)
  | Global of string  (** canonical toplevel symbol *)
  | Unknown

type sort =
  | Ref_write of string  (** [":="], ["incr"], ["decr"] *)
  | Ref_read of string
      (** a [!] dereference — recorded so the cache-purity rule (A10)
          can see module-level mutable state flowing into cached
          results *)
  | Field_write of { rectype : string; field : string }
  | Field_read of { rectype : string; field : string }
      (** reads are only recorded for [mutable] fields *)
  | Array_write of { idx_depth : int }
      (** single-cell write; [idx_depth] is the minimum binder depth of
          any variable in the index expression ([max_int] for constant
          indices) — the disjoint-index exemption compares it with the
          parallel-closure depth *)
  | Container_op of {
      op : string;  (** e.g. ["Hashtbl.replace"], ["Buffer.clear"] *)
      write : bool;
      field : (string * string) option;
          (** [(rectype, field)] when the container is a record field *)
    }

type access = {
  sort : sort;
  subject : subject;
  lambdas : string option list;  (** as in {!edge} *)
  held : (string * int) list;
      (** mutex descriptors statically held at the site, with the
          lambda depth at which each was acquired *)
  a_encl : string;
  a_line : int;
}

type lock_event =
  | Acquire of string
  | Release of string
  | Raise_locked of { locks : string list; what : string }
      (** an explicit raiser (or assert) runs while holding [locks]
          with no enclosing [Fun.protect]/[Mutex.protect] release *)

type lock_occ = { ev : lock_event; l_encl : string; l_line : int }

(** One heap-allocation fact for the hot-path rule (A9).  Sites at
    lambda depth 0 (module init, static constants) are never recorded;
    a curried [fun a b -> ...] records one {!Closure}. *)
type alloc_kind =
  | Closure of { captures : string list }
      (** source names of enclosing-function locals the closure body
          references (toplevel values excluded — statically addressed) *)
  | Box of { what : string; floats : bool }
      (** a boxed construction: ["tuple"], ["record"],
          ["polymorphic variant"], a constructor name ("Some", ...) or
          ["float"] for the root of a float-arithmetic tree; [floats]
          when a float participates *)
  | Arr_lit  (** non-empty [\[| ... |\]] literal *)
  | List_lit  (** a [::] cons cell *)
  | Alloc_call of string
      (** canonical name of a known allocating primitive
          ([Array.make], [Buffer.add_*], [Printf.sprintf], ...) *)
  | Partial_app of string
      (** application returning an arrow (or with an omitted optional
          argument): builds a closure over the supplied prefix *)

type alloc = { a_kind : alloc_kind; al_encl : string; al_line : int }

val describe_alloc : alloc_kind -> string
(** Human-readable site description for findings and reports. *)

type capture = {
  name : string;  (** source name of the referenced value *)
  tyhead : string;  (** canonical type head, e.g.
                        ["Routing.Batch.Workspace.t"] *)
  depth : int;  (** binder depth of the value (0 = toplevel) *)
  c_lambdas : string option list;
  c_encl : string;
  c_line : int;
}

type t = {
  modname : string;  (** canonical unit name, e.g. ["Routing.Engine"] *)
  source : string;  (** e.g. ["lib/routing/engine.ml"] *)
  defs : string list;  (** canonical toplevel value symbols, in order *)
  edges : edge list;  (** value-level references, callee resolved *)
  occs : occurrence list;
  tydecls : (string * Types.type_declaration) list;
  hashtbl_mods : string list;
      (** canonical names of local [Hashtbl.Make] instances *)
  accesses : access list;
  locks : lock_occ list;
  captures : capture list;
      (** workspace-typed idents referenced under at least one lambda *)
  allocs : alloc list;
      (** heap-allocation sites under at least one lambda, for A9 *)
}

val split_last : string -> string * string
(** ["A.B.c"] -> [("A.B", "c")]; no dot -> [("", name)]. *)

val is_nondet : hashtbl_mods:string list -> string -> bool
(** Whether a canonical identifier is a nondeterministic primitive —
    exported so the taint rule applies the same judgement to call-graph
    edge targets. *)

val walk : modname:string -> source:string -> Typedtree.structure -> t
