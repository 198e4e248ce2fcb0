(** Locating and reading dune's [.cmt] binary-annotation artifacts. *)

type unit_file = {
  cmt_path : string;  (** path of the .cmt file itself *)
  modname : string;  (** mangled unit name, e.g. ["Routing__Engine"] *)
  source : string;  (** source path as recorded by the compiler,
                        e.g. ["lib/routing/engine.ml"] *)
}

val scan : root:string -> dirs:string list -> string list
(** All [.cmt] files under [root]/[dir] for each [dir], found inside
    dune's [.<lib>.objs/byte] and [.<exe>.eobjs/byte] directories, in
    deterministic sorted order. *)

val locate_build_root : unit -> string option
(** First plausible build root among [$SBGP_CMT_ROOT], [_build/default],
    [.], [..], ... — a directory whose [lib/] contains dune object
    directories.  Covers the three call sites: the [@lint] rule (cwd is
    the build context), [dune runtest] (cwd is [_build/default/test])
    and [sbgp check --static] from a repository checkout. *)

val read :
  string -> (unit_file * Cmt_format.cmt_infos, string) result
(** Read one artifact; [Error] carries the exception text for corrupt or
    version-skewed files. *)

(** Digest-keyed cache of walked {!Unit_info.t} values, so repeated
    lint runs skip re-walking unchanged units.  Snapshots are keyed by
    the [.cmt] file digest and versioned by analyzer-format and
    compiler version; every failure mode (missing file, version skew,
    torn write) silently degrades to a cold cache. *)
module Cache : sig
  type t

  val empty : unit -> t
  val load : path:string -> t

  val digest : string -> string option
  (** Hex digest of a file's contents; [None] if unreadable. *)

  val lookup : t -> digest:string -> Unit_info.t option
  val store : t -> digest:string -> Unit_info.t -> unit

  val save : t -> path:string -> unit
  (** Persist only the entries touched since [load] (pruning dead
      units), atomically via tmp + rename.  Failures are silent. *)
end
