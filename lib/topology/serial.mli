(** CAIDA-style textual serialization of annotated AS graphs.

    One edge per line: [<provider>|<customer>|-1] for customer-to-provider
    edges and [<a>|<b>|0] for peering.  Lines starting with ['#'] are
    comments, except the header [# n=<count>], which records the AS count
    so that isolated ASes survive a round trip. *)

val to_string : Graph.t -> string

val of_string : string -> Graph.t
(** Raises [Failure] with a message starting ["Serial: line <k>:"] on
    malformed input: a line that is not [<a>|<b>|<rel>] with integer ids
    and [rel] in [{-1, 0}], a negative id, a self loop, a pair restated
    with a different relationship, a [# n=] header without a
    non-negative count or with one above {!Graph.max_ases}, an id at or
    above the header's count, or an id at or above {!Graph.max_ases}
    (checked as the line is read, so no such graph is allocated).  Lines
    with extra fields (e.g. CAIDA as-rel2's trailing source column) are
    accepted; AS ids must be dense in [0, n). *)

val save : string -> Graph.t -> unit

val of_string_remapped : string -> Graph.t * int array
(** Like {!of_string}, but accepts arbitrary (sparse) AS numbers — as in
    real CAIDA relationship files — and maps them onto dense ids.  The
    returned array gives the original AS number of each dense id.  Fails
    like {!of_string}: a [# n=] header still bounds the ids (and is
    itself bounded by {!Graph.max_ases}), but an AS that appears on no
    line is dropped. *)

val load_remapped : string -> Graph.t * int array

(** {2 Binary snapshots}

    A versioned binary image of a graph's CSR: an 8-byte magic, a
    little-endian int64 header (format version, payload word size, AS
    count, neighbor count, edge counts, payload digest), zero padding to
    a page boundary, then the raw CSR — the [3n + 1] offsets followed by
    the neighbor array, one 64-bit word each.  The payload bytes are the
    in-memory representation of the graph's off-heap CSR
    ({!Graph.ints}), so loading is an [mmap] plus validation scans
    rather than a parse: a UCLA-scale (~40k AS) graph loads in
    milliseconds where regeneration takes seconds.

    Snapshots require a 64-bit little-endian platform on both ends
    (checked at run time; [Failure] otherwise). *)

val save_snapshot : string -> Graph.t -> unit
(** Write atomically: the image goes to [path ^ ".tmp"] and is renamed
    over [path], so a crash mid-write never leaves a torn file under the
    final name. *)

val load_snapshot : string -> Graph.t
(** Map a snapshot back into a graph.  The payload stays memory-mapped
    (the returned graph's CSR aliases the file, read-only by
    convention); per-AS tables materialize lazily on first use.  Raises
    [Failure] naming the defect — and the path — on bad magic, format
    version or word-size mismatch, truncation, trailing bytes, digest
    mismatch, an invalid CSR payload, or header/payload edge-count
    disagreement. *)

val snapshot_magic : string

val snapshot_payload_offset : int
(** Byte offset of the payload (one page); exposed with the magic so
    tests can corrupt specific fields and prove each error path. *)
