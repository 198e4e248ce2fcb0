let to_string g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "# n=%d\n" (Graph.n g));
  List.iter
    (fun edge ->
      match edge with
      | Graph.Customer_provider (c, p) ->
          Buffer.add_string buf (Printf.sprintf "%d|%d|-1\n" p c)
      | Graph.Peer_peer (a, b) ->
          Buffer.add_string buf (Printf.sprintf "%d|%d|0\n" a b))
    (List.sort compare (Graph.edges g));
  Buffer.contents buf

let fail_at line msg = failwith (Printf.sprintf "Serial: line %d: %s" line msg)

let header = "# n="

(* Parse into raw (provider-ish) triples, each with its 1-based line;
   relationship "-1" means the first field is the provider of the
   second, "0" means peering.  Extra fields (CAIDA as-rel2 appends the
   inference source) are ignored.  Every defect [Graph.of_edges] would
   reject — a self loop, a negative id, one pair given two different
   relationships, an id at or above a [# n=] header's count, a count
   above [Graph.max_ases] or (with [dense] ids) an id at or above it —
   fails here instead, on the line that commits it, before anything of
   the graph's size is allocated. *)
let parse ~dense s =
  let n = ref (-1) in
  let triples = ref [] in
  (* Unordered pair -> (relationship, first line), relationships
     normalized to the smaller id: 0 peers, 1 provider, 2 customer. *)
  let seen = Hashtbl.create 1024 in
  List.iteri
    (fun lineno line ->
      let line = String.trim line and lineno = lineno + 1 in
      let fail = fail_at lineno in
      let hl = String.length header in
      if line = "" then ()
      else if String.starts_with ~prefix:header line then begin
        match int_of_string_opt (String.sub line hl (String.length line - hl)) with
        | Some v when v > Graph.max_ases ->
            fail
              (Printf.sprintf "AS count %d exceeds the largest supported %d" v
                 Graph.max_ases)
        | Some v when v >= 0 -> n := v
        | _ -> fail "expected a non-negative AS count after \"# n=\""
      end
      else if line.[0] = '#' then ()
      else
        match String.split_on_char '|' line with
        | a :: b :: rel :: _ -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some a, Some b ->
                if a < 0 || b < 0 then fail "negative AS id";
                if a = b then fail (Printf.sprintf "self loop at AS %d" a);
                if dense && max a b >= Graph.max_ases then
                  fail
                    (Printf.sprintf "AS %d exceeds the largest supported id %d"
                       (max a b) (Graph.max_ases - 1));
                let rel =
                  match String.trim rel with
                  | "-1" -> `Provider_of
                  | "0" -> `Peer
                  | r -> fail (Printf.sprintf "unknown relationship %S" r)
                in
                let code =
                  match rel with `Peer -> 0 | `Provider_of -> if a < b then 1 else 2
                in
                (match Hashtbl.find_opt seen (min a b, max a b) with
                | None -> Hashtbl.add seen (min a b, max a b) (code, lineno)
                | Some (c, first) ->
                    if c <> code then
                      fail
                        (Printf.sprintf
                           "conflicting relationships for pair (%d, %d) \
                            (first given on line %d)"
                           a b first));
                triples := (a, b, rel, lineno) :: !triples
            | _ -> fail "non-integer AS id")
        | _ -> fail "expected <a>|<b>|<rel>")
    (String.split_on_char '\n' s);
  let triples = List.rev !triples in
  if !n >= 0 then
    List.iter
      (fun (a, b, _, line) ->
        if max a b >= !n then
          fail_at line
            (Printf.sprintf "AS %d out of range for the header's n=%d"
               (max a b) !n))
      triples;
  (!n, triples)

let edges_of_triples triples =
  List.map
    (fun (a, b, rel, _) ->
      match rel with
      | `Provider_of -> Graph.Customer_provider (b, a)
      | `Peer -> Graph.Peer_peer (a, b))
    triples

let of_string s =
  let header_n, triples = parse ~dense:true s in
  let n =
    if header_n >= 0 then header_n
    else List.fold_left (fun acc (a, b, _, _) -> max acc (max a b + 1)) 0 triples
  in
  Graph.of_edges ~n (edges_of_triples triples)

let of_string_remapped s =
  let _, triples = parse ~dense:false s in
  let table = Hashtbl.create 1024 in
  let order = ref [] in
  let intern asn =
    match Hashtbl.find_opt table asn with
    | Some id -> id
    | None ->
        let id = Hashtbl.length table in
        Hashtbl.add table asn id;
        order := asn :: !order;
        id
  in
  let triples =
    List.map
      (fun (a, b, rel, line) ->
        (* Explicit lets: ids are assigned in reading order. *)
        let a' = intern a in
        let b' = intern b in
        (a', b', rel, line))
      triples
  in
  let asns = Array.of_list (List.rev !order) in
  (Graph.of_edges ~n:(Array.length asns) (edges_of_triples triples), asns)

let save path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      really_input_string ic len)

let load_remapped path = of_string_remapped (read_file path)

(* Binary snapshots.

   Layout (all multi-byte fields little-endian int64):

     offset 0    magic "SBGPSNAP"
     offset 8    format version
     offset 16   payload word size in bytes (8)
     offset 24   n (AS count)
     offset 32   adj length (total neighbor entries, 2 * edges)
     offset 40   customer-to-provider edge count
     offset 48   peer edge count
     offset 56   digest of the payload
     ...         zero padding
     offset 4096 payload: the CSR offsets xs (3n + 1 values) followed by
                 the neighbor array adj, each value one little-endian
                 64-bit word

   The payload is page-aligned and its words are exactly the in-memory
   representation of an int-kind Bigarray on a 64-bit little-endian
   platform, so {!load_snapshot} maps the file ({!Unix.map_file}) and
   hands the two slices to {!Graph.of_csr} with no decode pass — load
   time is the mmap plus the validation scans, independent of how long
   {!Topogen} took to grow the graph. *)

let snapshot_magic = "SBGPSNAP"
let snapshot_version = 1
let snapshot_payload_offset = 4096
let header_len = 64

let check_platform what =
  if Sys.int_size <> 63 then
    failwith (what ^ ": snapshots require a 64-bit platform");
  if Sys.big_endian then
    failwith (what ^ ": snapshots require a little-endian platform")

(* Mixing digest over the payload words (xs then adj), in wrap-around
   native-int arithmetic: any single flipped bit avalanches, which is
   all a corruption check needs (this is not a cryptographic MAC). *)
let digest_payload (xs : Graph.ints) (adj : Graph.ints) =
  let mix h v =
    let x = (h lxor v) * 0x2545F4914F6CDD1D in
    (x lxor (x lsr 29)) land max_int
  in
  let h = ref 0 in
  for i = 0 to Bigarray.Array1.dim xs - 1 do
    h := mix !h xs.{i}
  done;
  for i = 0 to Bigarray.Array1.dim adj - 1 do
    h := mix !h adj.{i}
  done;
  !h

let save_snapshot path g =
  check_platform "Serial.save_snapshot";
  let csr = Graph.csr g in
  let xs = csr.Graph.Csr.xs and adj = csr.Graph.Csr.adj in
  let xl = Bigarray.Array1.dim xs and al = Bigarray.Array1.dim adj in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let header = Bytes.make snapshot_payload_offset '\000' in
      Bytes.blit_string snapshot_magic 0 header 0 8;
      let put i v = Bytes.set_int64_le header i (Int64.of_int v) in
      put 8 snapshot_version;
      put 16 8;
      put 24 (Graph.n g);
      put 32 al;
      put 40 (Graph.num_customer_provider_edges g);
      put 48 (Graph.num_peer_edges g);
      put 56 (digest_payload xs adj);
      output_bytes oc header;
      let chunk_words = 4096 in
      let chunk = Bytes.create (8 * chunk_words) in
      let write_ints (a : Graph.ints) len =
        let i = ref 0 in
        while !i < len do
          let m = min chunk_words (len - !i) in
          for k = 0 to m - 1 do
            Bytes.set_int64_le chunk (8 * k) (Int64.of_int a.{!i + k})
          done;
          output oc chunk 0 (8 * m);
          i := !i + m
        done
      in
      write_ints xs xl;
      write_ints adj al);
  (* tmp + rename: a crashed writer leaves the old snapshot intact and
     never a half-written file under the final name. *)
  Sys.rename tmp path

let load_snapshot path =
  check_platform "Serial.load_snapshot";
  let fail msg =
    failwith (Printf.sprintf "Serial.load_snapshot: %s: %s" path msg)
  in
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.LargeFile.fstat fd).Unix.LargeFile.st_size in
      if size < Int64.of_int snapshot_payload_offset then
        fail "truncated header";
      let header = Bytes.create header_len in
      let rec read_all off =
        if off < header_len then begin
          let k = Unix.read fd header off (header_len - off) in
          if k = 0 then fail "truncated header";
          read_all (off + k)
        end
      in
      read_all 0;
      if Bytes.sub_string header 0 8 <> snapshot_magic then fail "bad magic";
      let get i = Int64.to_int (Bytes.get_int64_le header i) in
      let ver = get 8 in
      if ver <> snapshot_version then
        fail
          (Printf.sprintf "format version %d, this build reads version %d" ver
             snapshot_version);
      if get 16 <> 8 then fail "payload word size is not 8";
      let n = get 24 and al = get 32 in
      if n < 0 || al < 0 then fail "negative counts in header";
      let xl = (3 * n) + 1 in
      let expect =
        Int64.add
          (Int64.of_int snapshot_payload_offset)
          (Int64.of_int (8 * (xl + al)))
      in
      if size < expect then fail "truncated payload";
      if size > expect then fail "trailing bytes after payload";
      let map =
        Unix.map_file fd
          ~pos:(Int64.of_int snapshot_payload_offset)
          Bigarray.int Bigarray.c_layout false [| xl + al |]
      in
      let map = Bigarray.array1_of_genarray map in
      let xs = Bigarray.Array1.sub map 0 xl in
      let adj = Bigarray.Array1.sub map xl al in
      if digest_payload xs adj <> get 56 then fail "payload digest mismatch";
      (* of_csr re-derives the structural invariants (and the edge
         counts) from the payload itself; the header counts then have to
         agree, or header and payload were written by different hands. *)
      let g =
        try Graph.of_csr ~adj ~xs
        with Invalid_argument m -> fail ("invalid CSR payload: " ^ m)
      in
      if Graph.num_customer_provider_edges g <> get 40 then
        fail "customer-provider edge count disagrees with header";
      if Graph.num_peer_edges g <> get 48 then
        fail "peer edge count disagrees with header";
      g)
