type key = { k1 : int; k2 : int; k3 : int; k4 : int }

(* FNV-1a-style mix over the four components; monomorphic throughout —
   this module is in the hot-path lint scope (`dune build @lint`) because
   cache lookups sit on the incremental evaluator's per-pair path. *)
let hash_key { k1; k2; k3; k4 } =
  let h = ref 0xcbf29ce4 in
  let mix x = h := ((!h lxor x) * 0x01000193) land max_int in
  mix k1;
  mix k2;
  mix k3;
  mix k4;
  !h

let equal_key a b =
  a.k1 = b.k1 && a.k2 = b.k2 && a.k3 = b.k3 && a.k4 = b.k4

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal = equal_key
  let hash = hash_key
end)

type 'v shard = { mutex : Mutex.t; table : 'v Tbl.t }

type 'v t = {
  shards : 'v shard array;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let num_shards = 64

let create () =
  {
    shards =
      Array.init num_shards (fun _ ->
          { mutex = Mutex.create (); table = Tbl.create 256 });
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }


let shard_of t key = t.shards.(hash_key key mod Array.length t.shards)

let with_shard s f =
  Mutex.lock s.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) f

let find t key =
  let s = shard_of t key in
  let r = with_shard s (fun () -> Tbl.find_opt s.table key) in
  (match r with
  | Some _ -> Atomic.incr t.hits
  | None -> Atomic.incr t.misses);
  r

let store t key v =
  let s = shard_of t key in
  with_shard s (fun () -> Tbl.replace s.table key v)

let length t =
  Array.fold_left
    (fun acc s -> acc + with_shard s (fun () -> Tbl.length s.table))
    0 t.shards

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
