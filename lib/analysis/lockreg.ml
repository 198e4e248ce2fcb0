(* Per-type field-guard inference for the lock-discipline rule (A7).

   A record type that declares a [Stdlib.Mutex.t] field is taken to
   guard its racy siblings with it: every [mutable] field, plus every
   field holding an inherently mutable container (Hashtbl — including
   local [Hashtbl.Make] instances —, Buffer, Queue, Stack, Bytes,
   array).  The registry maps the canonical record-type name collected
   by {!Unit_info} to the mutex field and the guarded-field set;
   {!Rules} then demands that any access to a guarded field happens
   either with "<rectype>.<mutex-field>" statically held or inside a
   configured lock bracket ([Shard_cache.with_shard]-style helpers).

   Convention inference, deliberately: a type with two mutexes, or one
   whose mutex guards only part of its state, needs an allowlist entry
   with the real invariant spelled out in the reason. *)

type info = { mutex_field : string; guarded : string list }
type t = { recs : (string, info) Hashtbl.t }

let container_heads =
  [
    "Stdlib.Hashtbl.t"; "Stdlib.Buffer.t"; "Stdlib.Queue.t";
    "Stdlib.Stack.t"; "Stdlib.Bytes.t"; "bytes"; "array";
  ]

let head_of ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (Syms.canon_string (Path.name p))
  | _ -> None

let is_container ~hashtbl_mods head =
  List.mem head container_heads
  ||
  (* A local functor instance's [t]: match the module part against the
     last component of any collected Hashtbl.Make instance name. *)
  let modpart, base = Unit_info.split_last head in
  base = "t"
  && List.exists
       (fun m -> snd (Unit_info.split_last m) = modpart)
       hashtbl_mods

let build units =
  let recs = Hashtbl.create 16 in
  List.iter
    (fun (u : Unit_info.t) ->
      List.iter
        (fun (name, (decl : Types.type_declaration)) ->
          match decl.type_kind with
          | Types.Type_record (lds, _) -> (
              let mutex =
                List.find_opt
                  (fun (ld : Types.label_declaration) ->
                    head_of ld.ld_type = Some "Stdlib.Mutex.t")
                  lds
              in
              match mutex with
              | None -> ()
              | Some mx ->
                  let guarded =
                    List.filter_map
                      (fun (ld : Types.label_declaration) ->
                        if Ident.same ld.ld_id mx.ld_id then None
                        else if
                          ld.ld_mutable = Asttypes.Mutable
                          ||
                          match head_of ld.ld_type with
                          | Some h ->
                              is_container
                                ~hashtbl_mods:u.Unit_info.hashtbl_mods h
                          | None -> false
                        then Some (Ident.name ld.ld_id)
                        else None)
                      lds
                  in
                  if guarded <> [] then
                    Hashtbl.replace recs name
                      { mutex_field = Ident.name mx.ld_id; guarded })
          | _ -> ())
        u.Unit_info.tydecls)
    units;
  { recs }

let guard t ~rectype ~field =
  match Hashtbl.find_opt t.recs rectype with
  | Some info when List.mem field info.guarded -> Some info.mutex_field
  | _ -> None
