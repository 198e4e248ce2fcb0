(* A8 seed: an epoch-stamped workspace allocated outside the parallel
   closure and captured by it — domains would share scratch state and
   cross-stamp each other's epochs.  The ok_ variant fetches the
   domain-local workspace inside the closure via DLS. *)

let racy_shared n items =
  let ws = Routing.Batch.Workspace.create n in
  Parallel.map
    (fun x ->
      ignore ws;
      x)
    items

let ok_local items =
  Parallel.map
    (fun x ->
      let ws = Routing.Batch.Workspace.local () in
      ignore ws;
      x)
    items
