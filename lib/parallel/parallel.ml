let default_domains () =
  match Sys.getenv_opt "SBGP_DOMAINS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some v when v >= 1 -> v
      | _ -> invalid_arg "SBGP_DOMAINS must be a positive integer")
  | None -> Domain.recommended_domain_count ()

module Pool = struct
  (* A pool of long-lived worker domains.  Each [map] call installs one
     job — a steal loop over an atomic chunk index — bumps the generation
     and wakes the workers; the caller participates in the stealing, then
     waits for the stragglers.  Because every item writes its own slot of
     the result array, output order is independent of the execution
     interleaving. *)
  type t = {
    size : int; (* total domains working a job, including the caller *)
    mutex : Mutex.t;
    work : Condition.t; (* signalled when a new generation is posted *)
    finished : Condition.t; (* signalled when the last worker drains *)
    mutable job : (unit -> unit) option;
    mutable generation : int;
    mutable pending : int; (* workers still inside the current job *)
    mutable stop : bool;
    mutable busy : bool; (* a map call is in flight *)
    mutable handles : unit Domain.t list;
  }

  let rec worker_loop t seen =
    Mutex.lock t.mutex;
    while (not t.stop) && t.generation = seen do
      Condition.wait t.work t.mutex
    done;
    if t.stop then Mutex.unlock t.mutex
    else begin
      let gen = t.generation in
      let job = match t.job with Some j -> j | None -> assert false in
      Mutex.unlock t.mutex;
      (* The job catches its own exceptions; see [map]. *)
      job ();
      Mutex.lock t.mutex;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.finished;
      Mutex.unlock t.mutex;
      worker_loop t gen
    end

  let create ?domains () =
    let size =
      match domains with
      | Some d when d >= 1 -> d
      | Some _ -> invalid_arg "Pool.create: domains must be >= 1"
      | None -> default_domains ()
    in
    let t =
      {
        size;
        mutex = Mutex.create ();
        work = Condition.create ();
        finished = Condition.create ();
        job = None;
        generation = 0;
        pending = 0;
        stop = false;
        busy = false;
        handles = [];
      }
    in
    let handles =
      List.init (size - 1) (fun _ ->
          Domain.spawn (fun () -> worker_loop t 0))
    in
    Mutex.lock t.mutex;
    t.handles <- handles;
    Mutex.unlock t.mutex;
    t

  let size t = t.size

  let shutdown t =
    (* Swap the handle list out under the lock so a concurrent shutdown
       joins each domain exactly once; join outside it so workers can
       take the mutex on their way out. *)
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.work;
    let handles = t.handles in
    t.handles <- [];
    Mutex.unlock t.mutex;
    List.iter Domain.join handles

  let sequential_map f items = Array.map f items

  let map ?chunk t f items =
    let n = Array.length items in
    (* Validate before taking the lock: raising while holding it would
       leave every waiting worker stuck. *)
    let chunk =
      match chunk with
      | Some c when c >= 1 -> chunk
      | Some _ -> invalid_arg "Pool.map: chunk must be >= 1"
      | None -> None
    in
    if n <= 1 || t.size <= 1 then sequential_map f items
    else begin
      Mutex.lock t.mutex;
      if t.stop || t.busy then begin
        (* Shut down, re-entrant or concurrent use (e.g. a nested map
           inside a worker function): fall back to a plain sequential
           map rather than deadlock on the single job slot. *)
        Mutex.unlock t.mutex;
        sequential_map f items
      end
      else begin
        let results = Array.make n None in
        let error = Atomic.make None in
        let next = Atomic.make 0 in
        (* Chunked stealing: big enough to keep the atomic off the hot
           path, small enough to balance uneven per-item cost.  Callers
           with few, coarse items (the batched kernel's one-solve-per-
           word work items) override to steal singly. *)
        let chunk =
          match chunk with
          | Some c -> c
          | None -> max 1 (n / (t.size * 8))
        in
        let steal () =
          let continue = ref true in
          while !continue do
            let lo = Atomic.fetch_and_add next chunk in
            if lo >= n then continue := false
            else begin
              let hi = min n (lo + chunk) in
              try
                for i = lo to hi - 1 do
                  results.(i) <- Some (f items.(i))
                done
              with e ->
                ignore (Atomic.compare_and_set error None (Some e));
                (* Drain the index so every domain stops promptly. *)
                Atomic.set next n;
                continue := false
            end
          done
        in
        t.busy <- true;
        t.job <- Some steal;
        t.pending <- List.length t.handles;
        t.generation <- t.generation + 1;
        Condition.broadcast t.work;
        Mutex.unlock t.mutex;
        steal ();
        Mutex.lock t.mutex;
        while t.pending > 0 do
          Condition.wait t.finished t.mutex
        done;
        t.job <- None;
        t.busy <- false;
        Mutex.unlock t.mutex;
        match Atomic.get error with
        | Some e -> raise e
        | None ->
            Array.map (function Some r -> r | None -> assert false) results
      end
    end
end

let default = ref None
let default_mu = Mutex.create ()

let default_pool () =
  (* Serialized: concurrent first uses (a nested Parallel.map from a
     worker of a caller-owned pool) must not each spawn a pool and leak
     all but the last. *)
  Mutex.protect default_mu (fun () ->
      match !default with
      | Some p -> p
      | None ->
          let p = Pool.create () in
          default := Some p;
          at_exit (fun () -> Pool.shutdown p);
          p)

let map ?pool ?domains ?chunk f items =
  match pool with
  | Some p -> Pool.map ?chunk p f items
  | None -> (
      let domains =
        match domains with Some d -> d | None -> default_domains ()
      in
      if domains <= 1 || Array.length items <= 1 then Array.map f items
      else
        let dp = default_pool () in
        if Pool.size dp > 1 then Pool.map ?chunk dp f items
        else begin
          (* The caller explicitly asked for parallelism but the ambient
             pool is sequential (e.g. SBGP_DOMAINS=1 on this machine):
             honor the request with a transient pool. *)
          let p = Pool.create ~domains () in
          Fun.protect
            ~finally:(fun () -> Pool.shutdown p)
            (fun () -> Pool.map ?chunk p f items)
        end)
