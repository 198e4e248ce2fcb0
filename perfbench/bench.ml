(* Paper-scale benchmark of the reproduction; NOTES.md says why each
   workload exists and what each metric should move.

     bench.exe gen --seed S --dir DIR
       Generate seed S's n = 39 056 topology (and its IXP-augmented
       variant) once and save both as binary snapshots plus the CP list.
       Not measured: a user re-running figures on a saved topology does
       not pay it.

     bench.exe run --workload suite|sweep|replay --seed S --seconds T
                   --trace 0|1 --inputs DIR [--domains D]
                   [--expect-digest HEX] [--out DIR]
       Load DIR's snapshots, run the workload for about T seconds, gate
       its outputs, and print one JSON result as the last stdout line:
       the end-to-end metrics untraced, the per-layer metrics traced.

   Every pass times its units (one experiment, one h_metric call, one
   replay step) around the benchmark's own calls into the library's
   public functions; nothing inside the library is instrumented.  The
   traced run adds the per-layer probes: direct Batch.compute solves,
   topology cones, delta applies, a 1-domain sweep. *)

module C = Core
module Ctx = Core.Experiments.Context
module H = Core.Metric

let n = C.Topogen.calibration_n

(* Sizes: on a 2-vCPU x86 VM a pass of each workload takes 5 to 8 s of
   wall time (half of a replay pass is its untimed initial eval), so a
   25 s run times three to five passes.  At [suite_scale] 0.02 most of
   the suite's sample counts are at their floor of one, so halving it
   saves under 10 %. *)
let suite_scale = 0.02
let setup_reps = 11
let sweep_words = 3
let replay_words = 10
let replay_steps = 12
let replay_flaps = 3
let max_passes = 50
let ixp_ids = [ "baseline"; "partitions"; "partitions-tier"; "lpk" ]

(* Environment variables that select a code path inside the library; a
   measurement taken with one of them set would not be comparable. *)
let refused_env = [ "SBGP_BATCH"; "SBGP_CHECK"; "SBGP_DOMAINS" ]

exception Bad_input of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_input s)) fmt
let now = Unix.gettimeofday

(* Every time the benchmark reports is in reference seconds.  On a
   shared 2-vCPU x86 VM, other tenants of the host slow a vCPU by up to
   half for tens of seconds at a time: the same Batch.compute word took
   0.12 s in one minute and 0.20 s in the next, on the same vCPU, with
   no GC in either.  So [time] brackets each call with two fixed
   reference kernels that share no code with the library: a sort of a
   fixed array, which the core's load slows, and a pointer chase through
   an off-heap table far larger than the core's caches, which the
   memory system's load slows.  It scales the call's wall time by
   (sort_s / sort reading) * sqrt (chase_s / chase reading), the kernels'
   times on that VM when the host is quiet.  Fitted over about 350
   experiment times from six suite runs, a call's slowdown went with the
   sort's to the power 0.8 and with the chase's to the power 0.45,
   rounded here to 1 and 0.5.  Over two sets of suite runs, the sort
   alone left a coefficient of variation across runs of 7.1 and 5.6 %,
   both kernels 5.7 and 4.1 %.  NOTES.md has the details. *)
let sort_s = 0.009
let chase_s = 0.008
let sort_src = Array.init 4096 (fun i -> i * 2654435761 land 0xFFFFF)
let sort_buf = Array.make 4096 0
let chase_len = 1 lsl 22
let chase_steps = 50_000

let sort_kernel buf =
  let t0 = now () in
  for _ = 1 to 10 do
    Array.blit sort_src 0 buf 0 4096;
    Array.sort Int.compare buf
  done;
  now () -. t0

(* One cycle through all [chase_len] slots (Sattolo's shuffle of a fixed
   LCG stream): every step is a dependent load from a new cache line.
   Forced once in [run], before any domain reads it. *)
let chase_table =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout chase_len in
     for i = 0 to chase_len - 1 do
       a.{i} <- i
     done;
     let st = ref 12345 in
     for i = chase_len - 1 downto 1 do
       st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
       let j = !st mod i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

(* The main domain's place in the cycle: each chase goes on from where
   the last one stopped, so it does not find its lines still cached. *)
let chase_pos = ref 0

let chase_kernel start =
  let a = Lazy.force chase_table in
  let t0 = now () in
  let p = ref start in
  for _ = 1 to chase_steps do
    p := Bigarray.Array1.unsafe_get a !p
  done;
  (now () -. t0, !p)

(* Both kernels on [domains] domains at once, averaged: a call that runs
   on every vCPU is slowed by the load on each of them. *)
let reference_on domains =
  let start = !chase_pos in
  let kernels buf pos =
    let s = sort_kernel buf in
    let c, p = chase_kernel pos in
    (s, c, p)
  in
  let others =
    List.init (domains - 1) (fun d ->
        let pos = (start + ((d + 1) * (chase_len / domains))) mod chase_len in
        Domain.spawn (fun () -> kernels (Array.make 4096 0) pos))
  in
  let s, c, p = kernels sort_buf start in
  chase_pos := p;
  let s, c =
    List.fold_left
      (fun (s, c) d ->
        let s', c', _ = Domain.join d in
        (s +. s', c +. c'))
      (s, c) others
  in
  let k = float_of_int domains in
  (s /. k, c /. k)

let time ?(domains = 1) f =
  let s0, c0 = reference_on domains in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  let s1, c1 = reference_on domains in
  (r, dt *. (2. *. sort_s /. (s0 +. s1)) *. sqrt (2. *. chase_s /. (c0 +. c1)))

let median xs = C.Stats.quantile (Array.of_list xs) 0.5
let sum = List.fold_left ( +. ) 0.

(* ---------- strict argument parsing ---------- *)

let parse_flags ~allowed args =
  let rec go acc = function
    | [] -> acc
    | key :: rest ->
        let name =
          if String.length key > 2 && String.sub key 0 2 = "--" then
            String.sub key 2 (String.length key - 2)
          else bad "unexpected argument %S" key
        in
        if not (List.mem name allowed) then bad "unknown option --%s" name;
        if List.mem_assoc name acc then bad "--%s given twice" name;
        (match rest with
        | v :: rest -> go ((name, v) :: acc) rest
        | [] -> bad "--%s: missing value" name)
  in
  go [] args

let required flags name =
  match List.assoc_opt name flags with
  | Some v -> v
  | None -> bad "--%s is required" name

let nat name s =
  if
    s = "" || String.length s > 15
    || not (String.for_all (fun c -> c >= '0' && c <= '9') s)
  then bad "--%s: expected a non-negative integer, got %S" name s;
  int_of_string s

(* ---------- inputs: generation and snapshots ---------- *)

let base_file dir = Filename.concat dir "base.snap"
let ixp_file dir = Filename.concat dir "ixp.snap"
let cps_file dir = Filename.concat dir "cps.txt"

(* The same graphs [Context.make ~n ~seed] and [~ixp:true] build. *)
let gen ~seed ~dir =
  let r =
    C.Topogen.generate ~params:(C.Topogen.default_params ~n) (C.Rng.create seed)
  in
  let ixp, _ = C.Ixp.augment (C.Rng.create (seed + 1)) r.C.Topogen.graph in
  C.Serial.save_snapshot (base_file dir) r.C.Topogen.graph;
  C.Serial.save_snapshot (ixp_file dir) ixp;
  let oc = open_out (cps_file dir) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (String.concat " "
           (Array.to_list (Array.map string_of_int r.C.Topogen.cps)));
      output_char oc '\n')

let read_cps dir =
  let ic = open_in (cps_file dir) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  String.split_on_char ' ' (String.trim line)
  |> List.map (fun s ->
         match int_of_string_opt s with
         | Some v when v >= 0 && v < n -> v
         | _ -> failwith (Printf.sprintf "%s: bad CP id %S" (cps_file dir) s))
  |> Array.of_list

(* ---------- failures and metrics ---------- *)

let attempted = ref 0
let failures = ref []

let fail msg = failures := msg :: !failures

(* One operation of the workload; an exception counts as a failure. *)
let attempt name f =
  incr attempted;
  match f () with
  | v -> Some v
  | exception e ->
      fail (Printf.sprintf "%s raised %s" name (Printexc.to_string e));
      None

(* An untimed identity gate. *)
let gate name check =
  match attempt name check with
  | Some false -> fail (name ^ ": outputs differ")
  | Some true | None -> ()

let metrics : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace metrics name v

let end_to_end =
  [ ("setup_s", "s"); ("run_s", "s"); ("pairs_per_s", "1/s"); ("peak_rss_mb", "MB") ]

let per_layer () =
  [ ("experiments.context_s", "s") ]
  @ List.map (fun id -> ("experiments." ^ id ^ "_s", "s")) (C.Experiments.Registry.ids ())
  @ List.map (fun id -> ("experiments.ixp." ^ id ^ "_s", "s")) ixp_ids
  @ [
      ("metric.cache.hits", "count");
      ("metric.cache.misses", "count");
      ("metric.cache.hit_ratio", "ratio");
      ("metric.cache.entries", "count");
      ("routing.batch.solves", "count");
      ("routing.batch.lanes_per_solve", "count");
      ("routing.batch.busy_s", "s");
      ("routing.batch.solve_ms.p50", "ms");
      ("routing.batch.solve_ms.tail", "ms");
      ("routing.batch.solve_ms.tail_pct", "%");
      ("routing.batch.solve_ms.samples", "count");
      ("metric.h_metric.self_s", "s");
      ("parallel.speedup", "x");
      ("parallel.efficiency", "ratio");
      ("metric.replay.lanes_solved", "count");
      ("metric.replay.lanes_carried", "count");
      ("metric.replay.carry_ratio", "ratio");
      ("metric.replay.step_ms.p50", "ms");
      ("metric.replay.step_ms.tail", "ms");
      ("metric.replay.step_ms.tail_pct", "%");
      ("metric.replay.step_ms.samples", "count");
      ("routing.incremental.topo.cone_ms", "ms");
      ("routing.incremental.topo.cone_card", "count");
      ("topology.delta_apply_ms", "ms");
      ("topology.load_s", "s");
      ("gc.minor_words", "words");
      ("gc.promoted_words", "words");
      ("gc.major_collections", "count");
      ("trace_overhead_frac", "ratio");
    ]

(* Median and tail of a latency sample, in ms.  The tail is the highest
   percentile with at least ten samples beyond it (nearest rank), so it
   is only reported with the percentile and the sample count. *)
let set_latency prefix secs =
  let ms = Array.of_list (List.map (fun s -> s *. 1000.) secs) in
  Array.sort Float.compare ms;
  let k = Array.length ms in
  if k > 0 then begin
    set (prefix ^ ".p50") (C.Stats.quantile ms 0.5);
    set (prefix ^ ".samples") (float_of_int k);
    if k > 10 then begin
      set (prefix ^ ".tail") ms.(k - 11);
      set (prefix ^ ".tail_pct") (100. *. float_of_int (k - 10) /. float_of_int k)
    end
  end

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> failwith "/proc/self/status has no VmHWM"
      in
      find ())

(* Run [pass] at least once, and again while another pass as long as
   the last one still ends within [seconds] of the start.  A pass
   returns the durations of its timed units (experiments, configurations
   or steps), the same units in the same order every pass.  Each pass
   starts from a collected heap, so no pass pays for an earlier pass's
   garbage.  With [gc], the Gc counters of a mean pass are recorded;
   they are per domain, so only 1-domain passes ask for them. *)
let repeat ?(gc = false) ~label ~seconds pass =
  let t_end = now () +. float_of_int seconds in
  let minor = ref 0. and promoted = ref 0. and majors = ref 0 in
  let rec go acc k =
    Gc.full_major ();
    let t0 = now () in
    let s0 = Gc.quick_stat () in
    let p = pass () in
    let s1 = Gc.quick_stat () in
    minor := !minor +. (s1.Gc.minor_words -. s0.Gc.minor_words);
    promoted := !promoted +. (s1.Gc.promoted_words -. s0.Gc.promoted_words);
    majors := !majors + (s1.Gc.major_collections - s0.Gc.major_collections);
    let acc = p :: acc in
    let t1 = now () in
    if t1 +. (t1 -. t0) > t_end || k >= max_passes then List.rev acc
    else go acc (k + 1)
  in
  let passes = go [] 1 in
  let k = float_of_int (List.length passes) in
  if gc then begin
    set "gc.minor_words" (!minor /. k);
    set "gc.promoted_words" (!promoted /. k);
    set "gc.major_collections" (float_of_int !majors /. k)
  end;
  Printf.printf "%s passes (s): %s\n%!" label
    (String.concat " "
       (List.map (fun p -> Printf.sprintf "%.3f" (Array.fold_left ( +. ) 0. p)) passes));
  passes

(* A unit's median time across passes.  The fastest pass would shed more
   of the drift the reference kernels leave, but the fastest of k passes
   falls as k grows, and on a busy host a run times fewer passes: a
   suite run of two passes read 4.9 s where one of seven read 4.2 s. *)
let unit_time passes i = median (List.map (fun p -> p.(i)) passes)

let robust_total passes =
  sum (List.init (Array.length (List.hd passes)) (unit_time passes))

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let bounds_equal (a : H.bounds) (b : H.bounds) =
  bits_equal a.H.lb b.H.lb && bits_equal a.H.ub b.H.ub

(* ---------- set-up ---------- *)

(* Snapshot load plus [Context.of_graph], [setup_reps] times, each from
   a collected heap, reported as the median round.  The workload uses the
   last round's contexts; the others are dropped. *)
let setup ~seed ~cps graphs =
  let round () =
    Gc.full_major ();
    let loaded, load_s =
      time (fun () ->
          List.map (fun (label, path) -> (label, C.Serial.load_snapshot path)) graphs)
    in
    let ctxs, ctx_s =
      time (fun () ->
          List.map
            (fun (label, g) ->
              Ctx.of_graph ~seed ~scale:suite_scale ~domains:1 ~label g ~cps)
            loaded)
    in
    (ctxs, [| load_s +. ctx_s; load_s; ctx_s |])
  in
  let times = ref [] in
  let rec go k =
    let ctxs, t = round () in
    times := t :: !times;
    if k = setup_reps then ctxs else go (k + 1)
  in
  let ctxs = go 1 in
  let round_median i = median (List.map (fun t -> t.(i)) !times) in
  set "setup_s" (round_median 0);
  set "topology.load_s" (round_median 1);
  set "experiments.context_s" (round_median 2);
  ctxs

let fresh ~domains (c : Ctx.t) =
  Ctx.of_graph ~seed:c.Ctx.seed ~scale:c.Ctx.scale ~domains ~label:c.Ctx.label
    c.Ctx.graph ~cps:c.Ctx.cps

(* Destination words: [k] seeded destinations, each with one full word
   of distinct non-stub attackers. *)
let words rng (c : Ctx.t) k =
  let dsts = C.Rng.sample_without_replacement rng k n in
  Array.map
    (fun dst ->
      let pool =
        Array.of_list
          (List.filter (fun v -> v <> dst) (Array.to_list c.Ctx.non_stubs))
      in
      let att =
        Array.map
          (fun i -> pool.(i))
          (C.Rng.sample_without_replacement rng C.Batch.max_lanes
             (Array.length pool))
      in
      Array.sort Int.compare att;
      (dst, att))
    dsts

let pairs_of words =
  Array.concat
    (Array.to_list
       (Array.map
          (fun (dst, att) -> Array.map (fun a -> { H.attacker = a; dst }) att)
          words))

(* Time each (graph, policy, deployment, words) job's words directly
   through [Batch.compute] and return the total. *)
let direct_solves jobs =
  let ws = C.Batch.Workspace.create n in
  let times =
    List.concat_map
      (fun (g, policy, dep, words) ->
        Array.to_list
          (Array.map
             (fun (dst, attackers) ->
               snd
                 (time (fun () ->
                      ignore (C.Batch.compute ~ws g policy dep ~dst ~attackers))))
             words))
      jobs
  in
  let words = List.concat_map (fun (_, _, _, w) -> Array.to_list w) jobs in
  set "routing.batch.solves" (float_of_int (List.length times));
  set "routing.batch.lanes_per_solve"
    (float_of_int (List.fold_left (fun a (_, att) -> a + Array.length att) 0 words)
    /. float_of_int (List.length words));
  set "routing.batch.busy_s" (sum times);
  set_latency "routing.batch.solve_ms" times;
  sum times

(* ---------- suite ---------- *)

let entry id =
  match C.Experiments.Registry.find id with
  | Some e -> e
  | None -> failwith ("unknown experiment " ^ id)

(* Every Registry experiment on the base context, then the App. J subset
   on the IXP context; returns (key, output, seconds) in run order. *)
let suite_outputs base ixp =
  let run key ctx (e : C.Experiments.Registry.entry) =
    let out, dt =
      time (fun () -> attempt key (fun () -> e.C.Experiments.Registry.run ctx))
    in
    (key, Option.value out ~default:"FAILED\n", dt)
  in
  List.map (fun (e : C.Experiments.Registry.entry) -> run e.id base e)
    C.Experiments.Registry.all
  @ List.map (fun id -> run ("ixp." ^ id) ixp (entry id)) ixp_ids

let digest outputs =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun (k, o, _) -> k ^ "\n" ^ o ^ "\n") outputs)))

let cache_counts ctxs =
  List.fold_left
    (fun (h, m, e) c ->
      let cache = Ctx.cache c in
      (h + H.Cache.hits cache, m + H.Cache.misses cache, e + H.Cache.length cache))
    (0, 0, 0) ctxs

let write_outputs dir outputs =
  let mkdir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755 in
  mkdir dir;
  List.iter
    (fun (key, out, _) ->
      let sub, id =
        match String.index_opt key '.' with
        | Some i -> ("ixp", String.sub key (i + 1) (String.length key - i - 1))
        | None -> ("base", key)
      in
      mkdir (Filename.concat dir sub);
      let oc = open_out_bin (Filename.concat (Filename.concat dir sub) (id ^ ".txt")) in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc out))
    outputs

(* ---------- workloads ---------- *)

(* Each workload runs an untimed warm-up pass, times its passes for
   [seconds] and sets the end-to-end metrics; with [trace] it times them
   again beside the per-layer probes and sets the per-layer metrics.
   Gates are never timed. *)

let suite ~seconds ~trace ~domains ~expect ~out_dir ctxs =
  let base, ixp =
    match ctxs with [ b; i ] -> (b, i) | _ -> invalid_arg "suite: two graphs"
  in
  let digests = ref [] and outputs = ref [] and counts = ref (0, 0, 0) in
  let wide () =
    let b = fresh ~domains base and i = fresh ~domains ixp in
    let outs = suite_outputs b i in
    if domains > 1 then
      List.iter (fun c -> C.Parallel.Pool.shutdown (Ctx.pool c)) [ b; i ];
    (digest outs, sum (List.map (fun (_, _, dt) -> dt) outs))
  in
  let pass () =
    let b = fresh ~domains:1 base and i = fresh ~domains:1 ixp in
    let outs = suite_outputs b i in
    digests := digest outs :: !digests;
    if !outputs = [] then outputs := outs;
    (* Keep the counts, not the contexts: a pass's caches would otherwise
       stay live through the next pass and double the heap it marks. *)
    counts := cache_counts [ b; i ];
    Array.of_list (List.map (fun (_, _, dt) -> dt) outs)
  in
  (* The [domains]-wide run of the digest gate doubles as the warm-up. *)
  let wide_digest, _ = wide () in
  let run_s =
    robust_total (repeat ~gc:true ~label:"suite" ~seconds pass)
  in
  let hits, misses, entries = !counts in
  set "run_s" run_s;
  (* Every (attacker, destination) result the experiments asked the
     metric cache for, hit or miss. *)
  set "pairs_per_s" (float_of_int (hits + misses) /. run_s);
  set "peak_rss_mb" (peak_rss_mb ());
  set "metric.cache.hits" (float_of_int hits);
  set "metric.cache.misses" (float_of_int misses);
  set "metric.cache.entries" (float_of_int entries);
  set "metric.cache.hit_ratio" (C.Stats.fraction hits (hits + misses));
  if trace then begin
    let traced = repeat ~label:"traced suite" ~seconds pass in
    set "trace_overhead_frac" ((robust_total traced /. run_s) -. 1.);
    List.iteri
      (fun i (key, _, _) ->
        set ("experiments." ^ key ^ "_s") (unit_time traced i))
      !outputs;
    let _, wide_s = wide () in
    set "parallel.speedup" (run_s /. wide_s);
    set "parallel.efficiency" (run_s /. wide_s /. float_of_int domains)
  end;
  let d1 = digest !outputs in
  gate "suite digest equal across passes" (fun () ->
      List.for_all (String.equal d1) !digests);
  gate
    (Printf.sprintf "suite digest at %d domains equals the 1-domain digest" domains)
    (fun () -> String.equal wide_digest d1);
  Option.iter
    (fun want ->
      gate "suite digest recorded for this seed" (fun () -> String.equal want d1))
    expect;
  Option.iter (fun dir -> write_outputs dir !outputs) out_dir;
  Printf.printf "suite digest %s\n" d1

(* The three security models and LP-2 (under security 3rd), each against
   the empty, T1+T2 (13/100) and non-stub deployments; every
   configuration gets its own [sweep_words] destination words, so a pass
   averages over [12 * sweep_words] destinations. *)
let sweep_configs rng (c : Ctx.t) =
  let deps =
    [
      ("empty", C.Deployment.empty n);
      ("t1t2", C.Deployment.tier1_tier2 c.Ctx.graph c.Ctx.tiers ~n_t1:13 ~n_t2:100);
      ("nonstubs", C.Deployment.non_stubs c.Ctx.graph c.Ctx.tiers);
    ]
  in
  let policies =
    List.map (fun m -> C.Policy.make m) C.Policy.all_models
    @ [ C.Policy.make ~lp:(C.Policy.Lp_k 2) C.Policy.Security_third ]
  in
  let all = words rng c (sweep_words * List.length policies * List.length deps) in
  List.concat_map (fun policy -> List.map (fun d -> (policy, d)) deps) policies
  |> List.mapi (fun i (policy, (dname, dep)) ->
         ( C.Policy.name policy ^ "/" ^ dname,
           policy,
           dep,
           Array.sub all (i * sweep_words) sweep_words ))

let sweep ~seed ~seconds ~trace ~domains ctxs =
  let c = List.hd ctxs in
  let g = c.Ctx.graph in
  let configs = sweep_configs (C.Rng.create (seed + 101)) c in
  let pool = C.Parallel.Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> C.Parallel.Pool.shutdown pool) @@ fun () ->
  let results = ref [] in
  let pass pool () =
    let on = if Option.is_none pool then 1 else domains in
    let timed =
      List.map
        (fun (name, policy, dep, ws) ->
          time ~domains:on (fun () ->
              attempt name (fun () ->
                  H.h_metric ?pool ~domains:1 g policy dep (pairs_of ws))))
        configs
    in
    results := List.map fst timed :: !results;
    Array.of_list (List.map snd timed)
  in
  let pairs =
    List.fold_left (fun a (_, _, _, ws) -> a + Array.length (pairs_of ws)) 0 configs
  in
  ignore (pass (Some pool) ());
  let run_s = robust_total (repeat ~label:"sweep" ~seconds (pass (Some pool))) in
  set "run_s" run_s;
  set "pairs_per_s" (float_of_int pairs /. run_s);
  set "peak_rss_mb" (peak_rss_mb ());
  if trace then begin
    let traced = repeat ~label:"traced sweep" ~seconds (pass (Some pool)) in
    set "trace_overhead_frac" ((robust_total traced /. run_s) -. 1.);
    let one =
      robust_total (repeat ~gc:true ~label:"1-domain sweep" ~seconds:0 (pass None))
    in
    set "parallel.speedup" (one /. run_s);
    set "parallel.efficiency" (one /. run_s /. float_of_int domains);
    let busy =
      direct_solves (List.map (fun (_, policy, dep, ws) -> (g, policy, dep, ws)) configs)
    in
    set "metric.h_metric.self_s" (one -. busy)
  end;
  let first = List.hd (List.rev !results) in
  gate "sweep bounds equal across passes and domain counts" (fun () ->
      List.for_all
        (List.for_all2
           (fun a b ->
             match (a, b) with
             | Some a, Some b -> bounds_equal a b
             | _ -> false)
           first)
        !results);
  (* The batch kernel against Routing.Reference on one seeded word of one
     seeded configuration: every lane, both tiebreaks. *)
  let rng = C.Rng.create (seed + 202) in
  let _, policy, dep, ws = List.nth configs (C.Rng.int rng (List.length configs)) in
  let word = ws.(C.Rng.int rng (Array.length ws)) in
  gate "batch kernel vs reference" (fun () ->
      let _, diags = C.Check.Kernel.analyze_batch g [ policy ] dep [| word |] in
      not
        (List.exists
           (fun d -> d.C.Check.Diagnostic.severity = C.Check.Diagnostic.Error)
           diags))

(* The churn model of bench/main.ml's topology part: stub-stub peer
   flaps (added when the pair is not adjacent, removed when it peers)
   plus, every other step, one flap incident to a destination.  Ops
   touch distinct pairs, as Delta requires. *)
let churn rng ~stubs ~dsts step g =
  let used = Hashtbl.create 8 in
  let ops = ref [] in
  let flap a b =
    let a, b = (min a b, max a b) in
    if a <> b && not (Hashtbl.mem used (a, b)) then
      match C.Graph.relationship g a b with
      | None ->
          Hashtbl.replace used (a, b) ();
          ops := C.Graph.Delta.Add (C.Graph.Peer_peer (a, b)) :: !ops
      | Some (C.Graph.Peer_peer _ as e) ->
          Hashtbl.replace used (a, b) ();
          ops := C.Graph.Delta.Remove e :: !ops
      | Some (C.Graph.Customer_provider _) -> ()
  in
  let pick () = stubs.(C.Rng.int rng (Array.length stubs)) in
  if step mod 2 = 0 then flap dsts.(step / 2 mod Array.length dsts) (pick ());
  let target = List.length !ops + replay_flaps in
  while List.length !ops < target do
    flap (pick ()) (pick ())
  done;
  Array.of_list (List.rev !ops)

let replay ~seed ~seconds ~trace ctxs =
  let c = List.hd ctxs in
  let g = c.Ctx.graph in
  let dep = C.Deployment.tier1_tier2 g c.Ctx.tiers ~n_t1:13 ~n_t2:100 in
  let policy = Ctx.sec3 in
  let ws = words (C.Rng.create (seed + 303)) c replay_words in
  let pairs = pairs_of ws in
  let dsts = Array.map fst ws in
  let stubs = Array.of_seq (Seq.filter (C.Graph.is_stub g) (Seq.init n Fun.id)) in
  let gated = [ 1 + (seed mod replay_steps); replay_steps ] in
  let first = ref true in
  let cone_ms = ref [] and cone_card = ref [] and apply_ms = ref [] in
  let lanes = ref (0, 0) and probed = ref [ g ] in
  let pass ~probe () =
    let rng = C.Rng.create (seed + 404) in
    let rp = H.Replay.create g policy dep pairs in
    ignore (H.Replay.eval rp);
    let s0 = H.Replay.stats rp in
    if probe then probed := [ g ];
    let steps = Array.make replay_steps 0. in
    for step = 1 to replay_steps do
      let before = H.Replay.graph rp in
      let delta = churn rng ~stubs ~dsts step before in
      if probe then begin
        let cone, dt = time (fun () -> C.Incremental.Topo.cone before delta) in
        cone_ms := (dt *. 1000.) :: !cone_ms;
        cone_card := float_of_int (C.Incremental.Topo.cone_card cone) :: !cone_card;
        let _, dt = time (fun () -> C.Graph.Delta.apply before delta) in
        apply_ms := (dt *. 1000.) :: !apply_ms
      end;
      let _, dt =
        time (fun () ->
            attempt (Printf.sprintf "replay step %d" step) (fun () ->
                H.Replay.step rp delta))
      in
      steps.(step - 1) <- dt;
      if probe && step mod 3 = 0 then probed := H.Replay.graph rp :: !probed;
      if !first && List.mem step gated then
        gate (Printf.sprintf "replay step %d vs fresh eval" step) (fun () ->
            (* Collect first, so the second replay's heap growth does not
               depend on where the major cycle happens to stand. *)
            Gc.full_major ();
            let fresh = H.Replay.create (H.Replay.graph rp) policy dep pairs in
            ignore (H.Replay.eval fresh);
            Array.for_all2 bounds_equal (H.Replay.values rp) (H.Replay.values fresh))
    done;
    first := false;
    let s1 = H.Replay.stats rp in
    lanes :=
      ( s1.H.Replay.lanes_solved - s0.H.Replay.lanes_solved,
        s1.H.Replay.lanes_carried - s0.H.Replay.lanes_carried );
    steps
  in
  (* The first pass runs the gates and doubles as the warm-up. *)
  ignore (pass ~probe:false ());
  let run_s =
    robust_total
      (repeat ~gc:true ~label:"replay" ~seconds (pass ~probe:false))
  in
  set "run_s" run_s;
  set "pairs_per_s" (float_of_int (replay_steps * Array.length pairs) /. run_s);
  set "peak_rss_mb" (peak_rss_mb ());
  if trace then begin
    let traced = repeat ~label:"traced replay" ~seconds (pass ~probe:true) in
    set "trace_overhead_frac" ((robust_total traced /. run_s) -. 1.);
    set_latency "metric.replay.step_ms" (List.concat_map Array.to_list traced);
    let solved, carried = !lanes in
    set "metric.replay.lanes_solved" (float_of_int solved);
    set "metric.replay.lanes_carried" (float_of_int carried);
    set "metric.replay.carry_ratio" (C.Stats.fraction carried (solved + carried));
    set "routing.incremental.topo.cone_ms" (median !cone_ms);
    set "routing.incremental.topo.cone_card" (median !cone_card);
    set "topology.delta_apply_ms" (median !apply_ms);
    (* The replay's words, solved directly on its first graph and on the
       graph after every third step of the last probed pass. *)
    ignore (direct_solves (List.map (fun g -> (g, policy, dep, ws)) !probed))
  end

(* ---------- output ---------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~trace =
  let table = if trace then per_layer () else end_to_end in
  List.iter
    (fun (name, unit) ->
      let v = Option.value (Hashtbl.find_opt metrics name) ~default:0. in
      Printf.printf "  %-40s %16.6f %s\n" name v unit)
    table;
  let failed = List.length !failures in
  List.iter (fun m -> Printf.printf "FAILED %s\n" m) (List.rev !failures);
  Printf.printf "failed_frac %.6f (%d of %d operations)\n"
    (float_of_int failed /. float_of_int (max 1 !attempted))
    failed !attempted;
  let metric (name, unit) =
    let v = Option.value (Hashtbl.find_opt metrics name) ~default:0. in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) (max 1 !attempted) failed
    (String.concat ", " (List.map metric table))

(* ---------- entry ---------- *)

let run args =
  let flags =
    parse_flags
      ~allowed:
        [ "workload"; "seed"; "seconds"; "trace"; "inputs"; "domains";
          "expect-digest"; "out" ]
      args
  in
  let workload = required flags "workload" in
  if not (List.mem workload [ "suite"; "sweep"; "replay" ]) then
    bad "--workload: unknown workload %S (expected suite, sweep or replay)"
      workload;
  let seed = nat "seed" (required flags "seed") in
  let seconds = nat "seconds" (required flags "seconds") in
  if seconds < 1 || seconds > 600 then
    bad "--seconds: %d is outside 1..600" seconds;
  let trace =
    match required flags "trace" with
    | "0" -> false
    | "1" -> true
    | s -> bad "--trace: expected 0 or 1, got %S" s
  in
  let inputs = required flags "inputs" in
  let nproc = Domain.recommended_domain_count () in
  let domains =
    match List.assoc_opt "domains" flags with
    | None -> nproc
    | Some s ->
        let d = nat "domains" s in
        if d < 1 || d > nproc then
          bad "--domains: %d is outside 1..%d (the online cores)" d nproc;
        d
  in
  let expect =
    Option.map
      (fun s ->
        if
          String.length s <> 32
          || not (String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) s)
        then bad "--expect-digest: expected 32 lowercase hex digits, got %S" s;
        s)
      (List.assoc_opt "expect-digest" flags)
  in
  let out_dir = List.assoc_opt "out" flags in
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then
        bad "%s is set; unset it, it selects a code path inside the library" v)
    refused_env;
  ignore (Lazy.force chase_table);
  let cps = read_cps inputs in
  let graphs =
    ("base", base_file inputs)
    :: (if workload = "suite" then [ ("ixp", ixp_file inputs) ] else [])
  in
  let ctxs = setup ~seed ~cps graphs in
  Printf.printf "perfbench %s seed=%d n=%d domains=%d/%d trace=%b\n%!" workload
    seed n domains nproc trace;
  (match workload with
  | "suite" -> suite ~seconds ~trace ~domains ~expect ~out_dir ctxs
  | "sweep" -> sweep ~seed ~seconds ~trace ~domains ctxs
  | _ -> replay ~seed ~seconds ~trace ctxs);
  print_result ~trace



let () =
  match Array.to_list Sys.argv with
  | _ :: "gen" :: args -> (
      match parse_flags ~allowed:[ "seed"; "dir" ] args with
      | flags -> gen ~seed:(nat "seed" (required flags "seed")) ~dir:(required flags "dir")
      | exception Bad_input msg ->
          prerr_endline ("perfbench: " ^ msg);
          exit 2)
  | _ :: "run" :: args -> (
      try run args
      with Bad_input msg ->
        prerr_endline ("perfbench: " ^ msg);
        exit 2)
  | _ ->
      prerr_endline "usage: bench.exe (gen|run) --option value ...";
      exit 2
