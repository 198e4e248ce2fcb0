module D = Diagnostic
module O = Routing.Outcome
module E = Routing.Engine
module B = Routing.Batch

type config = { domains : int; reuse_ws : bool }

let baseline = { domains = 1; reuse_ws = false }

let pp_config c =
  Printf.sprintf "{domains=%d; ws=%s}" c.domains
    (if c.reuse_ws then "reuse" else "fresh")

let same_config a b = a.domains = b.domains && a.reuse_ws = b.reuse_ws

let default_configs () =
  let w = max 2 (min 4 (Parallel.default_domains ())) in
  [
    baseline;
    { domains = 1; reuse_ws = true };
    { domains = w; reuse_ws = false };
    { domains = w; reuse_ws = true };
  ]

(* 3 for the roots, which carry no neighbor route class. *)
let class_code out v =
  if not (O.reached out v) then -1
  else if v = O.dst out || Some v = O.attacker out then 3
  else
    match O.route_class out v with
    | Routing.Policy.Customer -> 0
    | Routing.Policy.Peer -> 1
    | Routing.Policy.Provider -> 2

(* Fingerprint of a stable state: folds every AS's reached / class /
   length / secure / to-d / to-m / next-hop fields, so two outcomes
   digest equal iff (modulo hash collision) they are field-identical. *)
let digest out =
  let h = ref 0x1000193 in
  let mix x = h := (((!h * 0x100000001b3) lxor x) + 0x2545f49) land max_int in
  let n = O.n out in
  mix n;
  mix (O.dst out);
  (match O.attacker out with None -> mix (-2) | Some m -> mix m);
  for v = 0 to n - 1 do
    mix (Bool.to_int (O.reached out v));
    mix (class_code out v);
    mix (O.length out v);
    mix (Bool.to_int (O.secure out v));
    mix (Bool.to_int (O.to_d out v));
    mix (Bool.to_int (O.to_m out v));
    mix (O.next_hop out v)
  done;
  !h

let run_config ~compute g policy dep pairs cfg =
  let worker (dst, attacker) =
    let ws = if cfg.reuse_ws then Some (B.Workspace.local ()) else None in
    digest (compute ~ws g policy dep ~dst ~attacker)
  in
  if cfg.domains <= 1 then Array.map worker pairs
  else begin
    let pool = Parallel.Pool.create ~domains:cfg.domains () in
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.shutdown pool)
      (fun () -> Parallel.Pool.map pool worker pairs)
  end

(* First field-level disagreement between two live outcomes. *)
let diff_fields ~want ~got =
  let n = O.n want in
  if O.n got <> n then
    Printf.sprintf "; outcome sizes differ (%d vs %d)" n (O.n got)
  else begin
    let res = ref "" in
    (try
       for v = 0 to n - 1 do
         if !res = "" then begin
           let fields =
             [
               ("reached", Bool.to_int (O.reached want v),
                Bool.to_int (O.reached got v));
               ("class", class_code want v, class_code got v);
               ("length", O.length want v, O.length got v);
               ("secure", Bool.to_int (O.secure want v),
                Bool.to_int (O.secure got v));
               ("to-d", Bool.to_int (O.to_d want v),
                Bool.to_int (O.to_d got v));
               ("to-m", Bool.to_int (O.to_m want v),
                Bool.to_int (O.to_m got v));
               ("next-hop", O.next_hop want v, O.next_hop got v);
             ]
           in
           match List.filter (fun (_, a, b) -> a <> b) fields with
           | [] -> ()
           | bad ->
               res :=
                 Printf.sprintf "; first field mismatch at AS %d: %s" v
                   (String.concat ", "
                      (List.map
                         (fun (name, a, b) ->
                           Printf.sprintf "%s %d/%d" name a b)
                         bad))
         end
       done
     with exn ->
       res :=
         Printf.sprintf "; field replay failed: %s" (Printexc.to_string exn));
    !res
  end

(* Sequential re-run of the whole prefix up to pair [i], so that
   history-dependent bugs (stale workspace state) reproduce.  Only
   meaningful when [cfg.domains = 1] — a parallel schedule cannot be
   replayed faithfully here. *)
let replay_detail ~compute g policy dep pairs cfg i =
  if cfg.domains <> 1 then ""
  else begin
    let detail = ref "" in
    (try
       for j = 0 to i do
         let dst, attacker = pairs.(j) in
         let ws =
           if cfg.reuse_ws then Some (B.Workspace.local ()) else None
         in
         let got = compute ~ws g policy dep ~dst ~attacker in
         if j = i then begin
           (* [want] is freshly allocated, so both outcomes are live. *)
           let want = compute ~ws:None g policy dep ~dst ~attacker in
           detail := diff_fields ~want ~got
         end
       done
     with exn ->
       detail := Printf.sprintf "; replay failed: %s" (Printexc.to_string exn));
    !detail
  end

let analyze ?(tiebreak = E.Bounds) ?attacker_claim
    ?(configs = default_configs ()) ?compute g policy dep pairs =
  let compute =
    match compute with
    | Some f -> f
    | None ->
        fun ~ws g policy dep ~dst ~attacker ->
          E.compute ~tiebreak ?attacker_claim ?ws g policy dep ~dst ~attacker
  in
  if Array.length pairs = 0 then []
  else begin
    let configs =
      if List.exists (same_config baseline) configs then configs
      else baseline :: configs
    in
    let base = run_config ~compute g policy dep pairs baseline in
    let diags = ref [] in
    List.iter
      (fun cfg ->
        if not (same_config cfg baseline) then begin
          let got = run_config ~compute g policy dep pairs cfg in
          let first = ref (-1) in
          let count = ref 0 in
          Array.iteri
            (fun i h ->
              if h <> base.(i) then begin
                incr count;
                if !first < 0 then first := i
              end)
            got;
          if !count > 0 then begin
            let i = !first in
            let dst, att = pairs.(i) in
            let subjects =
              match att with None -> [ dst ] | Some m -> [ dst; m ]
            in
            let attacker_s =
              match att with
              | None -> "no attacker"
              | Some m -> Printf.sprintf "attacker %d" m
            in
            diags :=
              !diags
              @ [
                  D.error ~rule:"det/divergence" ~subjects
                    (Printf.sprintf
                       "config %s diverges from baseline %s on %d of %d \
                        pairs; first at pair %d (dst %d, %s)%s"
                       (pp_config cfg) (pp_config baseline) !count
                       (Array.length pairs) i dst attacker_s
                       (replay_detail ~compute g policy dep pairs cfg i));
                ]
          end
        end)
      configs;
    !diags
  end
