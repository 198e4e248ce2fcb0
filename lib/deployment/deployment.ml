type mode = Off | Simplex | Full
(* [fp] memoizes {!fingerprint} ([-1] until first asked): the mode
   vector never changes after construction, and the metric cache asks
   for the fingerprint of the same deployment on every lookup batch.
   Domains racing on a cold [fp] write the same int. *)
type t = { modes : mode array; mutable fp : int }

let of_array modes = { modes; fp = -1 }
let empty n = of_array (Array.make n Off)
let of_modes modes = of_array (Array.copy modes)

let make ~n ~full ?(simplex = [||]) () =
  let modes = Array.make n Off in
  Array.iter (fun v -> modes.(v) <- Simplex) simplex;
  Array.iter (fun v -> modes.(v) <- Full) full;
  of_array modes

let n t = Array.length t.modes
let mode t v = t.modes.(v)
let is_full t v = t.modes.(v) = Full
let signs_origin t v = t.modes.(v) <> Off

let count_secure t =
  Array.fold_left (fun acc m -> if m = Off then acc else acc + 1) 0 t.modes

let secure_list t =
  let acc = ref [] in
  for v = Array.length t.modes - 1 downto 0 do
    if t.modes.(v) <> Off then acc := v :: !acc
  done;
  Array.of_list !acc

let mode_rank = function Off -> 0 | Simplex -> 1 | Full -> 2

let union a b =
  if Array.length a.modes <> Array.length b.modes then
    invalid_arg "Deployment.union: size mismatch";
  of_array
    (Array.init (Array.length a.modes) (fun v ->
         if mode_rank a.modes.(v) >= mode_rank b.modes.(v) then a.modes.(v)
         else b.modes.(v)))

let subset s t =
  Array.length s.modes = Array.length t.modes
  && begin
       let ok = ref true in
       Array.iteri
         (fun v m -> if mode_rank m > mode_rank t.modes.(v) then ok := false)
         s.modes;
       !ok
     end

let equal a b =
  Array.length a.modes = Array.length b.modes
  && begin
       let ok = ref true in
       Array.iteri
         (fun v m -> if mode_rank m <> mode_rank b.modes.(v) then ok := false)
         a.modes;
       !ok
     end

(* FNV-1a over the mode ranks: stable across runs, no boxing. *)
let fingerprint t =
  if t.fp < 0 then begin
    let h = ref 0x811c9dc5 in
    Array.iter
      (fun m -> h := (!h lxor mode_rank m) * 0x01000193 land max_int)
      t.modes;
    t.fp <- !h
  end;
  t.fp

let isps_and_stubs ?(stub_mode = Full) g tiers ~isps =
  let modes = Array.make (Topology.Graph.n g) Off in
  (* Only tier-classified stubs count: an AS with no customers that is a
     designated content provider (or small CP) is not part of an "ISPs and
     their stubs" rollout. *)
  let is_stub v =
    match Topology.Tiers.tier_of tiers v with
    | Topology.Tiers.Stub | Topology.Tiers.Stub_x -> true
    | _ -> false
  in
  Array.iter
    (fun v -> if is_stub v then modes.(v) <- stub_mode)
    (Topology.Tiers.stubs_of g isps);
  Array.iter (fun v -> modes.(v) <- Full) isps;
  of_array modes

(* The [n] largest members of a tier by customer degree (ties by id). *)
let largest g tiers tier count =
  let members = Array.copy (Topology.Tiers.members tiers tier) in
  Array.sort
    (fun a b ->
      match
        compare (Topology.Graph.customer_degree g b)
          (Topology.Graph.customer_degree g a)
      with
      | 0 -> compare a b
      | c -> c)
    members;
  Array.sub members 0 (min count (Array.length members))

let tier1_tier2 ?stub_mode g tiers ~n_t1 ~n_t2 =
  let t1 = largest g tiers Topology.Tiers.T1 n_t1 in
  let t2 = largest g tiers Topology.Tiers.T2 n_t2 in
  isps_and_stubs ?stub_mode g tiers ~isps:(Array.append t1 t2)

let with_cps g tiers t =
  let cps = Topology.Tiers.members tiers Topology.Tiers.Cp in
  union t (isps_and_stubs g tiers ~isps:cps)

let tier2_only ?stub_mode g tiers ~n_t2 =
  isps_and_stubs ?stub_mode g tiers
    ~isps:(largest g tiers Topology.Tiers.T2 n_t2)

let non_stubs g tiers =
  let isps = Topology.Tiers.non_stubs tiers in
  let modes = Array.make (Topology.Graph.n g) Off in
  Array.iter (fun v -> modes.(v) <- Full) isps;
  of_array modes

let tier1_and_stubs ?(with_cps = false) g tiers =
  let t1 = Topology.Tiers.members tiers Topology.Tiers.T1 in
  let isps =
    if with_cps then
      Array.append t1 (Topology.Tiers.members tiers Topology.Tiers.Cp)
    else t1
  in
  isps_and_stubs g tiers ~isps

let describe t =
  let full = ref 0 and simplex = ref 0 in
  Array.iter
    (function Full -> incr full | Simplex -> incr simplex | Off -> ())
    t.modes;
  Printf.sprintf "%d/%d ASes secure (%d full, %d simplex)"
    (!full + !simplex) (Array.length t.modes) !full !simplex
