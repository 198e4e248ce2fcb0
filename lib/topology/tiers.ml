type tier = T1 | T2 | T3 | Cp | Small_cp | Stub_x | Stub | Smdg

let all_tiers = [ T1; T2; T3; Cp; Small_cp; Stub_x; Stub; Smdg ]

let tier_name = function
  | T1 -> "T1"
  | T2 -> "T2"
  | T3 -> "T3"
  | Cp -> "CP"
  | Small_cp -> "SMCP"
  | Stub_x -> "STUB-X"
  | Stub -> "STUB"
  | Smdg -> "SMDG"

let tier_index = function
  | T1 -> 0
  | T2 -> 1
  | T3 -> 2
  | Cp -> 3
  | Small_cp -> 4
  | Stub_x -> 5
  | Stub -> 6
  | Smdg -> 7

let of_index = [| T1; T2; T3; Cp; Small_cp; Stub_x; Stub; Smdg |]

type t = { of_as : tier array; groups : int array array }

(* The ASes ordered by descending [degree v], ties by ascending id: a
   counting sort over the degree values, stable in id order. *)
let by_degree_desc n degree =
  let max_deg = ref 0 in
  for v = 0 to n - 1 do
    if degree v > !max_deg then max_deg := degree v
  done;
  (* [start.(d)]: first output slot of degree [d]; higher degrees first. *)
  let start = Array.make (!max_deg + 1) 0 in
  for v = 0 to n - 1 do
    let d = degree v in
    start.(d) <- start.(d) + 1
  done;
  let acc = ref 0 in
  for d = !max_deg downto 0 do
    let c = start.(d) in
    start.(d) <- !acc;
    acc := !acc + c
  done;
  let order = Array.make n 0 in
  for v = 0 to n - 1 do
    let d = degree v in
    order.(start.(d)) <- v;
    start.(d) <- start.(d) + 1
  done;
  order

let classify ?(n_t1 = 13) ?(n_t2 = 100) ?(n_t3 = 100) ?(n_small_cp = 300)
    ?(cps = []) g =
  let n = Graph.n g in
  (* Tier index per AS, -1 while unassigned. *)
  let assigned = Array.make n (-1) in
  let take tier order keep count =
    let i = tier_index tier in
    let taken = ref 0 in
    Array.iter
      (fun v ->
        if !taken < count && assigned.(v) < 0 && keep v then begin
          assigned.(v) <- i;
          incr taken
        end)
      order
  in
  let by_customer_degree = by_degree_desc n (Graph.customer_degree g) in
  let providerless v = Graph.provider_degree g v = 0 in
  take T1 by_customer_degree providerless n_t1;
  List.iter
    (fun v ->
      if v >= 0 && v < n && assigned.(v) < 0 then assigned.(v) <- tier_index Cp)
    cps;
  let with_providers v = not (providerless v) in
  take T2 by_customer_degree with_providers n_t2;
  take T3 by_customer_degree with_providers n_t3;
  (* Small CPs must actually peer; a zero-peer AS is not a "top peering" AS. *)
  take Small_cp
    (by_degree_desc n (Graph.peer_degree g))
    (fun v -> Graph.peer_degree g v > 0)
    n_small_cp;
  let of_as =
    Array.init n (fun v ->
        if assigned.(v) >= 0 then of_index.(assigned.(v))
        else if Graph.is_stub g v then
          if Graph.peer_degree g v > 0 then Stub_x else Stub
        else Smdg)
  in
  let buckets = Array.make 8 [] in
  for v = n - 1 downto 0 do
    let i = tier_index of_as.(v) in
    buckets.(i) <- v :: buckets.(i)
  done;
  { of_as; groups = Array.map Array.of_list buckets }

let tier_of t v = t.of_as.(v)
let members t tier = t.groups.(tier_index tier)

let non_stubs t =
  let acc = ref [] in
  Array.iteri
    (fun v tier -> match tier with Stub | Stub_x -> () | _ -> acc := v :: !acc)
    t.of_as;
  Array.of_list (List.rev !acc)

let stubs_of g isps =
  let isp_set = Hashtbl.create (Array.length isps) in
  Array.iter (fun v -> Hashtbl.replace isp_set v ()) isps;
  let acc = ref [] in
  for v = Graph.n g - 1 downto 0 do
    if Graph.is_stub g v
       && Array.exists (fun p -> Hashtbl.mem isp_set p) (Graph.providers g v)
    then acc := v :: !acc
  done;
  Array.of_list !acc

let summary g t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "ASes: %d, customer-provider edges: %d, peer edges: %d\n"
       (Graph.n g)
       (Graph.num_customer_provider_edges g)
       (Graph.num_peer_edges g));
  List.iter
    (fun tier ->
      Buffer.add_string buf
        (Printf.sprintf "  %-7s %d\n" (tier_name tier)
           (Array.length (members t tier))))
    all_tiers;
  Buffer.contents buf
