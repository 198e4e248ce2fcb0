type model = Security_first | Security_second | Security_third
type lp = Standard | Lp_k of int
type t = { model : model; lp : lp }

let make ?(lp = Standard) model =
  (match lp with
  | Lp_k k when k < 1 -> invalid_arg "Policy.make: Lp_k requires k >= 1"
  | Lp_k _ | Standard -> ());
  { model; lp }

let all_models = [ Security_first; Security_second; Security_third ]

let model_name = function
  | Security_first -> "security 1st"
  | Security_second -> "security 2nd"
  | Security_third -> "security 3rd"

let name t =
  match t.lp with
  | Standard -> model_name t.model
  | Lp_k k -> Printf.sprintf "%s/LP%d" (model_name t.model) k

type route_class = Customer | Peer | Provider

let class_name = function
  | Customer -> "customer"
  | Peer -> "peer"
  | Provider -> "provider"

(* Ordinal of the local-preference class of a route.  For [Lp_k k] the
   classes are, in preference order: C1, P1, C2, P2, ..., Ck, Pk, C>k,
   P>k, Provider. *)
let lp_class t cls len =
  match t.lp with
  | Standard -> ( match cls with Customer -> 0 | Peer -> 1 | Provider -> 2)
  | Lp_k k -> (
      match cls with
      | Customer -> if len <= k then 2 * (len - 1) else 2 * k
      | Peer -> if len <= k then (2 * (len - 1)) + 1 else (2 * k) + 1
      | Provider -> (2 * k) + 2)

let compare_routes t (c1, l1, s1) (c2, l2, s2) =
  (* Each step compares "smaller is preferred"; secure routes first. *)
  let sec s = if s then 0 else 1 in
  let keys c l s =
    match t.model with
    | Security_first -> (sec s, lp_class t c l, l)
    | Security_second -> (lp_class t c l, sec s, l)
    | Security_third -> (lp_class t c l, l, sec s)
  in
  let a1, b1, d1 = keys c1 l1 s1 and a2, b2, d2 = keys c2 l2 s2 in
  let c = Int.compare a1 a2 in
  if c <> 0 then c
  else
    let c = Int.compare b1 b2 in
    if c <> 0 then c else Int.compare d1 d2

(* Dense rank encodings.  Each is order-isomorphic to [compare_routes];
   see the property tests in test/test_routing.ml.

   For [Lp_k] the naive lexicographic encoding (class * 2 * L) explodes
   when k approaches max_len, so we use dense layouts exploiting that the
   first 2k classes each admit a single length. *)

let check_len ~max_len len =
  if len < 1 || len > max_len then
    invalid_arg (Printf.sprintf "Policy.rank: len %d outside [1, %d]" len max_len)

(* Dense ordinal of (class, len) under the Lp_k class order refined by
   length — i.e. the (LP, SP) prefix shared by all three models. *)
let lpk_len_ord ~kk ~max_len cls len =
  match cls with
  | Customer when len <= kk -> 2 * (len - 1)
  | Peer when len <= kk -> (2 * (len - 1)) + 1
  | Customer -> (2 * kk) + (len - kk - 1)
  | Peer -> (2 * kk) + (max_len - kk) + (len - kk - 1)
  | Provider -> (2 * kk) + (2 * (max_len - kk)) + len

let lpk_len_ord_bound ~kk ~max_len =
  (2 * kk) + (2 * (max_len - kk)) + max_len + 1

let rank t ~max_len cls ~len ~secure =
  check_len ~max_len len;
  let s = if secure then 0 else 1 in
  let lbase = max_len + 1 in
  match t.lp with
  | Standard -> (
      let c = match cls with Customer -> 0 | Peer -> 1 | Provider -> 2 in
      match t.model with
      | Security_first -> ((((s * 3) + c) * lbase) + len)
      | Security_second -> ((((c * 2) + s) * lbase) + len)
      | Security_third -> ((((c * lbase) + len) * 2) + s))
  | Lp_k k -> (
      let kk = min k max_len in
      match t.model with
      | Security_first ->
          let z = lpk_len_ord_bound ~kk ~max_len in
          (s * z) + lpk_len_ord ~kk ~max_len cls len
      | Security_third -> (2 * lpk_len_ord ~kk ~max_len cls len) + s
      | Security_second -> (
          (* Fixed-length classes first (two ranks each: secure then
             insecure), then C>k, P>k, Provider blocks laid out as
             (secure?, len). *)
          let cc = lp_class t cls len in
          if cc < 2 * kk then (cc * 2) + s
          else begin
            let block =
              match cls with
              | Customer -> 0
              | Peer -> 1
              | Provider -> 2
            in
            (4 * kk) + (block * 2 * lbase) + (s * lbase) + len
          end))

let max_rank t ~max_len =
  let lbase = max_len + 1 in
  match t.lp with
  | Standard -> (
      match t.model with
      | Security_first | Security_second -> 6 * lbase
      | Security_third -> ((((2 * lbase) + max_len) * 2) + 1) + 1)
  | Lp_k k -> (
      let kk = min k max_len in
      let z = lpk_len_ord_bound ~kk ~max_len in
      match t.model with
      | Security_first -> 2 * z
      | Security_third -> 2 * z
      | Security_second -> (4 * kk) + (6 * lbase))

type policy = t

module Rank_table = struct
  (* Hoisted form of [rank] for the engine's inner loop.  For a fixed
     (policy, max_len), [rank] is piecewise affine in the length with a
     single breakpoint at [kk] (the Lp_k refinement limit; [max_len]
     itself under the Standard LP, i.e. no second piece): each of the six
     (class, security) combinations contributes one affine map per piece.
     We derive the 12 (multiplier, offset) entries by probing [rank] at
     the two ends of each piece, so the table is bit-identical to [rank]
     by construction — no second copy of the encoding formulas to drift.
     The hot-path lookup is then two array reads, one multiply and one
     add, with no variant dispatch or bounds checks. *)
  type t = {
    kk : int;  (* breakpoint: the "lo" piece covers len <= kk *)
    mul : int array;  (* 12 entries: j = 2*cls + sbit, + 6 when len > kk *)
    add : int array;
    max_len : int;
    max_rank : int;
  }

  let cls_of_code = function 0 -> Customer | 1 -> Peer | _ -> Provider

  let make policy ~max_len =
    if max_len < 1 then invalid_arg "Policy.Rank_table.make: max_len < 1";
    let kk =
      match policy.lp with Standard -> max_len | Lp_k k -> min k max_len
    in
    let mul = Array.make 12 0 and add = Array.make 12 0 in
    (* Fit mul.(j) * len + add.(j) to the piece [lo, hi] (inclusive, with
       1 <= lo <= hi <= max_len); a single-point piece gets slope 0. *)
    let fit cls_code sbit j lo hi =
      let r len =
        rank policy ~max_len (cls_of_code cls_code) ~len ~secure:(sbit = 0)
      in
      let m = if hi > lo then r (lo + 1) - r lo else 0 in
      mul.(j) <- m;
      add.(j) <- r lo - (m * lo)
    in
    for cls = 0 to 2 do
      for sbit = 0 to 1 do
        let j = (2 * cls) + sbit in
        fit cls sbit j 1 kk;
        if kk < max_len then fit cls sbit (j + 6) (kk + 1) max_len
        else begin
          (* One piece only: mirror it so the len <= kk test never picks
             an unfitted entry. *)
          mul.(j + 6) <- mul.(j);
          add.(j + 6) <- add.(j)
        end
      done
    done;
    { kk; mul; add; max_len; max_rank = max_rank policy ~max_len }

  let rank t ~cls_code ~len ~sbit =
    let j = (2 * cls_code) + sbit + if len <= t.kk then 0 else 6 in
    (Array.unsafe_get t.mul j * len) + Array.unsafe_get t.add j
end
