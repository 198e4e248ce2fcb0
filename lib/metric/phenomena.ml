type t = {
  sources : int;
  secure_normal : int;
  downgraded : int;
  wasted : int;
  protecting : int;
  benefit : int;
  damage : int;
  happy_base : int;
  happy_dep : int;
  exempt : int;
  exempt_lost : int;
  secure_by_dst : int;
}

let zero =
  {
    sources = 0;
    secure_normal = 0;
    downgraded = 0;
    wasted = 0;
    protecting = 0;
    benefit = 0;
    damage = 0;
    happy_base = 0;
    happy_dep = 0;
    exempt = 0;
    exempt_lost = 0;
    secure_by_dst = 0;
  }

let add a b =
  {
    sources = a.sources + b.sources;
    secure_normal = a.secure_normal + b.secure_normal;
    downgraded = a.downgraded + b.downgraded;
    wasted = a.wasted + b.wasted;
    protecting = a.protecting + b.protecting;
    benefit = a.benefit + b.benefit;
    damage = a.damage + b.damage;
    happy_base = a.happy_base + b.happy_base;
    happy_dep = a.happy_dep + b.happy_dep;
    exempt = a.exempt + b.exempt;
    exempt_lost = a.exempt_lost + b.exempt_lost;
    secure_by_dst = a.secure_by_dst + b.secure_by_dst;
  }

(* Per AS, a lane mask: bit [l] speaks of the pair whose attacker sits
   in lane [l].  One set per destination serves all of its words. *)
type scratch = {
  own : int array;  (** lanes whose attacker is [v] *)
  base : int array;  (** lanes where [v] is happy, S = {} *)
  sec : int array;  (** lanes where [v]'s route is secure, S *)
  hap : int array;  (** lanes where [v] is happy, S *)
  through : int array;  (** lanes whose attacker is on [v]'s normal path *)
  known : bool array;  (** [through.(v)] is set *)
}

let scratch n =
  let masks () = Array.make n 0 in
  {
    own = masks ();
    base = masks ();
    sec = masks ();
    hap = masks ();
    through = masks ();
    known = Array.make n false;
  }

(* One walk over the groups of a word: per AS, the lanes whose route is
   secure into [secure] and the lanes that are happy into [happy].
   Unreached lanes are neither. *)
let fill_lanes b ~n ~secure ~happy =
  Array.fill secure 0 n 0;
  Array.fill happy 0 n 0;
  Routing.Batch.iter_fixed b (fun ~v ~mask ~word ~parent:_ ->
      let open Routing.Batch.Packed in
      if secure_of word then secure.(v) <- secure.(v) lor mask;
      if to_d_of word && not (to_m_of word) then
        happy.(v) <- happy.(v) lor mask)

(* The attacker-free state toward [dst], read off the one lane of an
   empty word: per AS, whether its route is secure, and its
   representative next hop (-1 at the destination and unreached ASes).
   Copied out of the groups, so the words that follow may reuse [ws]. *)
type normal = { secure : bool array; hop : int array }

let normal_state ~ws g policy dep ~n ~dst =
  let secure = Array.make n false and hop = Array.make n (-1) in
  Routing.Batch.iter_fixed
    (Routing.Batch.compute ~ws g policy dep ~dst ~attackers:[||])
    (fun ~v ~mask:_ ~word ~parent ->
      secure.(v) <- Routing.Batch.Packed.secure_of word;
      hop.(v) <- parent);
  { secure; hop }

(* [through.(v)] is [own.(v)] or'ed with its normal next hop's set: the
   lanes whose attacker lies on [v]'s representative normal path.  Each
   AS is marked once, so this is O(n) per word and policy. *)
let mark_through s normal ~n =
  Array.fill s.known 0 n false;
  let rec mark v =
    if v < 0 then 0
    else if s.known.(v) then s.through.(v)
    else begin
      let t = s.own.(v) lor mark normal.hop.(v) in
      s.through.(v) <- t;
      s.known.(v) <- true;
      t
    end
  in
  for v = 0 to n - 1 do ignore (mark v) done

(* Classify every (lane, source) of one word under one policy, in one
   pass over the ASes: each field reads as its definition in the
   interface.  [normal = None] holds no secure route. *)
let classify s dep normal ~n ~dst ~lanes =
  let all = if lanes >= Routing.Batch.max_lanes then -1 else (1 lsl lanes) - 1 in
  let secure_normal = ref 0 and downgraded = ref 0 and wasted = ref 0 in
  let protecting = ref 0 and benefit = ref 0 and damage = ref 0 in
  let happy_base = ref 0 and happy_dep = ref 0 in
  let exempt = ref 0 and exempt_lost = ref 0 in
  let count c lanes = c := !c + Prelude.Bitset.popcount_word lanes in
  for v = 0 to n - 1 do
    if v <> dst then begin
      let src = all land lnot s.own.(v) in
      let sn =
        match normal with Some nm when nm.secure.(v) -> src | Some _ | None -> 0
      in
      let sa = s.sec.(v) and th = s.through.(v) in
      let hb = s.base.(v) land src and hd = s.hap.(v) land src in
      let insecure = if Deployment.is_full dep v then 0 else src in
      count secure_normal sn;
      count downgraded (sn land lnot sa);
      count wasted (sn land sa land hb);
      count protecting (sn land sa land lnot hb);
      count benefit (insecure land hd land lnot hb);
      count damage (insecure land hb land lnot hd);
      count happy_base hb;
      count happy_dep hd;
      count exempt (sn land th);
      count exempt_lost (sn land th land lnot sa)
    end
  done;
  {
    sources = lanes * (n - 2);
    secure_normal = !secure_normal;
    downgraded = !downgraded;
    wasted = !wasted;
    protecting = !protecting;
    benefit = !benefit;
    damage = !damage;
    happy_base = !happy_base;
    happy_dep = !happy_dep;
    exempt = !exempt;
    exempt_lost = !exempt_lost;
    secure_by_dst = 0;
  }

let same_lp (a : Routing.Policy.t) (b : Routing.Policy.t) =
  match (a.lp, b.lp) with
  | Standard, Standard -> true
  | Lp_k i, Lp_k j -> i = j
  | _ -> false

let sum ?pool g policies dep pairs =
  let n = Topology.Graph.n g in
  let policies = Array.of_list policies in
  let empty = Deployment.empty n in
  let words = H_metric.plan pairs in
  (* A destination's words are consecutive in the plan: it is the run of
     words from its first one, which shares one normal state per policy. *)
  let per_dst first =
    let dst = words.(first).dst in
    (* Toward an unsigned origin no route is secure, so neither model
       nor deployment changes a state (as the metric cache keys it): the
       attack with S is the one with S = {}, and no normal route counts. *)
    let signs = Deployment.signs_origin dep dst in
    let s = scratch n and ws = Routing.Batch.Workspace.local () in
    let normals =
      Array.map
        (fun p ->
          if signs then Some (normal_state ~ws g p dep ~n ~dst) else None)
        policies
    in
    let acc =
      Array.map
        (fun normal ->
          let c = ref 0 in
          Option.iter
            (fun nm ->
              Array.iteri (fun v sec -> if v <> dst && sec then incr c) nm.secure)
            normal;
          { zero with secure_by_dst = !c })
        normals
    in
    let k = ref first in
    while !k < Array.length words && words.(!k).dst = dst do
      let attackers = words.(!k).attackers in
      let lanes = Array.length attackers in
      Array.fill s.own 0 n 0;
      Array.iteri (fun l m -> s.own.(m) <- s.own.(m) lor (1 lsl l)) attackers;
      let solve policy dep =
        Routing.Batch.compute ~ws g policy dep ~dst ~attackers
      in
      Array.iteri
        (fun i policy ->
          (* No security model tells the S = {} states apart: consecutive
             policies of one local-preference variant share the word. *)
          if i = 0 || not (same_lp policies.(i - 1) policy) then
            fill_lanes (solve policy empty) ~n ~secure:s.sec ~happy:s.base;
          (match normals.(i) with
          | Some normal ->
              mark_through s normal ~n;
              fill_lanes (solve policy dep) ~n ~secure:s.sec ~happy:s.hap
          | None -> Array.blit s.base 0 s.hap 0 n);
          acc.(i) <- add acc.(i) (classify s dep normals.(i) ~n ~dst ~lanes))
        policies;
      incr k
    done;
    acc
  in
  let firsts =
    List.filter
      (fun k -> k = 0 || words.(k - 1).dst <> words.(k).dst)
      (List.init (Array.length words) Fun.id)
  in
  let totals =
    Parallel.map ?pool ~domains:1 ~chunk:1 per_dst (Array.of_list firsts)
  in
  List.init (Array.length policies) (fun i ->
      Array.fold_left (fun t per -> add t per.(i)) zero totals)
