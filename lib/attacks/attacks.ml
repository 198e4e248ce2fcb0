type strategy =
  | Prefix_hijack
  | Subprefix_hijack
  | Fabricated_path of int

let strategy_name = function
  | Prefix_hijack -> "prefix hijack"
  | Subprefix_hijack -> "subprefix hijack"
  | Fabricated_path 1 -> "fabricated path \"m d\""
  | Fabricated_path k -> Printf.sprintf "fabricated path (%d hops)" k

(* Encode each strategy as an actual RPKI validation question.  The
   victim [d] holds 10.0.0.0/8 under a ROA; what does the attacker [m]
   announce? *)
let passes_origin_validation strategy =
  let victim = 65000 and attacker = 64999 in
  let roas = [ Rpki.roa "10.0.0.0/8" victim ] in
  let announcement =
    match strategy with
    | Prefix_hijack ->
        (* m originates the very prefix. *)
        { Rpki.ann_prefix = Rpki.prefix "10.0.0.0/8"; as_path = [ attacker ] }
    | Subprefix_hijack ->
        { Rpki.ann_prefix = Rpki.prefix "10.1.0.0/16"; as_path = [ attacker ] }
    | Fabricated_path k ->
        (* m claims a path that terminates at the legitimate origin. *)
        let middle = List.init (max 0 (k - 1)) (fun i -> 64000 + i) in
        {
          Rpki.ann_prefix = Rpki.prefix "10.0.0.0/8";
          as_path = (attacker :: middle) @ [ victim ];
        }
  in
  Rpki.validate roas announcement <> Rpki.Invalid

type result = {
  strategy : strategy;
  filtered : bool;
  happy_lb : int;
  happy_ub : int;
  sources : int;
}

let happy_fraction r =
  ( Prelude.Stats.fraction r.happy_lb r.sources,
    Prelude.Stats.fraction r.happy_ub r.sources )

let of_counts strategy ~filtered (c : Metric.H_metric.counts) =
  {
    strategy;
    filtered;
    happy_lb = c.Metric.H_metric.happy_lb;
    happy_ub = c.Metric.H_metric.happy_ub;
    sources = c.Metric.H_metric.sources;
  }

let simulate ?(origin_auth = true) g policy dep ~attacker ~dst strategy =
  (match strategy with
  | Fabricated_path k when k < 1 ->
      invalid_arg "Attacks.simulate: Fabricated_path requires length >= 1"
  | _ -> ());
  let filtered = origin_auth && not (passes_origin_validation strategy) in
  if filtered then begin
    (* The bogus announcement never enters route selection; sources see
       normal conditions.  A source is happy iff it has a route to the
       destination at all; the attacker's slot is excluded to keep
       [sources] comparable across strategies. *)
    let normal = Routing.Engine.compute g policy dep ~dst ~attacker:None in
    let happy = ref 0 and sources = ref 0 in
    for v = 0 to Topology.Graph.n g - 1 do
      if v <> dst && v <> attacker then begin
        incr sources;
        if Routing.Outcome.reached normal v then incr happy
      end
    done;
    {
      strategy;
      filtered = true;
      happy_lb = !happy;
      happy_ub = !happy;
      sources = !sources;
    }
  end
  else
    match strategy with
    | Subprefix_hijack ->
        (* Longest-prefix forwarding: route selection for the covering
           prefix is irrelevant; any source with a perceivable route to
           the attacker sends the victim's traffic there. *)
        let reach_m =
          Routing.Reach.compute g ~root:attacker ~avoid:dst ()
        in
        let reach_d = Routing.Reach.compute g ~root:dst ~avoid:attacker () in
        let happy = ref 0 and sources = ref 0 in
        for v = 0 to Topology.Graph.n g - 1 do
          if v <> dst && v <> attacker then begin
            incr sources;
            if Routing.Reach.any reach_d v && not (Routing.Reach.any reach_m v)
            then incr happy
          end
        done;
        {
          strategy;
          filtered = false;
          happy_lb = !happy;
          happy_ub = !happy;
          sources = !sources;
        }
    | Prefix_hijack ->
        let out =
          Routing.Engine.compute ~attacker_claim:0 g policy dep ~dst
            ~attacker:(Some attacker)
        in
        of_counts strategy ~filtered:false (Metric.H_metric.happy out)
    | Fabricated_path k ->
        let out =
          Routing.Engine.compute ~attacker_claim:k g policy dep ~dst
            ~attacker:(Some attacker)
        in
        of_counts strategy ~filtered:false (Metric.H_metric.happy out)

(* The two attacks that never enter route selection, batched over the
   pairs.  A filtered announcement leaves the normal state; under
   security 3rd with S = {} and the standard LP that state reaches
   exactly the ASes holding a perceivable route to the destination, so
   one closure lane per destination counts every pair of it.  The
   unfiltered subprefix hijack keeps the sources with a perceivable
   route to the destination avoiding the attacker and none to the
   attacker avoiding the destination: the security-1st partition's
   immune class. *)
let simulate_pairs ?pool ?(origin_auth = true) g policy dep pairs strategy =
  (match strategy with
  | Fabricated_path k when k < 1 ->
      invalid_arg "Attacks.simulate_pairs: Fabricated_path requires length >= 1"
  | _ -> ());
  let n = Topology.Graph.n g in
  Array.iter
    (fun { Metric.H_metric.attacker; dst } ->
      if attacker < 0 || attacker >= n || dst < 0 || dst >= n || attacker = dst
      then invalid_arg "Attacks.simulate_pairs: bad pair")
    pairs;
  let filtered = origin_auth && not (passes_origin_validation strategy) in
  let sources = n - 2 in
  let result happy =
    { strategy; filtered; happy_lb = happy; happy_ub = happy; sources }
  in
  if filtered then begin
    (match (policy : Routing.Policy.t) with
    | { model = Security_third; lp = Standard }
      when Deployment.count_secure dep = 0 -> ()
    | _ ->
        invalid_arg
          "Attacks.simulate_pairs: a filtered announcement needs security \
           3rd, S = {} and the standard LP");
    Array.map result (Metric.Partition.reach_counts ?pool g pairs)
  end
  else
    match strategy with
    | Subprefix_hijack ->
        Array.map
          (fun (c : Metric.Partition.counts) -> result c.immune)
          (Metric.Partition.counts ?pool g
             (Routing.Policy.make Routing.Policy.Security_first)
             pairs)
    | Prefix_hijack | Fabricated_path _ ->
        invalid_arg
          "Attacks.simulate_pairs: the attack enters route selection"
