type downgrade = {
  secure_normal : int;
  downgraded : int;
  secure_after : int;
  sources : int;
}

let downgrade_zero =
  { secure_normal = 0; downgraded = 0; secure_after = 0; sources = 0 }

(* The [int] annotation pins the comparisons to the immediate-int
   primitives; unannotated this generalizes to ['a] and every call
   dispatches through the polymorphic runtime. *)
let is_source ~attacker ~dst (v : int) = v <> attacker && v <> dst

let downgrades g policy dep ~attacker ~dst =
  let normal = Routing.Engine.compute g policy dep ~dst ~attacker:None in
  let attack =
    Routing.Engine.compute g policy dep ~dst ~attacker:(Some attacker)
  in
  (* Sources whose normal route runs through the attacker lose it no
     matter what; Theorem 3.1 (and its sec-1st guarantee) exempts them,
     so they are not counted as protocol downgrades. *)
  let through_attacker v =
    Routing.Outcome.reached normal v
    && List.mem attacker (Routing.Outcome.path normal v)
  in
  let acc = ref downgrade_zero in
  for v = 0 to Topology.Graph.n g - 1 do
    if is_source ~attacker ~dst v then begin
      let a = !acc in
      let secure_n =
        Routing.Outcome.secure normal v && not (through_attacker v)
      in
      let secure_a = Routing.Outcome.secure attack v in
      acc :=
        {
          sources = a.sources + 1;
          secure_normal = (a.secure_normal + if secure_n then 1 else 0);
          downgraded = (a.downgraded + if secure_n && not secure_a then 1 else 0);
          secure_after = (a.secure_after + if secure_n && secure_a then 1 else 0);
        }
    end
  done;
  !acc

type root_cause = {
  sources : int;
  rc_secure_normal : int;
  rc_downgraded : int;
  rc_wasted : int;
  rc_protecting : int;
  rc_benefit : int;
  rc_damage : int;
  rc_happy_base : int;
  rc_happy_dep : int;
}

let root_cause_zero =
  {
    sources = 0;
    rc_secure_normal = 0;
    rc_downgraded = 0;
    rc_wasted = 0;
    rc_protecting = 0;
    rc_benefit = 0;
    rc_damage = 0;
    rc_happy_base = 0;
    rc_happy_dep = 0;
  }

let root_cause_add a b =
  {
    sources = a.sources + b.sources;
    rc_secure_normal = a.rc_secure_normal + b.rc_secure_normal;
    rc_downgraded = a.rc_downgraded + b.rc_downgraded;
    rc_wasted = a.rc_wasted + b.rc_wasted;
    rc_protecting = a.rc_protecting + b.rc_protecting;
    rc_benefit = a.rc_benefit + b.rc_benefit;
    rc_damage = a.rc_damage + b.rc_damage;
    rc_happy_base = a.rc_happy_base + b.rc_happy_base;
    rc_happy_dep = a.rc_happy_dep + b.rc_happy_dep;
  }

let root_cause g policy dep ~attacker ~dst =
  let n = Topology.Graph.n g in
  let normal = Routing.Engine.compute g policy dep ~dst ~attacker:None in
  let attack =
    Routing.Engine.compute g policy dep ~dst ~attacker:(Some attacker)
  in
  let base =
    Routing.Engine.compute g policy (Deployment.empty n) ~dst
      ~attacker:(Some attacker)
  in
  let acc = ref root_cause_zero in
  for v = 0 to n - 1 do
    if is_source ~attacker ~dst v then begin
      let a = !acc in
      let secure_n = Routing.Outcome.secure normal v in
      let secure_a = Routing.Outcome.secure attack v in
      let happy_base = Routing.Outcome.happy_lb base v in
      let unhappy_base = not happy_base in
      let happy_dep = Routing.Outcome.happy_lb attack v in
      let unhappy_dep = not happy_dep in
      let insecure = not (Deployment.is_full dep v) in
      let b x = if x then 1 else 0 in
      acc :=
        {
          sources = a.sources + 1;
          rc_secure_normal = a.rc_secure_normal + b secure_n;
          rc_downgraded = a.rc_downgraded + b (secure_n && not secure_a);
          rc_wasted = a.rc_wasted + b (secure_n && secure_a && happy_base);
          rc_protecting =
            a.rc_protecting + b (secure_n && secure_a && not happy_base);
          rc_benefit = a.rc_benefit + b (insecure && unhappy_base && happy_dep);
          rc_damage = a.rc_damage + b (insecure && happy_base && unhappy_dep);
          rc_happy_base = a.rc_happy_base + b happy_base;
          rc_happy_dep = a.rc_happy_dep + b happy_dep;
        }
    end
  done;
  !acc

type collateral = { benefit : int; damage : int; insecure_sources : int }

let collateral g policy ~baseline ~deployment ~attacker ~dst =
  if not (Deployment.subset baseline deployment) then
    invalid_arg "Phenomena.collateral: baseline not a subset of deployment";
  let small =
    Routing.Engine.compute g policy baseline ~dst ~attacker:(Some attacker)
  in
  let large =
    Routing.Engine.compute g policy deployment ~dst ~attacker:(Some attacker)
  in
  let acc = ref { benefit = 0; damage = 0; insecure_sources = 0 } in
  for v = 0 to Topology.Graph.n g - 1 do
    if is_source ~attacker ~dst v && not (Deployment.is_full deployment v) then begin
      let a = !acc in
      let happy_small = Routing.Outcome.happy_lb small v in
      let unhappy_small = not happy_small in
      let happy_large = Routing.Outcome.happy_lb large v in
      let unhappy_large = not happy_large in
      acc :=
        {
          insecure_sources = a.insecure_sources + 1;
          benefit = (a.benefit + if unhappy_small && happy_large then 1 else 0);
          damage = (a.damage + if happy_small && unhappy_large then 1 else 0);
        }
    end
  done;
  !acc
