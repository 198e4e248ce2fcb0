type t = {
  mutable dst : int;
  mutable attacker : int option;
  mutable n : int;
  (* Arrays may be longer than [n] when the record is recycled by
     [reset]; only the first [n] slots are meaningful. *)
  length : int array;
  (* Route class packed as an int to keep the record flat: 0 customer,
     1 peer, 2 provider, 3 origin/attacker, -1 unreached. *)
  cls : int array;
  secure : bool array;
  to_d : bool array;
  to_m : bool array;
  parent : int array;
}

let dst t = t.dst
let attacker t = t.attacker
let n t = t.n

let create ~n ~dst ~attacker =
  {
    dst;
    attacker;
    n;
    length = Array.make n (-1);
    cls = Array.make n (-1);
    secure = Array.make n false;
    to_d = Array.make n false;
    to_m = Array.make n false;
    parent = Array.make n (-1);
  }

let reset t ~n ~dst ~attacker =
  if Array.length t.length < n then create ~n ~dst ~attacker
  else begin
    t.dst <- dst;
    t.attacker <- attacker;
    t.n <- n;
    Array.fill t.length 0 n (-1);
    Array.fill t.cls 0 n (-1);
    Array.fill t.secure 0 n false;
    Array.fill t.to_d 0 n false;
    Array.fill t.to_m 0 n false;
    Array.fill t.parent 0 n (-1);
    t
  end

let reached t v = t.length.(v) >= 0
let is_fixed = reached
let length t v = t.length.(v)

let route_class t v =
  match t.cls.(v) with
  | 0 -> Policy.Customer
  | 1 -> Policy.Peer
  | 2 -> Policy.Provider
  | _ ->
      invalid_arg
        (Printf.sprintf "Outcome.route_class: AS %d has no neighbor route" v)

let secure t v = t.secure.(v)
let to_d t v = t.to_d.(v)
let to_m t v = t.to_m.(v)
let happy_lb t v = t.to_d.(v) && not t.to_m.(v)
let happy_ub t v = t.to_d.(v)
let next_hop t v = t.parent.(v)

let cls_code = function
  | Policy.Customer -> 0
  | Policy.Peer -> 1
  | Policy.Provider -> 2

let fix t v ~cls ~len ~secure ~to_d ~to_m ~parent =
  t.length.(v) <- len;
  t.cls.(v) <- cls_code cls;
  t.secure.(v) <- secure;
  t.to_d.(v) <- to_d;
  t.to_m.(v) <- to_m;
  t.parent.(v) <- parent

let fix_code t v ~cls_code ~len ~secure ~to_d ~to_m ~parent =
  t.length.(v) <- len;
  t.cls.(v) <- cls_code;
  t.secure.(v) <- secure;
  t.to_d.(v) <- to_d;
  t.to_m.(v) <- to_m;
  t.parent.(v) <- parent

let fix_root t v ~len ~secure ~to_d ~to_m ~parent =
  t.length.(v) <- len;
  t.cls.(v) <- 3;
  t.secure.(v) <- secure;
  t.to_d.(v) <- to_d;
  t.to_m.(v) <- to_m;
  t.parent.(v) <- parent

let path t v =
  if not (reached t v) then []
  else begin
    let rec follow v acc steps =
      if steps > t.n + 2 then failwith "Outcome.path: cycle in parents"
      else if v = t.dst then List.rev (v :: acc)
      else
        match t.parent.(v) with
        | -1 -> List.rev (v :: acc)
        | p -> follow p (v :: acc) (steps + 1)
    in
    follow v [] 0
  end
