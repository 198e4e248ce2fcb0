type prefix = { addr : int32; len : int }

let mask_of_len len =
  if len = 0 then 0l
  else Int32.shift_left (-1l) (32 - len)

let prefix s =
  let fail msg = invalid_arg (Printf.sprintf "Rpki.prefix %S: %s" s msg) in
  match String.split_on_char '/' s with
  | [ addr_s; len_s ] -> (
      let len =
        match int_of_string_opt len_s with
        | Some l when l >= 0 && l <= 32 -> l
        | _ -> fail "bad prefix length"
      in
      match String.split_on_char '.' addr_s with
      | [ a; b; c; d ] ->
          let octet o =
            match int_of_string_opt o with
            | Some v when v >= 0 && v <= 255 -> Int32.of_int v
            | _ -> fail "bad octet"
          in
          let addr =
            List.fold_left
              (fun acc o -> Int32.logor (Int32.shift_left acc 8) (octet o))
              0l [ a; b; c; d ]
          in
          if Int32.logand addr (Int32.lognot (mask_of_len len)) <> 0l then
            fail "host bits set";
          { addr; len }
      | _ -> fail "expected dotted quad")
  | _ -> fail "expected addr/len"

let covers p q =
  q.len >= p.len && Int32.logand q.addr (mask_of_len p.len) = p.addr

type roa = { roa_prefix : prefix; max_len : int; origin : int }

let roa prefix_s ?max_len origin =
  let roa_prefix = prefix prefix_s in
  let max_len = match max_len with Some m -> m | None -> roa_prefix.len in
  if max_len < roa_prefix.len || max_len > 32 then
    invalid_arg "Rpki.roa: max_len out of range";
  { roa_prefix; max_len; origin }

type announcement = { ann_prefix : prefix; as_path : int list }

let origin_of ann =
  match List.rev ann.as_path with
  | origin :: _ -> origin
  | [] -> invalid_arg "Rpki.origin_of: empty AS path"

type validity = Valid | Invalid | Unknown

let validate roas ann =
  let covering = List.filter (fun r -> covers r.roa_prefix ann.ann_prefix) roas in
  if covering = [] then Unknown
  else begin
    let origin = origin_of ann in
    if
      List.exists
        (fun r -> r.origin = origin && ann.ann_prefix.len <= r.max_len)
        covering
    then Valid
    else Invalid
  end
