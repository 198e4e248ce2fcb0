type tiebreak = Batch.tiebreak = Bounds | Lowest_next_hop

(* One pair is one lane: the attacker's, or the attacker-free lane of
   an empty word.  [decode] without [into] builds a fresh outcome, so
   the result never borrows [ws]. *)
let compute ?tiebreak ?attacker_claim ?ws g policy dep ~dst ~attacker =
  let attackers = match attacker with None -> [||] | Some m -> [| m |] in
  Batch.decode
    (Batch.compute ?tiebreak ?attacker_claim ?ws g policy dep ~dst ~attackers)
    ~lane:0
