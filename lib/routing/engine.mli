(** One (attacker, destination) stable state as an {!Outcome.t}: the
    one-pair facade of the routing kernel {!Batch}.

    [compute] solves one lane — the attacker's, or the attacker-free
    lane — and decodes it into a fresh outcome.  Code that evaluates
    many pairs of one destination, or only needs each lane's counts,
    calls {!Batch} directly and skips the decode.  The agreement with
    the {!Reference} kernel, the literal staged algorithm ({!Staged})
    and the dynamic message-passing simulator is property-tested. *)

type tiebreak = Batch.tiebreak = Bounds | Lowest_next_hop

val compute :
  ?tiebreak:tiebreak ->
  ?attacker_claim:int ->
  ?ws:Batch.Workspace.t ->
  Topology.Graph.t ->
  Policy.t ->
  Deployment.t ->
  dst:int ->
  attacker:int option ->
  Outcome.t
(** [compute g policy dep ~dst ~attacker] returns the stable routing
    state toward [dst].  [attacker = None] computes normal conditions.
    [tiebreak] and [attacker_claim] are {!Batch.compute}'s.

    [ws] solves in the given workspace instead of building one (see
    {!Batch.compute}); paper-scale callers pass
    [Batch.Workspace.local ()].  The returned outcome is fresh either
    way: it never borrows [ws] and stays valid after later solves.

    Raises [Invalid_argument] if [attacker = Some dst], ids are out of
    range, or [attacker_claim < 0]. *)
