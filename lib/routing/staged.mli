(** Literal transcription of the multi-stage BFS algorithms of Appendix B
    (Fix Routes with the FSCR / FCR / FSPeeR / FPeeR / FSPrvR / FPrvR
    subroutines), for the [Policy.Standard] local-preference model.

    Subroutine order per model (Appendix B.2-B.4):
    - security 3rd: FCR, FPeeR, FPrvR
    - security 2nd: FSCR, FCR, FPeeR, FSPrvR, FPrvR
    - security 1st: FSCR, FSPeeR, FSPrvR, FCR, FPeeR, FPrvR

    This implementation is deliberately simple and O(V^2 * deg): it rescans
    for the next AS to fix at every iteration, exactly as the paper states
    the algorithm.  It exists as an executable specification; the
    production kernel {!Batch} is property-tested to agree with it. *)

val compute :
  Topology.Graph.t ->
  Policy.t ->
  Deployment.t ->
  dst:int ->
  attacker:int option ->
  Outcome.t
(** Bounds-mode semantics only (the BPR set's endpoints are accumulated
    into [to_d]/[to_m]).  Raises [Invalid_argument] if the policy's LP
    model is not [Standard], or on invalid ids. *)
