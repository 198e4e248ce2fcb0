(** The pre-CSR routing kernel, preserved verbatim as a differential
    baseline for the packed CSR engine ({!Engine}).

    Same semantics, same signature, same outcomes — but the original
    memory layout: seven parallel candidate arrays, three per-class
    [Array.iter] adjacency closures per expansion, and a full
    {!Policy.rank} computation (variant dispatch included) per offered
    edge.  {!Check.Kernel} ([sbgp check --kernel]) and the qcheck suite
    in test/test_kernel.ml compare {!Engine} against this module
    bit-for-bit; an independent oracle is the whole point of keeping the
    slow version around.  Do not optimize it. *)

type tiebreak = Engine.tiebreak = Bounds | Lowest_next_hop

module Workspace : sig
  (** Reusable scratch buffers in the {e old} layout.  Independent of
      {!Engine.Workspace} — a reference workspace cannot be passed to the
      packed engine or vice versa. *)

  type t

  val create : int -> t
end

val compute :
  ?tiebreak:tiebreak ->
  ?attacker_claim:int ->
  ?ws:Workspace.t ->
  Topology.Graph.t ->
  Policy.t ->
  Deployment.t ->
  dst:int ->
  attacker:int option ->
  Outcome.t
(** Exactly {!Engine.compute}'s contract, computed by the pre-change
    kernel.  See {!Engine.compute} for the parameter semantics. *)
