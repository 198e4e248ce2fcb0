(** Umbrella module: the public API of the S*BGP partial-deployment
    reproduction, re-exported under one roof.  Depend on [sbgp.core] and
    use [Core.Graph], [Core.Engine], etc.; the individual libraries remain
    available for finer-grained dependencies.

    Start with {!Topogen.generate} (or {!Serial.load_remapped}, the CLI's
    loader, for real data), then {!Engine.compute} for a single routing
    outcome ({!Batch.compute}, the one routing kernel, for many attackers
    of one destination at once), {!Metric.h_metric} for the paper's
    security metric, {!Partition.counts} for the
    deployment-invariant bounds, and {!Check.run} to audit any of it. *)

module Bucket_queue = Prelude.Bucket_queue
module Bitset = Prelude.Bitset
module Lane_counter = Prelude.Lane_counter
module Shard_cache = Prelude.Shard_cache
module Stats = Prelude.Stats
module Table = Prelude.Table
module Rng = Rng
module Graph = Topology.Graph
module Tiers = Topology.Tiers
module Serial = Topology.Serial
module Ixp = Topology.Ixp
module Topogen = Topogen
module Policy = Routing.Policy
module Outcome = Routing.Outcome
module Engine = Routing.Engine
module Batch = Routing.Batch
module Reference = Routing.Reference
module Staged = Routing.Staged
module Reach = Routing.Reach
module Incremental = Routing.Incremental
module Deployment = Deployment
module Bgpsim = Bgpsim
module Partition = Metric.Partition
module Phenomena = Metric.Phenomena
module Metric = Metric.H_metric
module Rpki = Rpki
module Attacks = Attacks
module Optimize = Optimize
module Parallel = Parallel
module Experiments = Experiments
module Check = Check
module Analysis = Analysis
