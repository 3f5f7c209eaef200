// Sharded hierarchical aggregation (DESIGN.md §12).
//
// One flat roster cannot reach millions of clients: a single aggregator
// would hold every update at once and run one giant robust-statistics
// pass. The aggregation tree splits the cohort into shards by a pure hash
// of the client id, runs the full robust strategy per shard on an "edge"
// accumulator (RobustAggregator::begin_shard), and merges the compact
// ShardSummarys at the root (RobustAggregator::combine). Edge finalizes
// are independent, so they run in parallel — one pool task per shard —
// while the root merge visits summaries in ascending shard-id order,
// keeping the whole tree bit-identical for any thread count.
//
// Shard assignment is a pure function of (assignment_seed, client_id):
// stable across rounds, churn (a client that leaves and rejoins lands in
// the same shard), process restarts and durable-store recovery. A shard
// may be empty in any given round — all its clients churned away or were
// quarantined — and the root combiner skips the empty summaries.
//
// num_shards == 1 folds the whole cohort into one accumulator and takes
// combine()'s copy fast path: bit-identical to flat aggregate().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fl/robust_aggregator.h"

namespace dinar {
class ExecutionContext;
}

namespace dinar::fl {

struct ShardConfig {
  // Edge aggregators in the tree; 1 = flat aggregation (the default).
  std::size_t num_shards = 1;
  // Seeds the client-id hash so distinct deployments get distinct
  // partitions; the partition is stable for a fixed seed.
  std::uint64_t assignment_seed = 0;
};

// The shard owning `client_id`: splitmix64(assignment_seed ^ id) mod
// num_shards. splitmix64's avalanche keeps shards balanced even for
// consecutive ids.
std::uint32_t shard_of(int client_id, const ShardConfig& config);

struct HierarchicalResult {
  RobustAggregateResult result;
  // Per-shard statistics in shard-id order, one entry per shard including
  // empty ones (deterministic; persisted in RoundOutcome).
  std::vector<ShardStats> shards;
  // Wall-clock seconds each shard's cumulative absorb + finalize took,
  // indexed by shard id (0.0 for empty shards). Timing only — NEVER
  // persisted or compared; everything bit-reproducible lives in `shards`.
  std::vector<double> shard_seconds;
  // Wall-clock seconds of the root combine. Timing only, like above.
  double combine_seconds = 0.0;
};

// The aggregation tree, driven incrementally — the only way the server
// aggregates (DESIGN.md §12-§13): the session opens one ShardAccumulator
// per shard up front, absorb() routes each validated update to its shard
// (shard_of) the moment it is accepted, and finalize() closes the
// accumulators as one pool task per shard and runs the root combine in
// ascending shard-id order.
//
// Determinism: each shard's summary is the one shard_aggregate would emit
// for that shard's updates in absorb order (ShardAccumulator's contract),
// and the root combine is a fixed-order merge — so the result depends on
// the absorb sequence only, never on the thread count.
//
// absorb() must be called from one thread (the pipeline's commit thread)
// and runs inline — see ShardAccumulator. `aggregator` and `global` must
// outlive the session; `global` must not change before finalize() returns.
// finalize() throws (via combine) when every shard stayed empty: the
// caller carries the previous model forward instead.
class ShardedAggregationSession {
 public:
  ShardedAggregationSession(RobustAggregator& aggregator,
                            const nn::FlatParams& global, const ShardConfig& config,
                            const ExecutionContext* exec);

  void absorb(const ModelUpdateMsg& update);
  HierarchicalResult finalize();
  std::size_t absorbed() const { return absorbed_; }

 private:
  RobustAggregator& aggregator_;
  const nn::FlatParams& global_;
  ShardConfig config_;
  const ExecutionContext* exec_;
  std::vector<std::unique_ptr<ShardAccumulator>> accumulators_;
  std::vector<double> shard_seconds_;
  std::size_t absorbed_ = 0;
};

}  // namespace dinar::fl
