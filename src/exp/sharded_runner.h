// Shard-per-thread scenario execution: partitions a scenario's wide-area
// paths into independent ScenarioShards, runs them on a std::thread pool,
// and merges per-path outcomes and service statistics back into the exact
// structures single-shard callers consume.
//
// Determinism contract (enforced by tests/sharded_scenario_test.cc):
//
//  * The PARTITION is a pure function of the paths and `num_shards` --
//    never of the thread count. JQOS_SIM_THREADS (or num_threads) only
//    decides how many shards execute concurrently; 1 thread and 64 threads
//    produce byte-identical merged results.
//  * The partition's atomic unit is the (DC1, DC2) interaction group: paths
//    sharing both endpoint DCs are cross-coded into the same batches, share
//    the inter-DC link's ordering/jitter processes, and serve as each
//    other's cooperative-recovery peers, so they must stay together. Paths
//    in different groups never exchange causally connected events.
//  * Because every random stream in a shard is derived from stable
//    identities (see scenario.h), the merged result is also independent of
//    `num_shards` itself -- running 45 paths as 1 shard, as one shard per
//    group, or anything between yields identical per-path outcomes and
//    identical summed encoder/recovery totals.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exp/scenario.h"

namespace jqos::exp {

struct ShardedRunParams {
  // Number of shards to pack the interaction groups into.
  //   0 = one shard per (DC1, DC2) group (maximum parallelism).
  //   n = groups are LPT-packed into at most n shards.
  // Part of the scenario's semantics only in that it bounds parallelism;
  // results are identical for every value (see header comment).
  std::size_t num_shards = 0;
  // Worker threads. 0 = JQOS_SIM_THREADS env var if set, else
  // hardware_concurrency. Never affects results.
  unsigned num_threads = 0;
};

// The partition both ShardedRunner and the workload layer's churn runner
// use: groups paths by (DC1, DC2) interaction group in first-appearance
// order, LPT-packs the groups into at most `num_shards` shards (0 = one
// shard per group), and keeps paths in ascending global-index order within
// each shard. A pure function of (paths, num_shards) -- never of thread
// count -- which is what makes merged results thread-count invariant.
std::vector<std::vector<IndexedPath>> plan_shards(
    const std::vector<geo::PathSample>& paths, std::size_t num_shards);

class ShardedRunner {
 public:
  ShardedRunner(std::vector<geo::PathSample> paths, const WanScenarioParams& params,
                const ShardedRunParams& run_params = {});
  ~ShardedRunner();

  ShardedRunner(const ShardedRunner&) = delete;
  ShardedRunner& operator=(const ShardedRunner&) = delete;

  // Builds every shard (on the pool) and runs the workload for `duration`.
  // Shard construction happens on the worker threads too: it is the
  // second-largest cost after the event loop and is just as independent.
  void run(SimDuration duration);

  // Merged view, valid after run(). Paths appear under their original
  // indices, exactly as a single ScenarioShard would expose them.
  std::size_t path_count() const { return total_paths_; }
  const PathRuntime& path(std::size_t global_index) const;

  // Summed across all shards' DCs; bit-identical to the monolithic totals.
  services::EncoderStats encoder_totals() const;
  services::RecoveryStatsDc recovery_totals() const;

  // Fault counters merged over all shards. DC crash counts deduplicate by
  // site (replicated DCs crash identically in every owning shard); traffic
  // counters sum, since only the owning shard's replica carries traffic.
  FaultSummary fault_summary() const;

  std::size_t shard_count() const { return plans_.size(); }
  ScenarioShard& shard(std::size_t i) { return *shards_.at(i); }
  unsigned threads_used() const { return threads_used_; }

  // Per-shard and merged simulator event counts (throughput reporting).
  const std::vector<std::uint64_t>& shard_events() const { return shard_events_; }
  std::uint64_t total_events() const;

 private:
  WanScenarioParams params_;
  ShardedRunParams run_params_;
  netsim::EvqBackend backend_;  // Resolved once, on the constructing thread.
  std::vector<std::vector<IndexedPath>> plans_;
  std::vector<std::unique_ptr<ScenarioShard>> shards_;
  std::vector<const PathRuntime*> merged_;  // Indexed by global path index.
  std::vector<std::uint64_t> shard_events_;
  unsigned threads_used_ = 0;
  std::size_t total_paths_ = 0;
};

}  // namespace jqos::exp
