#include "exp/sharded_runner.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "common/parallel.h"

namespace jqos::exp {
namespace {

// Groups path indices by (DC1 name, DC2 name) in order of first appearance.
// This is the finest partition that keeps every causal interaction --
// cross-stream coding, shared inter-DC link ordering, cooperative recovery
// peering -- inside one shard.
std::vector<std::vector<std::size_t>> interaction_groups(
    const std::vector<geo::PathSample>& paths) {
  std::map<std::pair<std::string, std::string>, std::size_t> group_of;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto key = std::make_pair(paths[i].dc1.name, paths[i].dc2.name);
    auto [it, inserted] = group_of.try_emplace(key, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  return groups;
}

// Groups paths by (DC1, DC2) interaction group in first-appearance order,
// LPT-packs the groups into at most `num_shards` shards (0 = one shard per
// group), and keeps paths in ascending global-index order within each
// shard. A pure function of (paths, num_shards) -- never of thread count --
// which is what makes merged results thread-count invariant.
std::vector<std::vector<IndexedPath>> plan_shards(
    const std::vector<geo::PathSample>& paths, std::size_t num_shards) {
  auto groups = interaction_groups(paths);

  // LPT bin-packing of groups into shards: sort groups by size descending
  // (first-appearance order breaks ties, keeping the plan deterministic),
  // then place each into the currently lightest shard. num_shards == 0
  // means one shard per group.
  const std::size_t shard_count =
      num_shards == 0 ? groups.size() : std::min(num_shards, groups.size());
  std::vector<std::size_t> order(groups.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&groups](std::size_t a, std::size_t b) {
    return groups[a].size() > groups[b].size();
  });

  // Every shard ends up non-empty: shard_count <= groups.size() and LPT
  // always places into a zero-load shard while one exists.
  std::vector<std::vector<IndexedPath>> plans(shard_count);
  std::vector<std::size_t> load(plans.size(), 0);
  std::vector<std::vector<std::size_t>> shard_paths(plans.size());
  for (std::size_t g : order) {
    const std::size_t lightest = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    for (std::size_t p : groups[g]) shard_paths[lightest].push_back(p);
    load[lightest] += groups[g].size();
  }

  // Within a shard, paths keep ascending global-index order: flow ids are
  // handed out in build order, so the relative order of any two same-group
  // paths (the only order that can matter) matches every other composition.
  for (std::size_t s = 0; s < plans.size(); ++s) {
    std::sort(shard_paths[s].begin(), shard_paths[s].end());
    plans[s].reserve(shard_paths[s].size());
    for (std::size_t p : shard_paths[s]) {
      plans[s].push_back(IndexedPath{p, paths[p]});
    }
  }
  return plans;
}

}  // namespace

ShardedRunner::ShardedRunner(std::vector<geo::PathSample> paths,
                             const WanScenarioParams& params,
                             const ShardedRunParams& run_params)
    : params_(params),
      run_params_(run_params),
      backend_(netsim::evq_default_backend()),
      total_paths_(paths.size()) {
  if (!params_.faults.empty()) validate_fault_plan(params_.faults, paths);
  plans_ = plan_shards(paths, run_params_.num_shards);
}

ShardedRunner::~ShardedRunner() = default;

void ShardedRunner::run(SimDuration duration) {
  run([duration](std::size_t, ScenarioShard& shard) { shard.run(duration); });
}

void ShardedRunner::run(
    const std::function<void(std::size_t shard, ScenarioShard&)>& workload) {
  shards_.clear();
  shards_.resize(plans_.size());
  // Report the concurrency that can actually materialize: the pool clamps
  // workers to the shard count, so a 16-core machine running 6 shards used
  // 6 threads, and the bench rows should say so.
  threads_used_ = static_cast<unsigned>(std::min<std::size_t>(
      resolve_sim_threads(run_params_.num_threads), plans_.size()));

  // Build + run each shard; workers write only their own slot. The event
  // queue backend was resolved once in the constructor, so workers never
  // touch process-global backend state. A finished shard is kept for the
  // merge, so its worker trims its pool before building the next one.
  parallel_for_indexed(plans_.size(), threads_used_, [this, &workload](std::size_t i) {
    shards_[i] = std::make_unique<ScenarioShard>(plans_[i], params_, backend_);
    workload(i, *shards_[i]);
    shards_[i]->trim_pool();
  });

  // Merge: per-path results under their global indices.
  merged_.assign(total_paths_, nullptr);
  for (const auto& shard : shards_) {
    for (std::size_t p = 0; p < shard->path_count(); ++p) {
      const PathRuntime& rt = shard->path(p);
      merged_.at(rt.global_index) = &rt;
    }
  }
}

const PathRuntime& ShardedRunner::path(std::size_t global_index) const {
  if (merged_.empty()) throw std::logic_error("ShardedRunner::path before run()");
  return *merged_.at(global_index);
}

services::EncoderStats ShardedRunner::encoder_totals() const {
  services::EncoderStats total;
  for (const auto& shard : shards_) total += shard->encoder_totals();
  return total;
}

services::RecoveryStatsDc ShardedRunner::recovery_totals() const {
  services::RecoveryStatsDc total;
  for (const auto& shard : shards_) total += shard->recovery_totals();
  return total;
}

FaultSummary ShardedRunner::fault_summary() const {
  FaultSummary total;
  for (const auto& shard : shards_) total += shard->fault_summary();
  return total;
}

std::uint64_t ShardedRunner::total_events() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->sim().events_processed();
  return total;
}

}  // namespace jqos::exp
