#include "exp/planetlab.h"

#include <algorithm>

#include "exp/fec_whatif.h"

namespace jqos::exp {

double EpisodeMix::random_fraction() const {
  const std::uint64_t total = random_packets + multi_packets + outage_packets;
  return total == 0 ? 0.0 : static_cast<double>(random_packets) / static_cast<double>(total);
}

double EpisodeMix::multi_fraction() const {
  const std::uint64_t total = random_packets + multi_packets + outage_packets;
  return total == 0 ? 0.0 : static_cast<double>(multi_packets) / static_cast<double>(total);
}

double EpisodeMix::outage_fraction() const {
  const std::uint64_t total = random_packets + multi_packets + outage_packets;
  return total == 0 ? 0.0 : static_cast<double>(outage_packets) / static_cast<double>(total);
}

EpisodeMix classify_episodes(const std::vector<Outcome>& outcomes) {
  EpisodeMix mix;
  std::size_t run = 0;
  auto close_run = [&mix](std::size_t len) {
    if (len == 0) return;
    if (len == 1) {
      ++mix.random_episodes;
      mix.random_packets += len;
    } else if (len <= 14) {
      ++mix.multi_episodes;
      mix.multi_packets += len;
    } else {
      ++mix.outage_episodes;
      mix.outage_packets += len;
    }
  };
  for (Outcome o : outcomes) {
    if (o == Outcome::kPending) continue;
    if (o == Outcome::kDirect) {
      close_run(run);
      run = 0;
    } else {
      ++run;
    }
  }
  close_run(run);
  return mix;
}

PlanetlabResult run_planetlab(const PlanetlabConfig& config) {
  Rng rng(config.seed);
  auto samples = geo::planetlab_paths(config.num_paths, rng);

  WanScenarioParams params;
  params.service = ServiceType::kCode;
  params.coding = config.coding;
  params.direct = config.direct;
  params.cbr = config.cbr;
  params.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;

  ShardedRunParams run_params;
  run_params.num_shards = config.num_shards;
  run_params.num_threads = config.num_threads;
  ShardedRunner scenario(std::move(samples), params, run_params);
  scenario.run(config.duration);

  PlanetlabResult result;
  result.shards_used = scenario.shard_count();
  result.threads_used = scenario.threads_used();
  result.events_processed = scenario.total_events();
  std::uint64_t lost_total = 0;
  std::uint64_t recovered_total = 0;
  std::uint64_t offered_total = 0;
  for (std::size_t i = 0; i < scenario.path_count(); ++i) {
    const PathRuntime& rt = scenario.path(i);
    PlanetlabPathResult pr;
    pr.label = rt.label;
    pr.rtt_ms = rt.rtt_ms;
    pr.loss_rate = rt.loss_rate();
    pr.recovery_success = rt.recovery_success();
    pr.episodes = classify_episodes(rt.outcome);
    pr.recovery_ms = rt.recovery_ms;
    pr.trace = loss_trace(rt.outcome);

    recovered_total += rt.recovered;
    lost_total += rt.direct_losses();
    offered_total += rt.delivered_direct + rt.direct_losses();

    result.per_path_recovery.add(pr.recovery_success * 100.0);
    for (double ms : rt.recovery_ms.values()) {
      result.recovery_over_rtt_all.add(ms / rt.rtt_ms);
      result.recovery_over_rtt_by_region[rt.label].add(ms / rt.rtt_ms);
    }
    result.paths.push_back(std::move(pr));
  }
  result.overall_recovery =
      lost_total == 0 ? 1.0
                      : static_cast<double>(recovered_total) / static_cast<double>(lost_total);
  result.overall_loss_rate =
      offered_total == 0
          ? 0.0
          : static_cast<double>(lost_total) / static_cast<double>(offered_total);
  result.encoder = scenario.encoder_totals();
  result.recovery = scenario.recovery_totals();
  return result;
}

Samples run_straggler_ablation(PlanetlabConfig config) {
  PlanetlabConfig one = config;
  one.coding.cross_coded = 1;
  PlanetlabConfig two = config;
  two.coding.cross_coded = 2;

  const PlanetlabResult r1 = run_planetlab(one);
  const PlanetlabResult r2 = run_planetlab(two);

  Samples increase;
  const std::size_t n = std::min(r1.paths.size(), r2.paths.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double base = r1.paths[i].recovery_success;
    const double improved = r2.paths[i].recovery_success;
    increase.add(percent_increase(improved, base, 100.0));
  }
  return increase;
}

}  // namespace jqos::exp
