// End-to-end integration tests: the full simulated deployment (senders,
// DCs with all services installed, receivers) recovering real losses via
// each of the three services, plus determinism of the whole stack.
#include <gtest/gtest.h>

#include "exp/planetlab.h"
#include "exp/scenario.h"

namespace jqos::exp {
namespace {

WanScenarioParams fast_params(ServiceType service, std::uint64_t seed = 7) {
  WanScenarioParams p;
  p.service = service;
  p.seed = seed;
  p.coding.k = 6;
  p.coding.cross_coded = 2;
  p.coding.in_block = 5;
  p.coding.in_coded = 1;
  // CBR inter-arrivals are 40 ms; the queue timer must leave room for
  // batches to actually fill (the per-application tuning of Section 5).
  p.coding.queue_timeout = msec(300);
  p.cbr.on_duration = sec(30);
  p.cbr.mean_off = sec(20);
  p.cbr.packets_per_second = 25.0;
  p.cbr.payload_bytes = 256;
  p.direct.bernoulli_loss = 0.004;
  p.direct.gilbert.p_good_to_bad = 0.001;
  p.direct.gilbert.p_bad_to_good = 0.3;
  p.direct.gilbert.loss_in_bad = 0.85;
  p.direct.outage_path_fraction = 0.5;
  p.direct.outage.mean_interval = sec(60);
  p.direct.outage.min_len = sec(1);
  p.direct.outage.max_len = sec(2);
  return p;
}

std::vector<geo::PathSample> test_paths(std::size_t n, std::uint64_t seed = 3) {
  Rng rng(seed);
  return geo::planetlab_paths(n, rng);
}

TEST(Integration, CodingServiceRecoversLosses) {
  ScenarioShard scenario(test_paths(12), fast_params(ServiceType::kCode));
  scenario.run(minutes(3));

  std::uint64_t delivered = 0, recovered = 0, lost = 0;
  for (std::size_t i = 0; i < scenario.path_count(); ++i) {
    const PathRuntime& rt = scenario.path(i);
    delivered += rt.delivered_direct;
    recovered += rt.recovered;
    lost += rt.lost;
  }
  ASSERT_GT(delivered, 10000u);  // The workload actually ran.
  ASSERT_GT(recovered + lost, 50u);  // Losses actually happened.
  // The coding service recovers a solid majority of direct-path losses.
  const double rate = static_cast<double>(recovered) / static_cast<double>(recovered + lost);
  EXPECT_GT(rate, 0.5);

  const auto enc = scenario.encoder_totals();
  EXPECT_GT(enc.cross_batches, 0u);
  EXPECT_GT(enc.in_batches, 0u);
  const auto rec = scenario.recovery_totals();
  EXPECT_GT(rec.coop_success + rec.in_stream_served, 0u);
}

TEST(Integration, CachingServiceRecoversLosses) {
  ScenarioShard scenario(test_paths(8), fast_params(ServiceType::kCache));
  scenario.run(minutes(3));
  std::uint64_t recovered = 0, lost = 0;
  for (std::size_t i = 0; i < scenario.path_count(); ++i) {
    recovered += scenario.path(i).recovered;
    lost += scenario.path(i).lost;
  }
  ASSERT_GT(recovered + lost, 30u);
  const double rate = static_cast<double>(recovered) / static_cast<double>(recovered + lost);
  // Caching stores every packet at DC2, so recovery should be very high.
  EXPECT_GT(rate, 0.7);
}

TEST(Integration, RecoveryLatencyMostlyUnderHalfRtt) {
  ScenarioShard scenario(test_paths(10), fast_params(ServiceType::kCode, 11));
  scenario.run(minutes(3));
  Samples all;
  for (std::size_t i = 0; i < scenario.path_count(); ++i) {
    const PathRuntime& rt = scenario.path(i);
    for (double ms : rt.recovery_ms.values()) all.add(ms / rt.rtt_ms);
  }
  ASSERT_GT(all.count(), 30u);
  // Figure 8(d): recoveries complete well under the direct-path RTT; the
  // bulk within ~0.5x.
  EXPECT_GT(all.cdf_at(0.75), 0.7);
}

TEST(Integration, CodingCheaperThanCachingCheaperThanForwarding) {
  // Inter-DC egress bytes ordering — the economic core of the paper.
  auto inter_dc_bytes = [](ServiceType service) {
    ScenarioShard scenario(test_paths(6, 5), fast_params(service, 13));
    scenario.run(minutes(2));
    std::uint64_t egress = 0;
    auto& overlay = scenario.overlay();
    for (std::size_t i = 0; i < overlay.dc_count(); ++i) {
      egress += overlay.dc(i).egress_bytes();
    }
    return egress;
  };
  const std::uint64_t code = inter_dc_bytes(ServiceType::kCode);
  const std::uint64_t cache = inter_dc_bytes(ServiceType::kCache);
  const std::uint64_t fwd = inter_dc_bytes(ServiceType::kForward);
  EXPECT_LT(code, cache);
  EXPECT_LT(cache, fwd);
}

TEST(Integration, DeterministicForFixedSeed) {
  auto fingerprint = [] {
    ScenarioShard scenario(test_paths(5, 9), fast_params(ServiceType::kCode, 21));
    scenario.run(minutes(1));
    std::uint64_t fp = 0;
    for (std::size_t i = 0; i < scenario.path_count(); ++i) {
      const PathRuntime& rt = scenario.path(i);
      fp = fp * 1000003 + rt.delivered_direct;
      fp = fp * 1000003 + rt.recovered;
      fp = fp * 1000003 + rt.lost;
    }
    return fp;
  };
  EXPECT_EQ(fingerprint(), fingerprint());
}

TEST(Integration, PlanetlabHarnessEndToEnd) {
  PlanetlabConfig config;
  config.num_paths = 10;
  config.duration = minutes(4);
  config.cbr.on_duration = sec(40);
  config.cbr.mean_off = sec(30);
  config.cbr.packets_per_second = 20.0;
  config.direct.outage.mean_interval = sec(90);
  const PlanetlabResult result = run_planetlab(config);
  ASSERT_EQ(result.paths.size(), 10u);
  EXPECT_GT(result.overall_recovery, 0.4);
  EXPECT_GT(result.overall_loss_rate, 0.0);
  EXPECT_EQ(result.per_path_recovery.count(), 10u);
  // Region grouping produced at least one series with data.
  EXPECT_FALSE(result.recovery_over_rtt_by_region.empty());
  // Traces exist for the FEC what-if.
  for (const auto& p : result.paths) EXPECT_FALSE(p.trace.empty());
}

TEST(Integration, StragglerProtectionAblationRuns) {
  PlanetlabConfig config;
  config.num_paths = 8;
  config.duration = minutes(2);
  config.cbr.on_duration = sec(30);
  config.cbr.mean_off = sec(20);
  const Samples increase = run_straggler_ablation(config);
  EXPECT_EQ(increase.count(), 8u);
  // Improvements are non-negative by construction.
  EXPECT_GE(increase.min(), 0.0);
}

}  // namespace
}  // namespace jqos::exp
