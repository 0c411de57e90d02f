// Tests for the experiment harness: the Fig. 7 feasibility computation,
// the per-packet outcome rule, loss-episode classification, and the FEC
// what-if replay.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/fec_whatif.h"
#include "exp/feasibility.h"
#include "exp/planetlab.h"
#include "exp/scenario.h"

namespace jqos::exp {
namespace {

TEST(Feasibility, ServiceDelayOrderingHolds) {
  FeasibilityParams params;
  params.num_paths = 500;
  params.num_eu_hosts = 200;
  params.num_north_eu_hosts = 100;
  const FeasibilityResult r = run_feasibility(params);
  ASSERT_EQ(r.internet_ms.count(), 500u);
  // Median ordering: internet < caching < coding; forwarding ~ internet.
  EXPECT_LT(r.internet_ms.median(), r.caching_ms.median());
  EXPECT_LT(r.caching_ms.median(), r.coding_ms.median());
  EXPECT_NEAR(r.forwarding_ms.median(), r.internet_ms.median(),
              r.internet_ms.median() * 0.35);
}

TEST(Feasibility, InternetTailLongerThanForwarding) {
  FeasibilityParams params;
  params.num_paths = 2000;
  const FeasibilityResult r = run_feasibility(params);
  // Fig 7(a): Internet delivery has a long tail; the cloud path does not.
  const double internet_spread = r.internet_ms.percentile(99) - r.internet_ms.median();
  const double fwd_spread = r.forwarding_ms.percentile(99) - r.forwarding_ms.median();
  EXPECT_GT(internet_spread, fwd_spread);
}

TEST(Feasibility, MostPathsDeliverUnder150ms) {
  // Fig 7(a): "for 95% of the paths, end-to-end packet delivery using
  // coding and caching takes up to 150ms".
  FeasibilityParams params;
  params.num_paths = 2000;
  const FeasibilityResult r = run_feasibility(params);
  EXPECT_GT(r.caching_ms.cdf_at(150.0), 0.85);
  EXPECT_GT(r.coding_ms.cdf_at(150.0), 0.80);
}

TEST(Feasibility, RecoveryWithinHalfRtt) {
  // Fig 7(b): 95% of recoveries within 0.5 RTT; caching recovers earlier
  // than coding.
  FeasibilityParams params;
  params.num_paths = 2000;
  const FeasibilityResult r = run_feasibility(params);
  EXPECT_GT(r.caching_recovery_over_rtt.cdf_at(0.5), 0.9);
  EXPECT_GT(r.coding_recovery_over_rtt.cdf_at(0.5), 0.75);
  EXPECT_LT(r.caching_recovery_over_rtt.median(), r.coding_recovery_over_rtt.median());
}

TEST(Feasibility, DeltaShrinksAcrossDcGenerations) {
  // Fig 7(d): Ireland (2007) -> Frankfurt (2014) -> Stockholm (now).
  FeasibilityParams params;
  params.num_paths = 100;
  params.num_north_eu_hosts = 300;
  const FeasibilityResult r = run_feasibility(params);
  EXPECT_LT(r.delta_neu_now_ms.median(), r.delta_neu_2014_ms.median());
  EXPECT_LT(r.delta_neu_2014_ms.median(), r.delta_neu_2007_ms.median());
}

// --------------------------- episode classifier ---------------------------

std::vector<Outcome> outcomes_from_string(const std::string& s) {
  // 'd' = direct, 'r' = recovered, 'l' = lost, '.' = pending.
  std::vector<Outcome> out;
  for (char c : s) {
    switch (c) {
      case 'd': out.push_back(Outcome::kDirect); break;
      case 'r': out.push_back(Outcome::kRecovered); break;
      case 'l': out.push_back(Outcome::kLost); break;
      default: out.push_back(Outcome::kPending); break;
    }
  }
  return out;
}

// ------------------------------ outcome rule -------------------------------

TEST(Outcome, SettleFollowsThePaperRule) {
  // One row per record kind: what it settles each starting outcome to, in
  // the order pending, direct, recovered, lost (the codes of
  // outcomes_from_string), and the delay it returns. The path RTT is 100 ms.
  constexpr double kRttMs = 100.0;
  constexpr SimTime kDetected = msec(1000);
  const auto recovery = [](SimTime detected, SimTime delivered) {
    return endpoint::DeliveryRecord{
        .delivered_at = delivered, .recovered = true, .detected_missing_at = detected};
  };
  struct Row {
    const char* kind;
    endpoint::DeliveryRecord rec;
    const char* settles;
    double delay_ms;
  };
  const Row rows[] = {
      {"direct", {.delivered_at = kDetected}, "ddrl", -1.0},
      {"direct filling a detected hole",
       {.delivered_at = kDetected + msec(500), .detected_missing_at = kDetected},
       "ddrl", -1.0},
      {"recovery in exactly one RTT", recovery(kDetected, kDetected + msec(100)), "rdrl",
       100.0},
      {"recovery 1 us over one RTT", recovery(kDetected, kDetected + msec(100) + 1), "ldrl",
       to_ms(msec(100) + 1)},
      {"recovery of an undetected loss", recovery(0, kDetected + sec(5)), "rdrl", -1.0},
      {"give-up",
       {.delivered_at = kDetected + sec(1), .lost = true, .detected_missing_at = kDetected},
       "ldrl", -1.0},
      {"late direct copy", {.delivered_at = kDetected, .late_direct = true}, ".ddl", -1.0},
  };
  const std::vector<Outcome> starts = outcomes_from_string(".drl");
  for (const Row& row : rows) {
    const std::vector<Outcome> want = outcomes_from_string(row.settles);
    for (std::size_t i = 0; i < starts.size(); ++i) {
      SCOPED_TRACE(std::string(row.kind) + " from '" + ".drl"[i] + "'");
      Outcome outcome = starts[i];
      EXPECT_DOUBLE_EQ(settle_outcome(row.rec, kRttMs, outcome), row.delay_ms);
      EXPECT_EQ(outcome, want[i]);
    }
  }
}

TEST(Episodes, ClassifiesByBurstLength) {
  // One random loss, one 3-packet burst, one 20-packet outage.
  std::string s = "dddrdd";
  s += "dd";
  s += "rrr";
  s += "dddd";
  s += std::string(20, 'l');
  s += "dd";
  const EpisodeMix mix = classify_episodes(outcomes_from_string(s));
  EXPECT_EQ(mix.random_episodes, 1u);
  EXPECT_EQ(mix.multi_episodes, 1u);
  EXPECT_EQ(mix.outage_episodes, 1u);
  EXPECT_EQ(mix.random_packets, 1u);
  EXPECT_EQ(mix.multi_packets, 3u);
  EXPECT_EQ(mix.outage_packets, 20u);
  EXPECT_NEAR(mix.outage_fraction(), 20.0 / 24.0, 1e-9);
}

TEST(Episodes, BoundaryLengths) {
  // 14 packets is still "multi"; 15 becomes an outage.
  EXPECT_EQ(classify_episodes(outcomes_from_string(std::string(14, 'r'))).multi_episodes,
            1u);
  EXPECT_EQ(classify_episodes(outcomes_from_string(std::string(15, 'r'))).outage_episodes,
            1u);
}

TEST(Episodes, PendingEntriesSkipped) {
  const EpisodeMix mix = classify_episodes(outcomes_from_string("d..r..d"));
  EXPECT_EQ(mix.random_episodes, 1u);
}

TEST(Episodes, TrailingRunClosed) {
  const EpisodeMix mix = classify_episodes(outcomes_from_string("ddrr"));
  EXPECT_EQ(mix.multi_episodes, 1u);
}

// ------------------------------ FEC what-if --------------------------------

TEST(FecWhatif, LossTraceFiltersPending) {
  auto trace = loss_trace(outcomes_from_string("dr.l"));
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_FALSE(trace[0]);
  EXPECT_TRUE(trace[1]);
  EXPECT_TRUE(trace[2]);
}

TEST(FecWhatif, SingleLossRecoveredAt20Percent) {
  // One loss in a 5-packet block with 1 surviving FEC packet: recovered.
  std::vector<bool> trace = {false, true, false, false, false, false};
  EXPECT_DOUBLE_EQ(fec_recovery_rate(trace, 5, 1), 1.0);
}

TEST(FecWhatif, BurstDefeatsLowOverheadFec) {
  // Three consecutive losses in one block: 1 FEC packet cannot recover;
  // 3 can (40% has 2 -> no, 100% has 5 -> yes).
  std::vector<bool> trace(10, false);
  trace[1] = trace[2] = trace[3] = true;
  EXPECT_DOUBLE_EQ(fec_recovery_rate(trace, 5, 1), 0.0);
  EXPECT_DOUBLE_EQ(fec_recovery_rate(trace, 5, 2), 0.0);
  EXPECT_DOUBLE_EQ(fec_recovery_rate(trace, 5, 3), 1.0);
  EXPECT_TRUE(has_fec_unrecoverable_episode(trace, 5, 2));
  EXPECT_FALSE(has_fec_unrecoverable_episode(trace, 5, 3));
}

TEST(FecWhatif, OutageDefeatsFullDuplication) {
  // An outage spanning a whole block *and* its trailing FEC packets kills
  // even 100% overhead -- CR-WAN's cross-path advantage (Fig 8(c)).
  std::vector<bool> trace(30, false);
  for (std::size_t i = 5; i < 20; ++i) trace[i] = true;
  EXPECT_LT(fec_recovery_rate(trace, 5, 5), 1.0);
  EXPECT_TRUE(has_fec_unrecoverable_episode(trace, 5, 5));
}

TEST(FecWhatif, PercentIncreaseSemantics) {
  EXPECT_DOUBLE_EQ(percent_increase(0.9, 0.45), 100.0);
  EXPECT_DOUBLE_EQ(percent_increase(0.5, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percent_increase(0.4, 0.5), 0.0);  // Clamped at zero.
  EXPECT_DOUBLE_EQ(percent_increase(0.9, 0.0), 1e4);  // Log-axis cap.
  EXPECT_DOUBLE_EQ(percent_increase(0.0, 0.0), 0.0);
}

TEST(FecWhatif, NoLossesMeansPerfectRate) {
  std::vector<bool> trace(20, false);
  EXPECT_DOUBLE_EQ(fec_recovery_rate(trace, 5, 1), 1.0);
}

}  // namespace
}  // namespace jqos::exp
