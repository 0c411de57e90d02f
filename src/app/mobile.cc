#include "app/mobile.h"

#include <cmath>

namespace jqos::app {
namespace {

// "our survey of major US carriers shows users can typically expect 2-5
// Mbps uplink bandwidth".
constexpr double kUplinkMinMbps = 2.0;
constexpr double kUplinkMaxMbps = 5.0;
// Skype HD call bitrate (duplication doubles it).
constexpr double kCallMbps = 1.5;
// Battery drain measured over 20-minute calls, with and without
// duplication ("in both cases the battery drain was ~20 mAh").
constexpr double kBatteryBaseMah = 20.0;
constexpr double kBatteryDupExtraMah = 0.6;  // Below measurement noise.
// Cellular RTT to cloud providers: median 50-60 ms, p50-p90 spread
// 50-100 ms (1,000 pings to Amazon/Microsoft/Google over LTE).
constexpr double kRttMedianMs = 55.0;
constexpr double kRttSigma = 0.35;  // Lognormal spread reproducing the 50-100 band.
constexpr std::size_t kRttSamples = 1000;

}  // namespace

Samples mobile_rtt_samples(Rng& rng, std::size_t n) {
  Samples s;
  for (std::size_t i = 0; i < n; ++i) {
    s.add(rng.lognormal(std::log(kRttMedianMs), kRttSigma));
  }
  return s;
}

MobileFeasibility evaluate_mobile(Rng& rng) {
  MobileFeasibility f;
  f.dup_bitrate_mbps = 2.0 * kCallMbps;
  f.dup_fits_typical_uplink = f.dup_bitrate_mbps <= kUplinkMinMbps;
  f.dup_fits_good_uplink = f.dup_bitrate_mbps <= kUplinkMaxMbps;
  f.battery_overhead_percent = 100.0 * kBatteryDupExtraMah / kBatteryBaseMah;

  Samples rtts = mobile_rtt_samples(rng, kRttSamples);
  f.rtt_p50_ms = rtts.percentile(50);
  f.rtt_p90_ms = rtts.percentile(90);
  // Cooperative recovery: NACK to DC (~RTT/2) + peer solicitation round
  // (~RTT) + recovered packet (~RTT/2) => about 2 cellular RTTs.
  f.recovery_latency_ms = 2.0 * f.rtt_p50_ms;
  // Interactive budget ~150 ms one way; recovery helps when it fits and the
  // added delay is consistent (the paper's outage experiment succeeded).
  f.recovery_feasible_interactive = f.recovery_latency_ms <= 150.0;
  return f;
}

}  // namespace jqos::app
