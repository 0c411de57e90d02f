// Mobile-network feasibility model (Section 6.5).
//
// The paper's mobile study is a set of threshold checks made from
// measurements on LTE handsets: does duplicating a Skype stream fit in
// typical cellular uplinks, what does duplication cost in battery, and are
// cellular RTTs to the major clouds low enough for recovery to help. We
// encode those measured constants and the checks themselves; the bench
// prints the same findings table.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace jqos::app {

struct MobileFeasibility {
  double dup_bitrate_mbps = 0.0;
  bool dup_fits_typical_uplink = false;   // vs the 2 Mbps uplink floor
  bool dup_fits_good_uplink = false;      // vs a good 5 Mbps uplink
  double battery_overhead_percent = 0.0;
  double rtt_p50_ms = 0.0;
  double rtt_p90_ms = 0.0;
  // Cooperative recovery costs ~4 host<->DC hops; feasible for apps that
  // adapt to consistent added delay (the paper's Skype-over-LTE finding).
  double recovery_latency_ms = 0.0;
  bool recovery_feasible_interactive = false;
};

// Draws an RTT sample distribution and evaluates every Section 6.5 check.
MobileFeasibility evaluate_mobile(Rng& rng);

// `n` cellular RTT samples alone (for the bench's distribution table).
Samples mobile_rtt_samples(Rng& rng, std::size_t n);

}  // namespace jqos::app
