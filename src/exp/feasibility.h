// The Section 6.1 feasibility study (Figure 7), computed analytically from
// the synthetic path dataset exactly as the paper computes it from ping
// measurements: one-way segment delays plugged into the per-service delay
// formulas.
#pragma once

#include <cstdint>

#include "common/stats.h"
#include "endpoint/service_selector.h"
#include "geo/path_dataset.h"

namespace jqos::exp {

struct FeasibilityParams {
  std::size_t num_paths = 6250;  // The paper's US-East -> EU path count.
  std::size_t num_eu_hosts = 1000;
  std::size_t num_north_eu_hosts = 400;
  std::uint64_t seed = 7;
};

struct FeasibilityResult {
  // Fig 7(a): end-to-end packet delivery latency per service (ms, one way).
  Samples internet_ms;
  Samples forwarding_ms;
  Samples caching_ms;
  Samples coding_ms;
  // Fig 7(b): recovery delay as a fraction of the direct-path RTT.
  Samples caching_recovery_over_rtt;
  Samples coding_recovery_over_rtt;
  // Fig 7(c): end-host -> nearest-DC latency for EU hosts (ms, one way).
  Samples delta_eu_ms;
  // Fig 7(d): northern-EU delta under the 2007 / 2014 / 2018 DC catalogs.
  Samples delta_neu_2007_ms;
  Samples delta_neu_2014_ms;
  Samples delta_neu_now_ms;
};

FeasibilityResult run_feasibility(const FeasibilityParams& params);

// The PathDelays for one sample (shared with the service selector).
endpoint::PathDelays to_path_delays(const geo::PathSample& sample, double delta_median_ms);

}  // namespace jqos::exp
