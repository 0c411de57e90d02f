// One-way delay processes for simulated links.
//
// Internet paths get a base propagation delay plus heavy-tailed jitter
// (lognormal body, occasional Pareto spikes -- the "long tail" the paper
// observes on direct Internet delivery in Figure 7(a)). Cloud paths get the
// same base mechanism with tight jitter, reflecting the well-provisioned
// inter-DC network.
#pragma once

#include <memory>

#include "common/rng.h"
#include "common/sim_time.h"

namespace jqos::netsim {

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  // Per-packet one-way delay sample.
  virtual SimDuration sample(SimTime now) = 0;

  // The deterministic floor of this model (propagation component); exposed
  // so path setup code can compute RTT baselines.
  virtual SimDuration base() const = 0;
};

using LatencyModelPtr = std::unique_ptr<LatencyModel>;

// Constant delay (useful in unit tests and idealized topologies).
LatencyModelPtr make_fixed_latency(SimDuration d);

// base + lognormal jitter; with probability `spike_prob` an additional
// Pareto-distributed spike is added (queueing excursions; the Pareto shape
// is a constant in latency_model.cc).
struct JitterParams {
  SimDuration base = msec(40);
  double jitter_sigma = 0.45;      // sigma of the lognormal, in log-ms space
  double jitter_scale_ms = 1.0;    // median jitter in ms
  double spike_prob = 0.0;         // probability of a tail spike per packet
  double spike_scale_ms = 20.0;    // Pareto scale (minimum spike)
};
LatencyModelPtr make_jitter_latency(const JitterParams& params, Rng rng);

}  // namespace jqos::netsim
