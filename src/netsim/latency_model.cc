#include "netsim/latency_model.h"

#include <cmath>

namespace jqos::netsim {
namespace {

// Pareto shape of the tail spikes; < 2 => heavy tail.
constexpr double kSpikeAlpha = 1.5;

class FixedLatency final : public LatencyModel {
 public:
  explicit FixedLatency(SimDuration d) : d_(d) {}
  SimDuration sample(SimTime) override { return d_; }
  SimDuration base() const override { return d_; }

 private:
  SimDuration d_;
};

class JitterLatency final : public LatencyModel {
 public:
  JitterLatency(const JitterParams& params, Rng rng)
      : p_(params), log_scale_(std::log(params.jitter_scale_ms)), rng_(rng) {}

  SimDuration sample(SimTime) override {
    // Lognormal with median jitter_scale_ms: exp(N(ln(scale), sigma)).
    double jitter_ms = rng_.lognormal(log_scale_, p_.jitter_sigma);
    if (p_.spike_prob > 0.0 && rng_.bernoulli(p_.spike_prob)) {
      jitter_ms += rng_.pareto(p_.spike_scale_ms, kSpikeAlpha);
    }
    return p_.base + msec_f(jitter_ms);
  }

  SimDuration base() const override { return p_.base; }

 private:
  JitterParams p_;
  double log_scale_;  // ln(jitter_scale_ms), hoisted off the per-packet path.
  Rng rng_;
};

}  // namespace

LatencyModelPtr make_fixed_latency(SimDuration d) { return std::make_unique<FixedLatency>(d); }

LatencyModelPtr make_jitter_latency(const JitterParams& params, Rng rng) {
  return std::make_unique<JitterLatency>(params, rng);
}

}  // namespace jqos::netsim
