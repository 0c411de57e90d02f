// Session arrival processes for the churn workload.
//
// Sessions on a wide-area path do not arrive on a grid. The classic memoryless
// model is Poisson (exponential inter-arrival gaps); measured arrival
// processes are often burstier, with heavy-tailed gaps -- long quiet spells
// punctuated by clumps. ArrivalProcess generates inter-arrival gaps for
// either regime, parameterized so that every kind matches the SAME mean rate:
// swapping kPoisson for kPareto changes burstiness, never offered load.
//
// All draws come from the caller-supplied Rng, so a process seeded from a
// path's stable identity (Rng::derive) produces the same arrival sequence in
// every sharding and thread count -- the property the churn determinism
// tests pin.
#pragma once

#include <cstdint>

#include "common/rng.h"

namespace jqos::workload {

enum class ArrivalKind : std::uint8_t {
  kPoisson,    // Exponential gaps (memoryless).
  kPareto,     // Heavy-tailed gaps: clumps and long silences.
  kLognormal,  // Moderately heavy-tailed; log-scale Gaussian gaps.
};

struct ArrivalParams {
  ArrivalKind kind = ArrivalKind::kPoisson;
  // Aggregate session arrival rate across the whole scenario; the churn
  // runner divides it evenly over the paths.
  double sessions_per_sec = 100.0;
  // Pareto shape (> 1 so the mean exists; 1 < alpha < 2 gives the
  // infinite-variance burstiness measured arrival processes show). The
  // lognormal shape is a constant in arrivals.cc.
  double pareto_alpha = 1.5;
};

// Gap generator for one path at one mean rate. Stateless beyond the Rng.
class ArrivalProcess {
 public:
  // `rate_per_sec` is this process's own mean arrival rate (the runner
  // passes aggregate/num_paths). Throws std::invalid_argument if the rate
  // is not positive or the Pareto shape is out of range.
  ArrivalProcess(const ArrivalParams& params, double rate_per_sec, Rng rng);

  // Next inter-arrival gap, in seconds (> 0). E[gap] == 1/rate for every
  // ArrivalKind (mean-matched parameterization; see .cc).
  double next_gap();

  double rate_per_sec() const { return rate_; }

 private:
  ArrivalParams params_;
  double rate_;
  Rng rng_;
  // Precomputed mean-matching parameters.
  double pareto_xm_ = 0.0;
  double lognormal_mu_ = 0.0;
};

}  // namespace jqos::workload
