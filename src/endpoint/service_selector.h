// Service selection (Section 3.5) and the Section 6.1 delay formulas.
//
// Applications register with a latency budget; the framework picks the
// *cheapest* service whose expected end-to-end packet delivery delay fits
// the budget (coding < caching < forwarding in cost). The delay estimates
// use the same formulas the paper uses for the feasibility study:
//
//   internet    = y
//   forwarding  = x + delta_S + delta_R
//   caching     = y + 2*delta_R + WAIT
//   coding      = y + 2*delta_R + 2*delta_R_median + WAIT
//
// where WAIT = max(0, (delta_S + x) - y) accounts for pulls that must wait
// for the cloud copy to reach DC2 when the cloud route is slower than the
// direct path.
#pragma once

#include <optional>
#include <vector>

#include "common/packet.h"

namespace jqos::endpoint {

// One-way segment delays for one sender->receiver pair, in milliseconds.
struct PathDelays {
  double y_ms = 0.0;         // direct Internet, sender -> receiver
  double delta_s_ms = 0.0;   // sender -> DC1
  double delta_r_ms = 0.0;   // receiver <-> DC2 (one way)
  double x_ms = 0.0;         // DC1 -> DC2
  // Median receiver<->DC delay across the cooperative group; the extra
  // 2*delta_median hop in the coding formula (peer round trip).
  double delta_r_median_ms = 0.0;
};

struct ServiceQuote {
  ServiceType service = ServiceType::kNone;
  double expected_delay_ms = 0.0;
  // Cloud egress charged per application byte, in units of the single-copy
  // egress cost c: forwarding 2c, caching ~c, coding alpha*c.
  double relative_cost = 0.0;
};

// Delay a single (possibly recovered) packet experiences under `service`.
double expected_delay_ms(ServiceType service, const PathDelays& d);

// Relative cost factor for `service`; `coding_rate` is alpha (e.g. 2/6).
double relative_cost(ServiceType service, double coding_rate);

// All four quotes (including plain Internet), sorted by relative cost.
std::vector<ServiceQuote> service_quotes(const PathDelays& d, double coding_rate);

// The cheapest service whose expected delay meets `latency_budget_ms`.
// Falls back to the lowest-delay service when nothing fits the budget.
ServiceQuote select_service(const PathDelays& d, double latency_budget_ms,
                            double coding_rate);

// Runtime upgrade mechanism (Section 3.5): tracks the fraction of packets
// delivered within budget and recommends stepping up to the next costlier
// service when the current one underdelivers.
class AdaptiveSelector {
 public:
  AdaptiveSelector(const PathDelays& d, double latency_budget_ms, double coding_rate,
                   double violation_threshold = 0.05, std::size_t window = 200);

  ServiceType current() const { return current_; }

  // Reports one delivered (or lost) packet; returns the service to use from
  // now on (possibly upgraded).
  ServiceType report(double delivery_delay_ms, bool lost);

  std::size_t upgrades() const { return upgrades_; }

 private:
  ServiceType next_costlier(ServiceType s) const;

  PathDelays delays_;
  double budget_ms_;
  double coding_rate_;
  double violation_threshold_;
  std::size_t window_;
  ServiceType current_;
  std::size_t seen_ = 0;
  std::size_t violations_ = 0;
  std::size_t upgrades_ = 0;
};

}  // namespace jqos::endpoint
