#include "endpoint/service_selector.h"

#include <algorithm>

namespace jqos::endpoint {
namespace {

double wait_for_cloud_copy(const PathDelays& d) {
  // Pull requests wait if the sender->DC1->DC2 segment is slower than the
  // sender->receiver->DC2 segment (Section 6.1's methodology).
  return std::max(0.0, (d.delta_s_ms + d.x_ms) - (d.y_ms + d.delta_r_ms));
}

}  // namespace

double expected_delay_ms(ServiceType service, const PathDelays& d) {
  switch (service) {
    case ServiceType::kNone:
      return d.y_ms;
    case ServiceType::kForward:
      return d.x_ms + d.delta_s_ms + d.delta_r_ms;
    case ServiceType::kCache:
      return d.y_ms + 2.0 * d.delta_r_ms + wait_for_cloud_copy(d);
    case ServiceType::kCode:
      return d.y_ms + 2.0 * d.delta_r_ms + 2.0 * d.delta_r_median_ms +
             wait_for_cloud_copy(d);
  }
  return d.y_ms;
}

double relative_cost(ServiceType service, double coding_rate) {
  switch (service) {
    case ServiceType::kNone: return 0.0;
    case ServiceType::kForward: return 2.0;   // Egress at DC1 and DC2.
    case ServiceType::kCache: return 1.0;     // One copy DC1 -> DC2.
    case ServiceType::kCode: return coding_rate;
  }
  return 0.0;
}

std::vector<ServiceQuote> service_quotes(const PathDelays& d, double coding_rate) {
  std::vector<ServiceQuote> quotes;
  for (ServiceType s : {ServiceType::kNone, ServiceType::kCode, ServiceType::kCache,
                        ServiceType::kForward}) {
    quotes.push_back(ServiceQuote{s, expected_delay_ms(s, d), relative_cost(s, coding_rate)});
  }
  std::sort(quotes.begin(), quotes.end(), [](const ServiceQuote& a, const ServiceQuote& b) {
    return a.relative_cost < b.relative_cost;
  });
  return quotes;
}

ServiceQuote select_service(const PathDelays& d, double latency_budget_ms,
                            double coding_rate) {
  // Candidates in cost order; Internet alone offers no recovery, so the
  // spectrum the framework picks from starts at coding.
  const auto quotes = service_quotes(d, coding_rate);
  const ServiceQuote* best_effort = nullptr;
  for (const ServiceQuote& q : quotes) {
    if (q.service == ServiceType::kNone) continue;
    if (q.expected_delay_ms <= latency_budget_ms) return q;
    if (best_effort == nullptr || q.expected_delay_ms < best_effort->expected_delay_ms) {
      best_effort = &q;
    }
  }
  return *best_effort;  // Nothing fits; give the fastest recovery option.
}

AdaptiveSelector::AdaptiveSelector(const PathDelays& d, double latency_budget_ms,
                                   double coding_rate, double violation_threshold,
                                   std::size_t window)
    : delays_(d),
      budget_ms_(latency_budget_ms),
      coding_rate_(coding_rate),
      violation_threshold_(violation_threshold),
      window_(window),
      current_(select_service(d, latency_budget_ms, coding_rate).service) {}

ServiceType AdaptiveSelector::next_costlier(ServiceType s) const {
  switch (s) {
    case ServiceType::kNone: return ServiceType::kCode;
    case ServiceType::kCode: return ServiceType::kCache;
    case ServiceType::kCache: return ServiceType::kForward;
    case ServiceType::kForward: return ServiceType::kForward;  // Top tier.
  }
  return ServiceType::kForward;
}

ServiceType AdaptiveSelector::report(double delivery_delay_ms, bool lost) {
  ++seen_;
  if (lost || delivery_delay_ms > budget_ms_) ++violations_;
  if (seen_ >= window_) {
    const double rate = static_cast<double>(violations_) / static_cast<double>(seen_);
    if (rate > violation_threshold_ && current_ != ServiceType::kForward) {
      current_ = next_costlier(current_);
      ++upgrades_;
    }
    seen_ = 0;
    violations_ = 0;
  }
  return current_;
}

}  // namespace jqos::endpoint
