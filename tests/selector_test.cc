// Tests for service selection (Section 3.5): delay formulas, cost ordering,
// budget-driven selection, the adaptive upgrade loop, and the register()
// session API.
#include <gtest/gtest.h>

#include <cmath>

#include "endpoint/receiver.h"
#include "endpoint/sender.h"
#include "endpoint/service_selector.h"
#include "endpoint/session.h"
#include "netsim/network.h"

namespace jqos::endpoint {
namespace {

PathDelays typical_us_eu() {
  // Representative transatlantic path: y = 55 ms one way, small deltas.
  PathDelays d;
  d.y_ms = 55.0;
  d.delta_s_ms = 6.0;
  d.delta_r_ms = 8.0;
  d.x_ms = 45.0;
  d.delta_r_median_ms = 9.0;
  return d;
}

TEST(Selector, DelayFormulasMatchPaper) {
  const PathDelays d = typical_us_eu();
  // internet = y.
  EXPECT_DOUBLE_EQ(expected_delay_ms(ServiceType::kNone, d), 55.0);
  // forwarding = x + delta_S + delta_R.
  EXPECT_DOUBLE_EQ(expected_delay_ms(ServiceType::kForward, d), 45.0 + 6.0 + 8.0);
  // caching = y + 2 delta_R (+ wait; here the cloud copy arrives first:
  // delta_S + x = 51 < y + delta_R = 63, so no wait).
  EXPECT_DOUBLE_EQ(expected_delay_ms(ServiceType::kCache, d), 55.0 + 16.0);
  // coding adds the peer round trip 2 * delta_median.
  EXPECT_DOUBLE_EQ(expected_delay_ms(ServiceType::kCode, d), 55.0 + 16.0 + 18.0);
}

TEST(Selector, WaitTermWhenCloudCopySlower) {
  PathDelays d = typical_us_eu();
  d.x_ms = 80.0;  // delta_S + x = 86 > y + delta_R = 63: pulls wait 23 ms.
  EXPECT_DOUBLE_EQ(expected_delay_ms(ServiceType::kCache, d), 55.0 + 16.0 + 23.0);
}

TEST(Selector, CostOrdering) {
  const double coding_rate = 2.0 / 6.0;
  EXPECT_LT(relative_cost(ServiceType::kNone, coding_rate),
            relative_cost(ServiceType::kCode, coding_rate));
  EXPECT_LT(relative_cost(ServiceType::kCode, coding_rate),
            relative_cost(ServiceType::kCache, coding_rate));
  EXPECT_LT(relative_cost(ServiceType::kCache, coding_rate),
            relative_cost(ServiceType::kForward, coding_rate));
  EXPECT_DOUBLE_EQ(relative_cost(ServiceType::kForward, coding_rate), 2.0);
}

TEST(Selector, PicksCheapestMeetingBudget) {
  const PathDelays d = typical_us_eu();
  // Coding delivers in 89 ms; generous budget -> coding (cheapest).
  EXPECT_EQ(select_service(d, 150.0, 1.0 / 3.0).service, ServiceType::kCode);
  // 80 ms budget excludes coding (89) but caching fits (71).
  EXPECT_EQ(select_service(d, 80.0, 1.0 / 3.0).service, ServiceType::kCache);
  // 65 ms budget excludes caching; forwarding fits (59).
  EXPECT_EQ(select_service(d, 65.0, 1.0 / 3.0).service, ServiceType::kForward);
}

TEST(Selector, FallsBackToFastestWhenNothingFits) {
  const PathDelays d = typical_us_eu();
  const auto quote = select_service(d, 10.0, 1.0 / 3.0);
  EXPECT_EQ(quote.service, ServiceType::kForward);  // Lowest-delay recovery.
}

TEST(Selector, BudgetBoundaryIsInclusive) {
  // A budget exactly equal to a service's expected delay admits it: the
  // paper's constraint is delay <= budget, not strict.
  const PathDelays d = typical_us_eu();
  const double coding_delay = expected_delay_ms(ServiceType::kCode, d);  // 89 ms.
  EXPECT_EQ(select_service(d, coding_delay, 1.0 / 3.0).service, ServiceType::kCode);
  // One hair under the boundary excludes coding; caching is next-cheapest.
  EXPECT_EQ(select_service(d, std::nexttoward(coding_delay, 0.0), 1.0 / 3.0).service,
            ServiceType::kCache);
}

TEST(Selector, QuotesSortedByCost) {
  const auto quotes = service_quotes(typical_us_eu(), 1.0 / 3.0);
  ASSERT_EQ(quotes.size(), 4u);
  for (std::size_t i = 1; i < quotes.size(); ++i) {
    EXPECT_LE(quotes[i - 1].relative_cost, quotes[i].relative_cost);
  }
}

TEST(Selector, AdaptiveUpgradesOnViolations) {
  AdaptiveSelector sel(typical_us_eu(), 150.0, 1.0 / 3.0, /*violation_threshold=*/0.05,
                       /*window=*/100);
  ASSERT_EQ(sel.current(), ServiceType::kCode);
  // 10% of packets miss the budget: upgrade after the window closes.
  for (int i = 0; i < 100; ++i) sel.report(i % 10 == 0 ? 200.0 : 80.0, false);
  EXPECT_EQ(sel.current(), ServiceType::kCache);
  EXPECT_EQ(sel.upgrades(), 1u);
  // Still violating: next window upgrades to forwarding and stays there.
  for (int i = 0; i < 200; ++i) sel.report(i % 10 == 0 ? 200.0 : 80.0, false);
  EXPECT_EQ(sel.current(), ServiceType::kForward);
  for (int i = 0; i < 200; ++i) sel.report(200.0, true);
  EXPECT_EQ(sel.current(), ServiceType::kForward);  // Top tier.
}

TEST(Selector, AdaptiveStaysPutWhenHealthy) {
  AdaptiveSelector sel(typical_us_eu(), 150.0, 1.0 / 3.0, 0.05, 100);
  for (int i = 0; i < 1000; ++i) sel.report(90.0, false);
  EXPECT_EQ(sel.current(), ServiceType::kCode);
  EXPECT_EQ(sel.upgrades(), 0u);
}

// ------------------------------- session -----------------------------------

TEST(Session, RegisterWiresAllLayers) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  Sender sender(net);
  Receiver receiver(net, ReceiverConfig{});
  auto registry = std::make_shared<services::FlowRegistry>();
  SessionManager sessions(registry);

  RegisterRequest req;
  req.latency_budget_ms = 150.0;
  req.delays = typical_us_eu();
  req.dc1 = 100;
  req.dc2 = 200;
  const Session session = sessions.register_flow(sender, receiver, req);

  EXPECT_EQ(session.flow, 1u);
  EXPECT_EQ(session.quote.service, ServiceType::kCode);
  const services::FlowInfo* info = registry->find(session.flow);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->dc2, 200u);
  EXPECT_EQ(info->receiver, receiver.id());
  // The sender accepts sends on the registered flow.
  EXPECT_EQ(sender.next_seq(session.flow), 0u);
}

TEST(Session, ForceServiceOverridesBudget) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  Sender sender(net);
  Receiver receiver(net, ReceiverConfig{});
  SessionManager sessions(std::make_shared<services::FlowRegistry>());

  RegisterRequest req;
  req.latency_budget_ms = 150.0;
  req.delays = typical_us_eu();
  req.force_service = ServiceType::kForward;
  const Session session = sessions.register_flow(sender, receiver, req);
  EXPECT_EQ(session.quote.service, ServiceType::kForward);
  EXPECT_DOUBLE_EQ(session.quote.relative_cost, 2.0);
}

TEST(Session, FlowIdsMonotone) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  Sender sender(net);
  Receiver receiver(net, ReceiverConfig{});
  SessionManager sessions(std::make_shared<services::FlowRegistry>());
  RegisterRequest req;
  req.delays = typical_us_eu();
  EXPECT_EQ(sessions.register_flow(sender, receiver, req).flow, 1u);
  EXPECT_EQ(sessions.register_flow(sender, receiver, req).flow, 2u);
  EXPECT_EQ(sessions.register_flow(sender, receiver, req).flow, 3u);
}

}  // namespace
}  // namespace jqos::endpoint
