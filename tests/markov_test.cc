// Tests for the two-state Markov timeout model (Section 3.4).
#include <gtest/gtest.h>

#include "endpoint/markov_detector.h"

namespace jqos::endpoint {
namespace {

MarkovParams fixed_params() {
  MarkovParams p;
  p.adaptive = false;
  return p;
}

TEST(Markov, StartsInLongState) {
  MarkovDetector d(fixed_params(), msec(200));
  EXPECT_EQ(d.state(), MarkovDetector::State::kLong);
  EXPECT_EQ(d.current_timeout(), msec(200));
}

TEST(Markov, FirstArrivalKeepsLongState) {
  MarkovDetector d(fixed_params(), msec(200));
  EXPECT_EQ(d.on_arrival(msec(10)), msec(200));
  EXPECT_EQ(d.state(), MarkovDetector::State::kLong);
}

TEST(Markov, BurstArrivalsSwitchToShort) {
  MarkovDetector d(fixed_params(), msec(200));
  d.on_arrival(msec(0));
  const SimDuration t = d.on_arrival(msec(10));  // 10 ms gap <= 25 ms.
  EXPECT_EQ(d.state(), MarkovDetector::State::kShort);
  EXPECT_EQ(t, msec(25));
}

TEST(Markov, LargeGapFallsBackToLong) {
  MarkovDetector d(fixed_params(), msec(200));
  d.on_arrival(msec(0));
  d.on_arrival(msec(10));
  EXPECT_EQ(d.state(), MarkovDetector::State::kShort);
  d.on_arrival(msec(500));  // Cross-burst gap.
  EXPECT_EQ(d.state(), MarkovDetector::State::kLong);
}

TEST(Markov, TimeoutSwitchesShortToLongImmediately) {
  // "...switches immediately to the long timeout value after sending a
  // NACK."
  MarkovDetector d(fixed_params(), msec(200));
  d.on_arrival(msec(0));
  d.on_arrival(msec(10));
  ASSERT_EQ(d.state(), MarkovDetector::State::kShort);
  const SimDuration next = d.on_timeout();
  EXPECT_EQ(d.state(), MarkovDetector::State::kLong);
  EXPECT_EQ(next, msec(200));
}

TEST(Markov, LongTimeoutTracksRtt) {
  EXPECT_EQ(MarkovDetector(fixed_params(), msec(200)).long_timeout(), msec(200));
  EXPECT_EQ(MarkovDetector(fixed_params(), msec(300)).long_timeout(), msec(300));
  // Floors at 50 ms for tiny RTTs.
  EXPECT_EQ(MarkovDetector(fixed_params(), msec(10)).long_timeout(), msec(50));
}

TEST(Markov, AdaptiveSmallTimeoutLearnsInterArrival) {
  MarkovParams p;
  p.adaptive = true;
  MarkovDetector d(p, msec(200));
  // Steady 4 ms inter-arrivals: learned small timeout ~ 12 ms < 25 ms.
  SimTime t = 0;
  for (int i = 0; i < 50; ++i) {
    d.on_arrival(t);
    t += msec(4);
  }
  EXPECT_EQ(d.state(), MarkovDetector::State::kShort);
  EXPECT_LT(d.small_timeout(), msec(25));
  EXPECT_GE(d.small_timeout(), msec(2));
  EXPECT_NEAR(static_cast<double>(d.small_timeout()), static_cast<double>(msec(12)),
              static_cast<double>(msec(3)));
}

TEST(Markov, AdaptiveClampsToBounds) {
  MarkovParams p;
  p.adaptive = true;
  MarkovDetector d(p, msec(200));
  // Sub-0.1 ms gaps: clamp at the floor.
  SimTime t = 0;
  for (int i = 0; i < 50; ++i) {
    d.on_arrival(t);
    t += usec(100);
  }
  EXPECT_EQ(d.small_timeout(), msec(2));
}

TEST(Markov, ShortStateSurvivesTimeoutsOnlyViaArrivals) {
  // After a timeout (LONG), a single in-burst arrival flips back to SHORT.
  MarkovDetector d(fixed_params(), msec(200));
  d.on_arrival(msec(0));
  d.on_arrival(msec(5));
  d.on_timeout();
  ASSERT_EQ(d.state(), MarkovDetector::State::kLong);
  d.on_arrival(msec(40));  // 35 ms after the last arrival: cross-burst.
  EXPECT_EQ(d.state(), MarkovDetector::State::kLong);
  d.on_arrival(msec(45));  // 5 ms gap: in-burst again.
  EXPECT_EQ(d.state(), MarkovDetector::State::kShort);
}

}  // namespace
}  // namespace jqos::endpoint
