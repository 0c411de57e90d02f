#include "endpoint/markov_detector.h"

#include <algorithm>

namespace jqos::endpoint {
namespace {

// The prototype's fixed small timer (Section 5). When adaptive, this is the
// initial value and the learned value's upper bound (unless a slow stream's
// learning cutoff is higher).
constexpr SimDuration kSmallTimeout = msec(25);
// The long timeout's floor: long = max(rtt, kMinLongTimeout).
constexpr SimDuration kMinLongTimeout = msec(50);
// The adaptive small timeout is clamp(kEwmaMultiplier * EWMA(intra-burst
// inter-arrival), kMinSmallTimeout, upper bound).
constexpr double kEwmaAlpha = 0.2;
constexpr double kEwmaMultiplier = 3.0;
constexpr SimDuration kMinSmallTimeout = msec(2);

}  // namespace

MarkovDetector::MarkovDetector(const MarkovParams& params, SimDuration rtt_estimate)
    : adaptive_(params.adaptive), rtt_(rtt_estimate), small_(kSmallTimeout) {}

SimDuration MarkovDetector::long_timeout() const { return std::max(rtt_, kMinLongTimeout); }

SimDuration MarkovDetector::current_timeout() const {
  return state_ == State::kShort ? small_ : long_timeout();
}

SimDuration MarkovDetector::on_arrival(SimTime now) {
  if (last_arrival_ >= 0) {
    const SimDuration gap = now - last_arrival_;
    if (adaptive_) {
      // Learn the within-burst inter-arrival from any gap clearly below the
      // session/burst boundary scale (a fraction of the RTT), so low-rate
      // streams (e.g. 40 ms CBR spacing) still train the small timeout.
      const SimDuration learn_cutoff = (2 * long_timeout()) / 3;
      if (gap <= learn_cutoff) {
        if (!have_ewma_) {
          ewma_gap_ = static_cast<double>(gap);
          have_ewma_ = true;
        } else {
          ewma_gap_ = (1.0 - kEwmaAlpha) * ewma_gap_ + kEwmaAlpha * static_cast<double>(gap);
        }
        // The learned small timeout may exceed kSmallTimeout for slow
        // streams, but must stay well below the long timeout to keep the
        // two states meaningfully apart.
        const auto learned = static_cast<SimDuration>(kEwmaMultiplier * ewma_gap_);
        const SimDuration upper = std::max(kSmallTimeout, learn_cutoff);
        small_ = std::clamp(learned, kMinSmallTimeout, upper);
      }
    }
    // Inter-arrivals up to the small timeout count as "within a burst".
    state_ = gap <= small_ ? State::kShort : State::kLong;
  }
  last_arrival_ = now;
  return current_timeout();
}

SimDuration MarkovDetector::on_timeout() {
  // "It remains in this state until the small timeout expires and switches
  // immediately to the long timeout value after sending a NACK."
  state_ = State::kLong;
  return current_timeout();
}

}  // namespace jqos::endpoint
