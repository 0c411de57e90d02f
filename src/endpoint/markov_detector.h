// Two-state Markov timeout model for receiver-driven loss detection
// (Section 3.4).
//
// The receiver cannot use sender-style RTO timers (it does not know when
// packets were sent), so it learns packet arrival patterns instead: a SHORT
// state with a small timeout while packets arrive in a burst, and a LONG
// state with an RTT-scale timeout across bursts / application sessions.
// The transition rules follow the paper: start LONG; short inter-arrivals
// move to SHORT; a SHORT-state expiry emits a NACK and drops immediately
// back to LONG. The small timeout value is learned from observed
// intra-burst inter-arrival times (EWMA), defaulting to the prototype's
// 25 ms.
#pragma once

#include "common/sim_time.h"

namespace jqos::endpoint {

struct MarkovParams {
  // Learn the small timeout from intra-burst inter-arrivals (EWMA; the
  // constants are in markov_detector.cc). Off, the small timeout stays at
  // the prototype's fixed 25 ms.
  bool adaptive = true;
};

class MarkovDetector {
 public:
  enum class State { kLong, kShort };

  MarkovDetector(const MarkovParams& params, SimDuration rtt_estimate);

  // Records a direct-path packet arrival; returns the timeout to arm for
  // the *next* expected packet.
  SimDuration on_arrival(SimTime now);

  // Records that the armed timer expired (caller sends a NACK when in
  // SHORT state); transitions SHORT -> LONG per the model and returns the
  // timeout to arm next.
  SimDuration on_timeout();

  State state() const { return state_; }
  SimDuration current_timeout() const;
  SimDuration small_timeout() const { return small_; }
  // max(RTT estimate, 50 ms).
  SimDuration long_timeout() const;

 private:
  bool adaptive_;
  SimDuration rtt_;
  State state_ = State::kLong;
  SimTime last_arrival_ = -1;
  SimDuration small_;
  double ewma_gap_ = 0.0;
  bool have_ewma_ = false;
};

}  // namespace jqos::endpoint
