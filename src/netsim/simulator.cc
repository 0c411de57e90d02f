#include "netsim/simulator.h"

#include <limits>
#include <stdexcept>

namespace jqos::netsim {

EventId Simulator::at(SimTime t, EventFn fn) {
  if (t < now_) throw std::invalid_argument("Simulator::at: time in the past");
  return queue_.push(t, std::move(fn));
}

EventId Simulator::after(SimDuration d, EventFn fn) {
  if (d < 0) d = 0;
  return queue_.push(now_ + d, std::move(fn));
}

void Simulator::run() {
  // One drain call empties the queue: events scheduled by handlers during
  // the drain (always >= now_) are picked up by the same batched loop.
  queue_.drain(std::numeric_limits<SimTime>::max(), [this](SimTime at, EventFn&& fn) {
    now_ = at;
    ++processed_;
    fn();
  });
}

void Simulator::run_until(SimTime deadline) {
  queue_.drain(deadline, [this](SimTime at, EventFn&& fn) {
    now_ = at;
    ++processed_;
    fn();
  });
  if (now_ < deadline) now_ = deadline;
}

}  // namespace jqos::netsim
