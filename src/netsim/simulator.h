// The simulation clock and scheduler.
//
// Everything in the simulated J-QoS deployment -- link deliveries, coding
// queue timers, NACK timers, application send loops -- is an event on this
// single queue, mirroring how the real prototype multiplexes timers on one
// event loop per process. Multi-core runs give each shard its own Simulator
// (exp/sharded_runner.h); one Simulator is always one total event order.
//
// run() and run_until() are the only dispatch loops. Both drain the queue
// through EventQueue::drain, so with the ladder backend (the default) they
// serve whole pre-sorted rungs of events instead of paying a heap reheapify
// per event -- the change that lets figure sweeps run millions of simulated
// packets. Construct with an explicit EvqBackend to pin the backend; the
// retained binary heap is the differential-testing reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "netsim/event_queue.h"

namespace jqos::netsim {

class Simulator {
 public:
  Simulator() = default;
  explicit Simulator(EvqBackend backend) : queue_(backend) {}

  SimTime now() const { return now_; }

  // Schedules at an absolute simulated time (must be >= now()).
  EventId at(SimTime t, EventFn fn);

  // Schedules `d` after now(); negative delays clamp to "immediately".
  EventId after(SimDuration d, EventFn fn);

  // O(1); cancelling a fired, cancelled, or unknown id is a no-op.
  void cancel(EventId id) { queue_.cancel(id); }

  // O(1); true until the event `id` names fires or is cancelled.
  bool pending(EventId id) const { return queue_.pending(id); }

  // Runs events until the queue is empty.
  void run();

  // Runs events with timestamp <= deadline, then sets now() = deadline.
  void run_until(SimTime deadline);

  bool idle() const { return queue_.empty(); }
  std::uint64_t events_processed() const { return processed_; }
  EvqBackend backend() const { return queue_.backend(); }

  // Direct queue access for benches and introspection (slab high-water);
  // scheduling should go through at/after.
  EventQueue& queue() { return queue_; }

 private:
  EventQueue queue_;
  SimTime now_ = kSimStart;
  std::uint64_t processed_ = 0;
};

// One pending event of a Simulator, the way every entity holds a timer.
// Arming cancels the event the Timer held, and cancel() or destruction
// cancels it too, so a record's timers die with the record and a firing
// callback never finds its owner gone. The callback is scheduled as given,
// unwrapped, so it keeps its own callable type and EventFn's inline storage.
// A Timer must not outlive its Simulator.
class Timer {
 public:
  explicit Timer(Simulator& sim) : sim_(&sim) {}
  // The moved-to Timer holds the pending event; the moved-from one holds none.
  Timer(Timer&& other) noexcept : sim_(other.sim_), id_(std::exchange(other.id_, 0)) {}
  Timer& operator=(Timer&&) = delete;
  ~Timer() { cancel(); }

  void after(SimDuration d, EventFn fn) {
    cancel();
    id_ = sim_->after(d, std::move(fn));
  }
  void at(SimTime t, EventFn fn) {
    cancel();
    id_ = sim_->at(t, std::move(fn));
  }
  void cancel() {
    if (id_ != 0) sim_->cancel(std::exchange(id_, 0));
  }
  // False once the event fired (inside its own callback too) or was cancelled.
  bool armed() const { return sim_->pending(id_); }

 private:
  Simulator* sim_;
  EventId id_ = 0;
};

}  // namespace jqos::netsim
