// A unidirectional link: loss process + delay process + optional bandwidth
// with FIFO serialization, plus per-link counters the experiment harness
// reads (offered/dropped/delivered packets and bytes).
//
// Finite-bandwidth links delegate the enqueue/mark/drop decision to a
// QueueDisc policy object (tail-drop by default, RED or CoDel for AQM).
// The transmitter itself stays analytic — tx_free_at_ plus a deque of
// pending departure times — so queueing costs no extra simulator events.
// Zero-bandwidth links never consult the discipline (there is no queue),
// which keeps every latency-only scenario bit-identical to the
// pre-queue-disc code.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/packet.h"
#include "netsim/latency_model.h"
#include "netsim/loss_model.h"
#include "netsim/queue_disc.h"
#include "netsim/simulator.h"

namespace jqos::netsim {

// Invoked when a packet crosses the link.
using DeliverFn = std::function<void(const PacketPtr&)>;

struct LinkStats {
  std::uint64_t offered_packets = 0;
  std::uint64_t dropped_packets = 0;    // Loss-model drops (the "wire").
  std::uint64_t queue_drops = 0;        // Queue-disc drops (buffer full / AQM early).
  std::uint64_t fault_drops = 0;        // Fault-layer drops (link down / brownout).
  std::uint64_t ecn_marked = 0;         // Delivered with a fresh CE mark.
  std::uint64_t delivered_packets = 0;
  std::uint64_t offered_bytes = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t max_queue_bytes = 0;    // High-water transmitter backlog.
  std::uint64_t max_queue_packets = 0;

  // Loss-model rate only, matching the pre-queue-disc meaning (congestion
  // drops are a separate signal; use drop_rate() for the combined figure).
  double loss_rate() const {
    return offered_packets == 0
               ? 0.0
               : static_cast<double>(dropped_packets) / static_cast<double>(offered_packets);
  }

  double drop_rate() const {
    return offered_packets == 0
               ? 0.0
               : static_cast<double>(dropped_packets + queue_drops) /
                     static_cast<double>(offered_packets);
  }
};

class Link {
 public:
  // bandwidth_bps == 0 means unlimited (no serialization delay / queueing;
  // `qdisc` is then never consulted and may be null). Arrivals are clamped
  // to be non-decreasing, modelling a single-path route that may jitter but
  // does not reorder -- which is what the receiver's gap-based loss
  // detection assumes of Internet paths.
  Link(Simulator& sim, NodeId from, NodeId to, LatencyModelPtr latency, LossModelPtr loss,
       double bandwidth_bps = 0.0, QueueDiscPtr qdisc = nullptr);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Offers a packet to the link; if it survives the loss process and the
  // queue discipline it is delivered to the sink registered with
  // set_deliver() after serialization + queueing + propagation.
  // By-value: a caller sending a temporary (the common fabric path) moves
  // the PacketPtr all the way into the scheduled event, so the hot path
  // never touches the shared_ptr refcount. Network registers its
  // node-dispatch sink once per link, so each packet schedules a small
  // (this, pkt) closure instead of copying a std::function into its event.
  void send(PacketPtr pkt);
  void set_deliver(DeliverFn deliver) { deliver_ = std::move(deliver); }

  NodeId from() const { return from_; }
  NodeId to() const { return to_; }
  const LinkStats& stats() const { return stats_; }
  SimDuration base_latency() const { return latency_->base(); }
  const QueueDisc* qdisc() const { return qdisc_.get(); }

  // Fault-layer controls (driven by netsim::FaultInjector). A downed link
  // drops every offered packet; a degraded (brownout) link adds a Bernoulli
  // drop probability and extra propagation latency on top of its configured
  // models. Both count into LinkStats.fault_drops, separate from loss-model
  // and queue-disc drops. The degradation Rng draws only while degraded, so
  // an un-faulted link's trace is byte-identical to a build without faults.
  void set_fault_down(bool down) { fault_down_ = down; }
  void set_degraded(double extra_loss, SimDuration extra_latency, Rng rng) {
    degraded_ = true;
    degraded_loss_ = extra_loss;
    degraded_latency_ = extra_latency;
    degraded_rng_ = rng;
  }
  void clear_degraded() { degraded_ = false; }
  bool degraded() const { return degraded_; }

 private:
  // Fixed-capacity-amortized FIFO of (departure time, wire bytes) pairs.
  // A deque allocates and frees a chunk every ~few-hundred entries of
  // churn; this ring reaches its high-water capacity once and then cycles
  // in place — the transmitter backlog is on the per-packet path of every
  // finite-bandwidth link.
  class BacklogRing {
   public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    const std::pair<SimTime, std::uint32_t>& front() const { return slots_[head_]; }
    void pop_front() {
      head_ = (head_ + 1) & (slots_.size() - 1);
      --size_;
    }
    void push_back(SimTime depart, std::uint32_t bytes) {
      if (size_ == slots_.size()) grow();
      slots_[(head_ + size_) & (slots_.size() - 1)] = {depart, bytes};
      ++size_;
    }

   private:
    void grow() {
      // Power-of-two capacity keeps the index math a mask. Re-linearize on
      // growth so head_ starts at 0 in the new storage.
      std::vector<std::pair<SimTime, std::uint32_t>> bigger(
          slots_.empty() ? 16 : slots_.size() * 2);
      for (std::size_t i = 0; i < size_; ++i) {
        bigger[i] = slots_[(head_ + i) & (slots_.size() - 1)];
      }
      slots_ = std::move(bigger);
      head_ = 0;
    }

    std::vector<std::pair<SimTime, std::uint32_t>> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  Simulator& sim_;
  NodeId from_;
  NodeId to_;
  LatencyModelPtr latency_;
  LossModelPtr loss_;
  double bandwidth_bps_;
  QueueDiscPtr qdisc_;
  // Time at which the transmitter finishes serializing the last queued
  // packet; models FIFO queueing under finite bandwidth.
  SimTime tx_free_at_ = 0;
  // Latest arrival scheduled so far; used to prevent reordering.
  SimTime last_arrival_ = 0;
  // Departure time + size of every packet still in the transmitter, oldest
  // first; drained lazily on each send to maintain the backlog counters the
  // queue discipline and the depth stats read.
  BacklogRing backlog_;
  std::size_t backlog_bytes_ = 0;
  // Registered delivery sink for send().
  DeliverFn deliver_;
  LinkStats stats_;
  // Fault-layer state; see set_fault_down()/set_degraded().
  bool fault_down_ = false;
  bool degraded_ = false;
  double degraded_loss_ = 0.0;
  SimDuration degraded_latency_ = 0;
  Rng degraded_rng_{0};

  // Computes the arrival time for a packet offered now, or -1 if the loss
  // process or the queue discipline drops it; sets `mark` when the
  // discipline CE-marked instead; updates queueing/ordering state and stats.
  SimTime admit(const PacketPtr& pkt, bool& mark);
};

}  // namespace jqos::netsim
