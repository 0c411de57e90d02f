// Coding plan: parameters and flow bookkeeping for CR-WAN (Section 4.1).
//
// The plan captures the spatial constraint (only flows with the same
// destination DC are coded together -- DC1 groups flows by egress DC) and
// the temporal constraint (a batch only holds packets that arrived within a
// short interval, enforced by per-queue timers that bound encoding delay).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/sim_time.h"
#include "common/types.h"

namespace jqos::services {

struct CodingParams {
  // Cross-stream: batches draw from at most k different flows (k <= 10 in
  // the paper's evaluation; Section 5), protected by `cross_coded` coded
  // packets (default 2, the straggler-protection choice of Section 5).
  std::size_t k = 6;
  std::size_t cross_coded = 2;

  // In-stream: one FEC packet per `in_block` data packets of a single flow
  // (s = 1/5 for interactive apps; 0 coded packets disables in-stream
  // coding, as the Skype case study does since Skype runs its own FEC).
  std::size_t in_block = 5;
  std::size_t in_coded = 1;

  // Queues that cannot fill quickly are flushed by timers so coding never
  // holds back recovery data (Section 4.3, "Timing constraints").
  SimDuration queue_timeout = msec(30);

  // Cross-stream queues maintained per destination DC; more queues means
  // less head-of-line contention between bursty flows.
  std::size_t queues_per_group = 4;

  double cross_rate() const {
    return k == 0 ? 0.0 : static_cast<double>(cross_coded) / static_cast<double>(k);
  }
};

// Where a flow terminates: the DC near its receiver (spatial grouping key)
// and the receiver itself (cooperative-recovery solicitation target).
struct FlowInfo {
  NodeId dc2 = kInvalidNode;
  NodeId receiver = kInvalidNode;
};

// Shared flow registry, standing in for the prototype's TCP control channel
// over which endpoints register flows with the DCs (Section 5).
class FlowRegistry {
 public:
  void register_flow(FlowId flow, const FlowInfo& info) { flows_[flow] = info; }
  void unregister_flow(FlowId flow) { flows_.erase(flow); }

  // nullptr when the flow is unknown.
  const FlowInfo* find(FlowId flow) const;

  std::size_t size() const { return flows_.size(); }

 private:
  std::unordered_map<FlowId, FlowInfo> flows_;
};

using FlowRegistryPtr = std::shared_ptr<FlowRegistry>;

}  // namespace jqos::services
