#include "services/coding/encoder_dc.h"

#include <algorithm>

#include "common/logging.h"
#include "fec/coded_batch.h"

namespace jqos::services {

namespace {

// Flushes toward a destination DC the health oracle reports dead are
// suppressed; the encoder retries (a "probe" flush) with this exponential
// backoff so a long outage costs O(log) wasted batches, not one per flush.
constexpr SimDuration kPeerBackoffBase = msec(100);
constexpr SimDuration kPeerBackoffCap = sec(2);

}  // namespace

CodingEncoderService::CodingEncoderService(overlay::DataCenter& dc, const CodingParams& params,
                                           FlowRegistryPtr registry)
    : dc_(dc),
      params_(params),
      registry_(std::move(registry)),
      next_batch_id_(static_cast<std::uint32_t>(dc.dc_id()) << 20) {}

bool CodingEncoderService::handle(overlay::DataCenter& dc, const PacketPtr& pkt) {
  (void)dc;  // Bound to dc_ at construction; DataCenter passes itself back.
  if (pkt->type != PacketType::kData || pkt->service != ServiceType::kCode) return false;
  const FlowInfo* info = registry_->find(pkt->flow);
  if (info == nullptr) {
    ++stats_.unknown_flow;
    JQOS_DEBUG(dc_.name() << ": coded data for unregistered flow " << pkt->flow);
    return true;
  }
  ++stats_.data_packets;
  Flow& flow = flows_.try_emplace(pkt->flow, dc_.network().sim()).first->second;

  // (1) In-stream coding (Algorithm 1 lines 1-5).
  if (params_.in_coded > 0 && params_.in_block > 0) enqueue_in_stream(flow, pkt, info->dc2);

  // (2) Cross-stream coding (Algorithm 1 lines 6-23). The destination DC is
  // derived from the flow (extract_dc2_id in the paper's pseudocode).
  if (params_.cross_coded > 0 && params_.k > 0) enqueue_cross_stream(flow, pkt, info->dc2);
  return true;
}

void CodingEncoderService::enqueue_in_stream(Flow& flow, const PacketPtr& pkt, NodeId dc2) {
  Queue& q = flow.in_stream;
  q.pkts.push_back(pkt);
  if (q.pkts.size() >= params_.in_block) {
    ++stats_.in_batches;
    encode_queue(q, params_.in_coded, PacketType::kInCoded, dc2);
  } else if (!q.timer.armed()) {
    arm_timer_in(q, pkt->flow);
  }
}

void CodingEncoderService::enqueue_cross_stream(Flow& flow, const PacketPtr& pkt, NodeId dc2) {
  if (flow.group == nullptr) {
    flow.group = &groups_[dc2];
    ++flow.group->live_flows;
  }
  auto& queues = flow.group->queues;
  if (queues.empty()) {
    const std::size_t n = std::max<std::size_t>(1, params_.queues_per_group);
    queues.reserve(n);
    for (std::size_t i = 0; i < n; ++i) queues.emplace_back(dc_.network().sim());
  }
  // Batches can hold at most one packet per flow, so a group with fewer
  // flows than k closes batches at the group size (>= 2; single-flow groups
  // fall back to the queue timer).
  const std::size_t effective_k =
      std::min(params_.k, std::max<std::size_t>(2, flow.group->live_flows));

  // Round-robin queue choice for this flow (line 7).
  std::size_t idx = flow.cursor % queues.size();
  flow.cursor = (flow.cursor + 1) % queues.size();

  // Find a queue without a packet from this flow (lines 9-12).
  const std::size_t initial = idx;
  while (queue_contains_flow(queues[idx], pkt->flow)) {
    idx = (idx + 1) % queues.size();
    if (idx == initial) {
      // Every queue holds one of our packets (lines 13-19): flush the
      // current queue if it has company, else evict our stale packet --
      // a single-flow "cross"-coded packet is just duplication and wastes
      // inter-DC bandwidth.
      Queue& q = queues[idx];
      if (q.pkts.size() > 1) {
        ++stats_.cross_batches;
        ++stats_.full_scan_flushes;
        encode_queue(q, params_.cross_coded, PacketType::kCrossCoded, dc2);
      } else {
        ++stats_.single_packet_evictions;
        q.pkts.clear();
        q.timer.cancel();
      }
      break;
    }
  }

  Queue& q = queues[idx];
  q.pkts.push_back(pkt);  // Line 20.
  if (q.pkts.size() >= effective_k) {
    ++stats_.cross_batches;
    encode_queue(q, params_.cross_coded, PacketType::kCrossCoded, dc2);  // Lines 21-23.
  } else if (!q.timer.armed()) {
    arm_timer_cross(q, dc2, idx);
  }
}

bool CodingEncoderService::peer_sendable(NodeId dc2) {
  if (!peer_health_) return true;
  PeerState& peer = groups_[dc2].peer;
  if (!peer.suspended) {
    if (peer_health_(dc2)) return true;
    // First flush to find the DC dead: suspend and start the backoff clock.
    peer.suspended = true;
    peer.backoff = kPeerBackoffBase;
    peer.retry_at = dc_.now() + peer.backoff;
    ++stats_.peer_suspends;
    return false;
  }
  if (dc_.now() < peer.retry_at) return false;  // Still backing off.
  // Probe flush: one batch gets through the gate to test the peer. A healthy
  // answer re-engages immediately; a dead one doubles the backoff (capped).
  ++stats_.peer_probes;
  if (peer_health_(dc2)) {
    peer.suspended = false;
    peer.backoff = 0;
    ++stats_.peer_reengages;
    return true;
  }
  peer.backoff = std::min(peer.backoff * 2, kPeerBackoffCap);
  peer.retry_at = dc_.now() + peer.backoff;
  return false;
}

void CodingEncoderService::encode_queue(Queue& q, std::size_t coded, PacketType type,
                                        NodeId dc2) {
  if (q.pkts.empty() || dc2 == kInvalidNode) {
    q.pkts.clear();
    q.timer.cancel();
    return;
  }
  if (!peer_sendable(dc2)) {
    // The staged packets still reached their receivers on the direct path;
    // only the coded protection is lost while DC2 is out.
    ++stats_.flushes_suppressed;
    q.pkts.clear();
    q.timer.cancel();
    return;
  }
  const std::uint32_t batch_id = next_batch_id_++;
  coded_scratch_.clear();
  encoder_.encode_into(q.pkts, coded, type, batch_id, dc_.id(), dc2, dc_.now(),
                       coded_scratch_, dc_.pool());
  for (const PacketPtr& cp : coded_scratch_) {
    ++stats_.coded_sent;
    dc_.send(cp);
  }
  q.pkts.clear();
  q.timer.cancel();
}

void CodingEncoderService::arm_timer_in(Queue& q, FlowId flow) {
  q.timer.after(params_.queue_timeout, [this, flow] {
    Queue& queue = flows_.at(flow).in_stream;
    if (queue.pkts.empty()) return;  // flush_all dropped it: the flow left the registry.
    const FlowInfo* info = registry_->find(flow);
    if (info == nullptr) {
      queue.pkts.clear();
      return;
    }
    ++stats_.timer_flushes;
    ++stats_.in_batches;
    encode_queue(queue, params_.in_coded, PacketType::kInCoded, info->dc2);
  });
}

void CodingEncoderService::arm_timer_cross(Queue& q, NodeId dc2, std::size_t index) {
  // Every path that empties a cross-stream queue cancels its timer.
  q.timer.after(params_.queue_timeout, [this, dc2, index] {
    ++stats_.timer_flushes;
    ++stats_.cross_batches;
    encode_queue(groups_.at(dc2).queues[index], params_.cross_coded, PacketType::kCrossCoded,
                 dc2);
  });
}

bool CodingEncoderService::queue_contains_flow(const Queue& q, FlowId flow) const {
  return std::any_of(q.pkts.begin(), q.pkts.end(),
                     [flow](const PacketPtr& p) { return p->flow == flow; });
}

void CodingEncoderService::flow_departed(FlowId flow) {
  ++stats_.flow_departures;
  auto it = flows_.find(flow);
  if (it == flows_.end()) return;
  Queue& q = it->second.in_stream;
  const FlowInfo* info = q.pkts.empty() ? nullptr : registry_->find(flow);
  if (info != nullptr) {
    ++stats_.in_batches;
    encode_queue(q, params_.in_coded, PacketType::kInCoded, info->dc2);
  }
  if (it->second.group != nullptr) --it->second.group->live_flows;
  flows_.erase(it);  // Cancels the in-stream queue's timer.
}

void CodingEncoderService::on_dc_crash() {
  ++stats_.crash_wipes;
  // Everything staged in process memory is gone, suspended peers included;
  // the queues' timers die with them.
  flows_.clear();
  groups_.clear();
  // next_batch_id_ deliberately survives: it models the id namespace, not
  // state -- reusing ids would alias live batches at the recovery DC.
}

void CodingEncoderService::flush_all() {
  // Flush in ascending FlowId order, not hash order: flows are numbered in
  // path-registration order, so the flush sequence -- and therefore the
  // send order on shared inter-DC links -- is identical whether this
  // encoder serves one experiment shard or the monolithic run.
  std::vector<FlowId>& flows = flush_scratch_;
  flows.clear();
  flows.reserve(flows_.size());
  for (const auto& [flow, f] : flows_) {
    if (!f.in_stream.pkts.empty()) flows.push_back(flow);
  }
  std::sort(flows.begin(), flows.end());
  for (FlowId flow : flows) {
    Queue& q = flows_.find(flow)->second.in_stream;
    const FlowInfo* info = registry_->find(flow);
    if (info == nullptr) {
      q.pkts.clear();
      continue;
    }
    ++stats_.in_batches;
    encode_queue(q, params_.in_coded, PacketType::kInCoded, info->dc2);
  }
  for (auto& [dc2, group] : groups_) {
    for (Queue& q : group.queues) {
      if (q.pkts.empty()) continue;
      ++stats_.cross_batches;
      encode_queue(q, params_.cross_coded, PacketType::kCrossCoded, dc2);
    }
  }
}

}  // namespace jqos::services
