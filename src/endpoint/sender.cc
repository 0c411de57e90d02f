#include "endpoint/sender.h"

#include <stdexcept>

namespace jqos::endpoint {

Sender::Sender(netsim::Network& net) : net_(net), node_id_(net.allocate_id()) {
  net_.attach(*this);
}

void Sender::register_flow(FlowId flow, const SenderPolicy& policy) {
  FlowState fs;
  fs.policy = policy;
  // Default the cloud landing point per service semantics.
  if (fs.policy.cloud_final_dst == kInvalidNode) {
    switch (fs.policy.service) {
      case ServiceType::kForward: fs.policy.cloud_final_dst = policy.receiver; break;
      case ServiceType::kCache:
      case ServiceType::kCode:
      case ServiceType::kNone: fs.policy.cloud_final_dst = policy.dc1; break;
    }
  }
  flows_[flow] = std::move(fs);
}

void Sender::unregister_flow(FlowId flow) { flows_.erase(flow); }

SeqNo Sender::send(FlowId flow, std::size_t payload_bytes) {
  auto it = flows_.find(flow);
  if (it == flows_.end()) throw std::invalid_argument("Sender: unregistered flow");
  // Fill the synthetic payload directly into (pooled) packet storage instead
  // of building a scratch vector per call.
  auto base = alloc_packet(net_.pool());
  base->payload.assign(payload_bytes, 0);
  return transmit(flow, it->second, std::move(base));
}

SeqNo Sender::send_payload(FlowId flow, std::vector<std::uint8_t> payload) {
  auto it = flows_.find(flow);
  if (it == flows_.end()) throw std::invalid_argument("Sender: unregistered flow");
  auto base = alloc_packet(net_.pool());
  base->payload = std::move(payload);
  return transmit(flow, it->second, std::move(base));
}

SeqNo Sender::transmit(FlowId flow, FlowState& fs, std::shared_ptr<Packet> base) {
  const SeqNo seq = fs.next_seq++;
  const SimTime now = net_.sim().now();
  ++stats_.app_packets;

  base->type = PacketType::kData;
  base->flow = flow;
  base->seq = seq;
  base->src = node_id_;
  base->sent_at = now;
  base->ecn_capable = fs.policy.ecn_capable;

  if ((fs.policy.send_direct || overlay_down_) && fs.policy.receiver != kInvalidNode) {
    auto direct = alloc_packet_copy(net_.pool(), *base);
    direct->service = ServiceType::kNone;
    direct->dst = fs.policy.receiver;
    direct->final_dst = fs.policy.receiver;
    ++stats_.direct_sent;
    if (!fs.policy.send_direct) ++stats_.failover_direct_sent;
    net_.send(node_id_, direct);
  }

  if (overlay_down_ && fs.policy.duplicate_to_cloud && fs.policy.dc1 != kInvalidNode) {
    // The overlay is unreachable; feeding it copies would only load the
    // access link for packets a dead DC will black-hole.
    ++stats_.cloud_suppressed;
  } else if (fs.policy.duplicate_to_cloud && fs.policy.dc1 != kInvalidNode) {
    if (fs.policy.duplicate_filter && !fs.policy.duplicate_filter(*base)) {
      ++stats_.filtered;
    } else {
      auto cloud = alloc_packet_copy(net_.pool(), *base);
      cloud->service = fs.policy.service;
      cloud->dst = fs.policy.dc1;
      cloud->final_dst = fs.policy.cloud_final_dst;
      ++stats_.cloud_sent;
      net_.send(node_id_, cloud);
    }
  }
  return seq;
}

void Sender::set_flow_ecn(FlowId flow, bool on) {
  auto it = flows_.find(flow);
  if (it != flows_.end()) it->second.policy.ecn_capable = on;
}

void Sender::handle_packet(const PacketPtr& pkt) {
  if (on_receive_) on_receive_(pkt);
}

SeqNo Sender::next_seq(FlowId flow) const {
  auto it = flows_.find(flow);
  return it == flows_.end() ? 0 : it->second.next_seq;
}

}  // namespace jqos::endpoint
