// The J-QoS sender: intercepts outbound application packets just below the
// transport (Section 5) and, per the selected service, sends them on the
// direct Internet path and/or duplicates them toward the cloud overlay.
//
// Duplication can be selective (Section 6.4's SYN-ACK-only experiment;
// I-frames for video; the last packet of a window): a predicate decides
// per packet whether the cloud copy is made.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/packet.h"
#include "netsim/network.h"

namespace jqos::endpoint {

struct SenderPolicy {
  // Which service processes the cloud copy at the DC.
  ServiceType service = ServiceType::kCode;
  // Send the packet on the direct Internet path (false = path switching:
  // cloud-only delivery via the forwarding service, Fig. 2(b)).
  bool send_direct = true;
  // Duplicate the packet to DC1 (false = Internet-only).
  bool duplicate_to_cloud = true;
  NodeId dc1 = kInvalidNode;
  NodeId receiver = kInvalidNode;
  // Where the cloud copy should ultimately land. For forwarding this is the
  // receiver (or a multicast group); for caching it is the DC near the
  // receiver (DC2); for coding it is DC1 itself (the encoder consumes it).
  NodeId cloud_final_dst = kInvalidNode;
  // nullptr duplicates every packet; otherwise only packets approved by the
  // filter get a cloud copy (selective duplication).
  std::function<bool(const Packet&)> duplicate_filter;
  // Stamp ECT on every packet of the flow: the transport above understands
  // ECN marks, so AQM queues may CE-mark instead of dropping.
  bool ecn_capable = false;
};

struct SenderStats {
  std::uint64_t app_packets = 0;
  std::uint64_t direct_sent = 0;
  std::uint64_t cloud_sent = 0;
  std::uint64_t filtered = 0;  // Packets the filter kept off the cloud path.
  std::uint64_t failover_direct_sent = 0;  // Direct copies only the failover forced.
  std::uint64_t cloud_suppressed = 0;      // Cloud copies skipped: overlay down.
};

class Sender final : public netsim::Node {
 public:
  explicit Sender(netsim::Network& net);

  NodeId id() const override { return node_id_; }

  void register_flow(FlowId flow, const SenderPolicy& policy);

  // Drops all per-flow state (policy, sequence counter). Sending on the
  // flow afterwards throws, exactly as for a never-registered flow.
  void unregister_flow(FlowId flow);

  // Sends the next packet of `flow` with a synthetic payload of
  // `payload_bytes`; returns its sequence number.
  SeqNo send(FlowId flow, std::size_t payload_bytes);

  // Sends a packet with explicit payload contents (TCP segments etc.).
  SeqNo send_payload(FlowId flow, std::vector<std::uint8_t> payload);

  void handle_packet(const PacketPtr& pkt) override;

  // Upcall for inbound packets addressed to this sender node (e.g. TCP ACKs
  // riding the reverse path). Without a handler inbound packets are
  // dropped, matching a pure one-way source.
  void set_receive_handler(std::function<void(const PacketPtr&)> handler) {
    on_receive_ = std::move(handler);
  }

  // Flips ECT stamping for an already-registered flow (used by the TCP
  // model, which registers flows through SessionManager and only then
  // knows whether its controller negotiated ECN).
  void set_flow_ecn(FlowId flow, bool on);

  // Sender-wide failover override. While the overlay is reported down,
  // every flow sends on the direct Internet path (even path-switching flows
  // whose policy disables it) and no cloud copies are made; clearing the
  // flag restores each flow's registered policy. Driven by the receiver's
  // overlay-death detection via an out-of-band control channel the
  // scenario layer models.
  void set_overlay_down(bool down) { overlay_down_ = down; }

  const SenderStats& stats() const { return stats_; }
  SeqNo next_seq(FlowId flow) const;
  netsim::Network& network() { return net_; }

 private:
  struct FlowState {
    SenderPolicy policy;
    SeqNo next_seq = 0;
  };

  SeqNo transmit(FlowId flow, FlowState& fs, std::shared_ptr<Packet> base);

  netsim::Network& net_;
  NodeId node_id_;
  std::unordered_map<FlowId, FlowState> flows_;
  std::function<void(const PacketPtr&)> on_receive_;
  bool overlay_down_ = false;
  SenderStats stats_;
};

}  // namespace jqos::endpoint
