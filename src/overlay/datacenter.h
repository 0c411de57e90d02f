// A data center: the overlay insertion point that hosts J-QoS services.
//
// The DC is a network node that dispatches arriving packets to the service
// objects installed on it (forwarding, caching, coding encoder/recovery) and
// accounts ingress/egress bytes -- the quantity the cloud bills for and the
// cost model consumes (Section 6.6: "incoming traffic is free and outgoing
// traffic is charged").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/packet.h"
#include "netsim/faults.h"
#include "netsim/network.h"

namespace jqos::overlay {

class DataCenter;

// Interface implemented by the J-QoS services installed at a DC. Services
// are offered each arriving packet in installation order until one consumes
// it.
class DcService {
 public:
  virtual ~DcService() = default;

  virtual const char* name() const = 0;

  // Returns true if the packet was consumed by this service.
  virtual bool handle(DataCenter& dc, const PacketPtr& pkt) = 0;

  // Fault-layer hooks. on_dc_crash must drop all soft state (stored batches,
  // pending ops, armed timers -- anything a process restart would lose);
  // on_dc_restart runs when the DC comes back cold. Cumulative counters are
  // NOT state: crash wipes what a restart would rebuild, not the books.
  virtual void on_dc_crash() {}
  virtual void on_dc_restart() {}
};

class DataCenter final : public netsim::Node, public netsim::FaultableNode {
 public:
  DataCenter(netsim::Network& net, DcId dc_id, std::string name);

  NodeId id() const override { return node_id_; }
  DcId dc_id() const { return dc_id_; }
  const std::string& name() const { return name_; }

  void install(std::shared_ptr<DcService> service) { services_.push_back(std::move(service)); }

  // Transmits a packet out of this DC (egress is charged).
  void send(const PacketPtr& pkt);

  void handle_packet(const PacketPtr& pkt) override;

  // FaultableNode: a crash takes the DC down (arriving and departing packets
  // are black-holed and counted) and tells every installed service to wipe
  // its soft state; restart brings the node back cold.
  void fault_crash() override;
  void fault_restart() override;
  bool down() const { return down_; }
  std::uint64_t crashes() const { return crashes_; }
  std::uint64_t fault_dropped_packets() const { return fault_dropped_packets_; }

  netsim::Network& network() { return net_; }
  SimTime now() const { return net_.sim().now(); }

  // Packet storage pool of the DC's network (see docs/MEMORY.md); services
  // allocate through it. Null means heap allocation.
  PacketPool* pool() const { return net_.pool(); }

  std::uint64_t ingress_bytes() const { return ingress_bytes_; }
  std::uint64_t egress_bytes() const { return egress_bytes_; }
  std::uint64_t egress_packets() const { return egress_packets_; }
  std::uint64_t unhandled_packets() const { return unhandled_packets_; }

 private:
  netsim::Network& net_;
  NodeId node_id_;
  DcId dc_id_;
  std::string name_;
  std::vector<std::shared_ptr<DcService>> services_;
  std::uint64_t ingress_bytes_ = 0;
  std::uint64_t egress_bytes_ = 0;
  std::uint64_t egress_packets_ = 0;
  std::uint64_t unhandled_packets_ = 0;
  bool down_ = false;
  std::uint64_t crashes_ = 0;
  std::uint64_t fault_dropped_packets_ = 0;
};

}  // namespace jqos::overlay
