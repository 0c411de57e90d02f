#include "overlay/datacenter.h"

#include "common/logging.h"

namespace jqos::overlay {

DataCenter::DataCenter(netsim::Network& net, DcId dc_id, std::string name)
    : net_(net), node_id_(net.allocate_id()), dc_id_(dc_id), name_(std::move(name)) {
  net_.attach(*this);
}

void DataCenter::send(const PacketPtr& pkt) {
  // A stale event (scheduled before the crash) may still try to transmit;
  // the dead process sends nothing.
  if (down_) {
    ++fault_dropped_packets_;
    return;
  }
  egress_bytes_ += pkt->wire_size();
  ++egress_packets_;
  net_.send(node_id_, pkt);
}

void DataCenter::handle_packet(const PacketPtr& pkt) {
  if (down_) {
    ++fault_dropped_packets_;
    return;
  }
  ingress_bytes_ += pkt->wire_size();
  for (const auto& service : services_) {
    if (service->handle(*this, pkt)) return;
  }
  ++unhandled_packets_;
  JQOS_DEBUG(name_ << ": unhandled " << to_string(pkt->type) << " "
                   << to_string(pkt->key()));
}

void DataCenter::fault_crash() {
  if (down_) return;
  down_ = true;
  ++crashes_;
  JQOS_DEBUG(name_ << ": CRASH at " << now());
  for (const auto& service : services_) service->on_dc_crash();
}

void DataCenter::fault_restart() {
  if (!down_) return;
  down_ = false;
  JQOS_DEBUG(name_ << ": restart at " << now());
}

}  // namespace jqos::overlay
