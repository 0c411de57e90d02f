#include "exp/incast.h"

#include "common/rng.h"

namespace jqos::exp {

// The fan-in point: rewrites dst to the packet's final destination and
// relays, one hop, onto the bottleneck link.
struct IncastScenario::Switch final : netsim::Node {
  netsim::Network& net;
  NodeId nid;

  explicit Switch(netsim::Network& n) : net(n), nid(n.allocate_id()) { n.attach(*this); }
  NodeId id() const override { return nid; }

  void handle_packet(const PacketPtr& pkt) override {
    auto fwd = std::make_shared<Packet>(*pkt);
    fwd->src = nid;
    fwd->dst = pkt->final_dst;
    net.send(nid, fwd);
  }
};

struct IncastScenario::Sink final : netsim::Node {
  netsim::Simulator& sim;
  NodeId nid;
  IncastResult& result;
  SimTime epoch_start = 0;
  std::size_t epoch = 0;

  Sink(netsim::Simulator& s, netsim::Network& n, IncastResult& r)
      : sim(s), nid(n.allocate_id()), result(r) {
    n.attach(*this);
  }
  NodeId id() const override { return nid; }

  void handle_packet(const PacketPtr& pkt) override {
    ++result.delivered;
    if (pkt->ecn_ce) ++result.ce_marked;
    if (epoch < result.epoch_drain_ms.size()) {
      result.epoch_drain_ms[epoch] = to_ms(sim.now() - epoch_start);
    }
  }
};

IncastScenario::IncastScenario(const IncastParams& params,
                               std::optional<netsim::EvqBackend> backend)
    : params_(params),
      sim_(backend.value_or(netsim::evq_default_backend())),
      net_(sim_, Rng::derive(params.seed, "incast-qdisc")) {
  switch_ = std::make_unique<Switch>(net_);
  sink_ = std::make_unique<Sink>(sim_, net_, result_);
  result_.epoch_drain_ms.assign(params_.epochs, 0.0);

  sender_ids_.reserve(params_.senders);
  for (std::size_t i = 0; i < params_.senders; ++i) {
    const NodeId src = net_.allocate_id();
    sender_ids_.push_back(src);
    // Fast edge links: no queueing, just a short propagation delay. The
    // only contended resource is the switch's uplink.
    net_.add_link(src, switch_->nid, netsim::make_fixed_latency(params_.edge_latency),
                  netsim::make_no_loss());
  }
  net_.add_link(switch_->nid, sink_->nid,
                netsim::make_fixed_latency(params_.bottleneck_latency),
                netsim::make_no_loss(), params_.bottleneck_bps, params_.qdisc);
}

IncastScenario::~IncastScenario() = default;

void IncastScenario::start_epoch(std::size_t epoch) {
  sink_->epoch = epoch;
  sink_->epoch_start = sim_.now();
  for (std::size_t i = 0; i < params_.senders; ++i) {
    const NodeId src = sender_ids_[i];
    const FlowId flow = static_cast<FlowId>(i + 1);
    sim_.after(params_.sender_stagger * static_cast<SimDuration>(i), [this, src, flow] {
      // The whole burst enters the fabric back to back, as an aggregate
      // response leaving a server NIC does.
      for (std::size_t p = 0; p < params_.packets_per_sender; ++p) {
        auto pkt = std::make_shared<Packet>();
        pkt->type = PacketType::kData;
        pkt->flow = flow;
        pkt->seq = static_cast<SeqNo>(result_.sent);
        pkt->src = src;
        pkt->dst = switch_->nid;
        pkt->final_dst = sink_->nid;
        pkt->sent_at = sim_.now();
        pkt->ecn_capable = params_.ecn;
        pkt->payload.assign(params_.payload_bytes, 0);
        ++result_.sent;
        net_.send(src, pkt);
      }
    });
  }
}

IncastResult IncastScenario::run() {
  for (std::size_t e = 0; e < params_.epochs; ++e) {
    sim_.at(params_.epoch_interval * static_cast<SimDuration>(e),
            [this, e] { start_epoch(e); });
  }
  sim_.run();
  result_.bottleneck = net_.link(switch_->nid, sink_->nid)->stats();
  result_.events_processed = sim_.events_processed();
  result_.end_time = sim_.now();
  return result_;
}

}  // namespace jqos::exp
