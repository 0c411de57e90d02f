// Tests for the live runtime: the UDP wrapper, the wall-clock LiveHost, and
// the production sender, receiver and caching DC recovering losses over
// real datagrams on loopback.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>

#include "endpoint/receiver.h"
#include "endpoint/sender.h"
#include "net/live_host.h"
#include "net/udp_socket.h"
#include "overlay/datacenter.h"
#include "services/caching/caching_service.h"

namespace jqos::net {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

// Calls run_once until `done` holds or `limit` of wall time has passed.
template <typename Done>
void pump_until(LiveHost& host, Done done, std::chrono::milliseconds limit) {
  const auto deadline = Clock::now() + limit;
  while (!done() && Clock::now() < deadline) host.run_once(5ms);
}

// A node that keeps every packet handed to it.
class Sink final : public netsim::Node {
 public:
  explicit Sink(netsim::Network& net) : id_(net.allocate_id()) { net.attach(*this); }
  NodeId id() const override { return id_; }
  void handle_packet(const PacketPtr& pkt) override { got.push_back(pkt); }

  std::vector<PacketPtr> got;

 private:
  NodeId id_;
};

PacketPtr data_packet(FlowId flow, SeqNo seq, NodeId dst) {
  auto pkt = std::make_shared<Packet>();
  pkt->flow = flow;
  pkt->seq = seq;
  pkt->dst = pkt->final_dst = dst;
  return pkt;
}

TEST(UdpSocket, LoopbackDatagramRoundTrip) {
  UdpSocket a, b;
  ASSERT_NE(a.local_endpoint().port, 0);
  std::vector<std::uint8_t> msg = {1, 2, 3, 4};
  ASSERT_GT(a.send_to(msg, b.local_endpoint()), 0);
  // Loopback delivery is immediate but give the stack a moment.
  std::optional<UdpSocket::Datagram> got;
  for (int i = 0; i < 100 && !got; ++i) got = b.recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data, msg);
  EXPECT_EQ(got->from.port, a.local_endpoint().port);
  EXPECT_EQ(got->from.to_string(), "127.0.0.1:" + std::to_string(a.local_endpoint().port));
}

TEST(LiveHost, SimulatedTimeFollowsWallTime) {
  const auto start = Clock::now();
  LiveHost host;
  Clock::time_point fired{};
  host.sim().after(msec(20), [&] { fired = Clock::now(); });
  pump_until(host, [&] { return fired != Clock::time_point{}; }, 1s);
  ASSERT_NE(fired, Clock::time_point{});
  EXPECT_GE(fired - start, 20ms);
  EXPECT_LT(fired - start, 120ms);  // Slack for loaded and sanitizer runs.
}

TEST(LiveHost, InboundDatagramIsReaddressedAndJunkCounted) {
  // Ids written by another process name nothing here: the packet comes
  // from the peer's remote id and has arrived at the bound node. A reply
  // routes back over the default link the first datagram installed.
  LiveHost host;
  Sink node(host.net());
  const UdpEndpoint endpoint = host.bind(node);
  UdpSocket peer;
  Packet pkt;
  pkt.flow = 7;
  pkt.seq = 3;
  pkt.src = 1234;
  pkt.dst = 99;
  pkt.final_dst = 98;
  ASSERT_GT(peer.send_to(pkt.serialize(), endpoint), 0);
  ASSERT_GT(peer.send_to(std::vector<std::uint8_t>{0xde, 0xad}, endpoint), 0);
  pump_until(host, [&] { return !node.got.empty() && host.malformed() == 1; }, 1s);

  ASSERT_EQ(node.got.size(), 1u);
  EXPECT_EQ(host.malformed(), 1u);
  const Packet& got = *node.got.front();
  const NodeId peer_id = host.remote(peer.local_endpoint());
  EXPECT_EQ(got.src, peer_id);
  EXPECT_EQ(got.dst, node.id());
  EXPECT_EQ(got.final_dst, node.id());
  EXPECT_EQ(got.flow, 7u);
  EXPECT_EQ(got.seq, 3u);

  host.net().send(node.id(), data_packet(7, 4, peer_id));
  host.run_once(0ms);
  std::optional<UdpSocket::Datagram> reply;
  for (int i = 0; i < 100 && !reply; ++i) reply = peer.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->from.port, endpoint.port);
  const auto parsed = Packet::parse(reply->data);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seq, 4u);
}

TEST(LiveHost, LinkLatencyHoldsTheDatagramOffTheWire) {
  LiveHost host;
  Sink node(host.net());
  host.bind(node);
  UdpSocket peer;
  const NodeId to = host.remote(peer.local_endpoint());
  host.connect(node, to, netsim::make_fixed_latency(msec(30)));
  const auto sent = Clock::now();
  host.run_once(0ms);  // The send below is stamped no earlier than `sent`.
  host.net().send(node.id(), data_packet(1, 0, to));
  std::optional<UdpSocket::Datagram> got;
  const auto deadline = sent + 1s;
  while (!got && Clock::now() < deadline) {
    host.run_once(1ms);
    got = peer.recv();
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_GE(Clock::now() - sent, 30ms);
  EXPECT_LT(Clock::now() - sent, 130ms);  // Slack for loaded and sanitizer runs.
}

// The live caching deployment on one host: a DC running the caching
// service, and a receiver that NACKs its holes to it and gives a hole up
// one second after detecting it.
struct LiveCaching {
  static constexpr FlowId kFlow = 1;

  static endpoint::ReceiverConfig receiver_config(NodeId dc2) {
    endpoint::ReceiverConfig config;
    config.dc2 = dc2;
    config.recovery_service = ServiceType::kCache;
    config.recovery_give_up = sec(1);
    return config;
  }

  LiveCaching() {
    dc.install(cache);
    host.connect(receiver, dc2);
    receiver.expect_flow(kFlow);
  }

  LiveHost host;
  overlay::DataCenter dc{host.net(), DcId{0}, "dc"};
  std::shared_ptr<services::CachingService> cache =
      std::make_shared<services::CachingService>();
  NodeId dc2 = host.remote(host.bind(dc));
  std::set<SeqNo> delivered;
  endpoint::Receiver receiver{host.net(), receiver_config(dc2),
                              [this](const endpoint::DeliveryRecord& rec, const PacketPtr&) {
                                if (!rec.lost && !rec.late_direct) delivered.insert(rec.seq);
                              }};
  UdpEndpoint receiver_endpoint = host.bind(receiver);
};

TEST(LiveLoopback, CachingRecoveryOverRealSockets) {
  // The production sender duplicates every packet to the DC cache; the
  // direct leg drops 30% of datagrams, the last one (seq 199) among them.
  // The receiver NACKs each gap, and its tail timer catches the last loss,
  // which no later packet reveals. Everything must arrive.
  LiveCaching live;
  endpoint::Sender sender(live.host.net());
  live.host.bind(sender);
  endpoint::SenderPolicy policy;
  policy.service = ServiceType::kCache;
  policy.dc1 = live.dc2;
  policy.receiver = live.host.remote(live.receiver_endpoint);
  live.host.connect(sender, policy.dc1);
  live.host.connect(sender, policy.receiver, netsim::make_fixed_latency(msec(2)),
                    netsim::make_bernoulli_loss(0.3, Rng(1)));
  sender.register_flow(LiveCaching::kFlow, policy);

  constexpr std::size_t kPackets = 200;
  for (std::size_t i = 0; i < kPackets; ++i) {
    sender.send(LiveCaching::kFlow, 64);
    live.host.run_for(1ms);
  }
  pump_until(live.host, [&] { return live.delivered.size() == kPackets; }, 3s);

  EXPECT_EQ(live.delivered.size(), kPackets);
  EXPECT_EQ(live.delivered.count(kPackets - 1), 1u);
  const netsim::Link& direct = *live.host.net().link(sender.id(), policy.receiver);
  EXPECT_EQ(direct.stats().dropped_packets, 61u);
  const endpoint::ReceiverStats& rx = live.receiver.stats();
  EXPECT_EQ(rx.delivered_direct + rx.delivered_recovered, kPackets);
  EXPECT_GE(rx.delivered_recovered, 61u);
  EXPECT_EQ(rx.losses_given_up, 0u);
  EXPECT_GE(live.cache->stats().pull_hits, 61u);
}

TEST(LiveLoopback, FarAheadSeqIsDroppedAndCounted) {
  // One datagram carrying the flow's id and a far-ahead seq would make the
  // receiver NACK every hole below it; it is dropped and counted instead.
  LiveCaching live;
  UdpSocket peer;
  Packet pkt;
  pkt.flow = LiveCaching::kFlow;
  pkt.seq = kMaxSeqGap + 5;
  ASSERT_GT(peer.send_to(pkt.serialize(), live.receiver_endpoint), 0);
  const endpoint::ReceiverStats& rx = live.receiver.stats();
  pump_until(live.host, [&] { return rx.far_ahead_dropped == 1; }, 1s);
  // A NACK sent on arrival would reach the DC here, long before the flow's
  // first timer (100 ms) NACKs seq 0.
  live.host.run_once(5ms);
  EXPECT_EQ(rx.far_ahead_dropped, 1u);
  EXPECT_EQ(rx.nacks_sent, 0u);
  EXPECT_EQ(rx.delivered_direct, 0u);
  EXPECT_EQ(live.dc.ingress_bytes(), 0u);
}

TEST(LiveLoopback, UnservedHoleIsGivenUp) {
  // Seq 0 and 2 arrive, but the DC never saw seq 1, so no NACK for it is
  // ever answered. The receiver re-NACKs it and gives it up one second
  // after detecting it, then sends no more NACKs.
  LiveCaching live;
  UdpSocket peer;
  for (const SeqNo seq : {SeqNo{0}, SeqNo{2}}) {
    Packet pkt;
    pkt.flow = LiveCaching::kFlow;
    pkt.seq = seq;
    ASSERT_GT(peer.send_to(pkt.serialize(), live.receiver_endpoint), 0);
  }
  const endpoint::ReceiverStats& rx = live.receiver.stats();
  pump_until(live.host, [&] { return rx.losses_given_up == 1; }, 3s);
  ASSERT_EQ(rx.losses_given_up, 1u);
  EXPECT_EQ(rx.delivered_direct, 2u);
  const std::uint64_t nacks = rx.nacks_sent;
  EXPECT_GE(nacks, 2u);  // Detection, then re-NACKs until the give-up.
  live.host.run_for(300ms);
  EXPECT_EQ(rx.nacks_sent, nacks);
  EXPECT_GE(live.cache->stats().pulls, 1u);
  EXPECT_EQ(live.cache->stats().pull_hits, 0u);
}

}  // namespace
}  // namespace jqos::net
