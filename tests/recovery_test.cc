// Tests for the DC2 recovery engine: in-stream serving, cooperative
// recovery (success, stragglers, deadline failure, a second requester
// joining a running op, a shape no codec decodes), coded packets that
// disagree with their batch, NACK-before-coded checking, tail NACKs, batch
// TTL sweeping, and keys covered by more than two batches.
#include <gtest/gtest.h>

#include <map>

#include "fec/coded_batch.h"
#include "coding_reference.h"
#include "netsim/network.h"
#include "overlay/datacenter.h"
#include "services/coding/recovery_dc.h"

namespace jqos::services {
namespace {

using jqos::testing::reference_encode;

// A scripted peer receiver: stores its own packets and answers cooperative
// requests unless told to act as a straggler.
struct Peer final : netsim::Node {
  Peer(netsim::Network& net, overlay::DataCenter& dc) : net_(net), id_(net.allocate_id()) {
    net.attach(*this);
    net.add_link(dc.id(), id_, netsim::make_fixed_latency(msec(5)),
                 netsim::make_no_loss());
    net.add_link(id_, dc.id(), netsim::make_fixed_latency(msec(5)),
                 netsim::make_no_loss());
  }

  NodeId id() const override { return id_; }

  void handle_packet(const PacketPtr& pkt) override {
    received.push_back(pkt);
    if (pkt->type == PacketType::kCoopRequest && !straggler) {
      auto it = data.find(pkt->seq);
      if (it == data.end()) return;
      auto resp = std::make_shared<Packet>();
      resp->type = PacketType::kCoopResponse;
      resp->service = ServiceType::kCode;
      resp->flow = pkt->flow;
      resp->seq = pkt->seq;
      resp->src = id_;
      resp->dst = pkt->src;
      resp->meta = pkt->meta;
      resp->payload = it->second;
      net_.send(id_, resp);
    }
    if (pkt->type == PacketType::kNackCheck && confirm_checks) {
      NackInfo info;
      info.missing = {pkt->seq};
      auto confirm = std::make_shared<Packet>();
      confirm->type = PacketType::kNackConfirm;
      confirm->service = ServiceType::kCode;
      confirm->flow = pkt->flow;
      confirm->seq = pkt->seq;
      confirm->src = id_;
      confirm->dst = pkt->src;
      confirm->payload = info.serialize();
      net_.send(id_, confirm);
    }
  }

  std::vector<PacketPtr> recovered() const {
    std::vector<PacketPtr> out;
    for (const auto& p : received) {
      if (p->type == PacketType::kRecovered) out.push_back(p);
    }
    return out;
  }

  netsim::Network& net_;
  NodeId id_;
  std::map<SeqNo, std::vector<std::uint8_t>> data;
  bool straggler = false;
  bool confirm_checks = true;
  std::vector<PacketPtr> received;
};

struct Fixture {
  netsim::Simulator sim;
  netsim::Network net{sim};
  overlay::DataCenter dc2{net, 2, "dc2"};
  FlowRegistryPtr registry = std::make_shared<FlowRegistry>();
  std::shared_ptr<RecoveryService> recovery;
  std::vector<std::unique_ptr<Peer>> peers;

  explicit Fixture(RecoveryParams params = {}) {
    recovery = std::make_shared<RecoveryService>(dc2, params, registry);
    dc2.install(recovery);
  }

  // Creates k flows (1..k), one peer receiver each, with one data packet
  // (seq `seq`) per flow; returns the cross-coded packets for the batch.
  std::vector<PacketPtr> make_cross_batch(std::size_t k, SeqNo seq, std::size_t r = 2,
                                          std::uint32_t batch_id = 100) {
    std::vector<PacketPtr> data_pkts;
    for (FlowId f = 1; f <= k; ++f) {
      auto peer = std::make_unique<Peer>(net, dc2);
      auto p = std::make_shared<Packet>();
      p->flow = f;
      p->seq = seq;
      p->payload.assign(48, static_cast<std::uint8_t>(f * 7 + seq));
      peer->data[seq] = p->payload;
      registry->register_flow(f, FlowInfo{dc2.id(), peer->id()});
      peers.push_back(std::move(peer));
      data_pkts.push_back(std::move(p));
    }
    return reference_encode(data_pkts, r, PacketType::kCrossCoded, batch_id, 1, dc2.id(), 0);
  }

  void deliver_coded(const std::vector<PacketPtr>& coded) {
    for (const auto& c : coded) {
      auto copy = std::make_shared<Packet>(*c);
      copy->service = ServiceType::kCode;
      dc2.handle_packet(copy);
    }
  }

  void send_nack(FlowId flow, std::vector<SeqNo> missing, NodeId from, bool tail = false,
                 SeqNo expected = 0) {
    NackInfo info;
    info.tail = tail;
    info.expected = expected;
    info.missing = std::move(missing);
    auto nack = std::make_shared<Packet>();
    nack->type = PacketType::kNack;
    nack->service = ServiceType::kCode;
    nack->flow = flow;
    nack->src = from;
    nack->dst = dc2.id();
    nack->payload = info.serialize();
    dc2.handle_packet(nack);
  }
};

TEST(Recovery, CooperativeRecoverySingleLoss) {
  Fixture f;
  auto coded = f.make_cross_batch(6, 0);
  f.deliver_coded(coded);

  // Peer 0 (flow 1) lost its packet and NACKs.
  const auto want = f.peers[0]->data[0];
  f.peers[0]->data.clear();  // It does not have its own packet.
  f.send_nack(1, {0}, f.peers[0]->id());
  f.sim.run_until(sec(1));

  auto rec = f.peers[0]->recovered();
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec[0]->flow, 1u);
  EXPECT_EQ(rec[0]->seq, 0u);
  EXPECT_EQ(rec[0]->payload, want);
  EXPECT_EQ(f.recovery->stats().coop_success, 1u);
  // 5 peers were solicited (everyone but the requester).
  EXPECT_EQ(f.recovery->stats().coop_requests_sent, 5u);
}

TEST(Recovery, TwoRequestersJoinOneCooperativeOp) {
  Fixture f;
  auto coded = f.make_cross_batch(6, 0, /*r=*/3);
  f.deliver_coded(coded);
  const auto want_first = f.peers[0]->data[0];
  const auto want_second = f.peers[3]->data[0];
  f.peers[0]->data.clear();
  f.peers[3]->data.clear();
  f.peers[5]->straggler = true;
  f.send_nack(1, {0}, f.peers[0]->id());
  f.send_nack(4, {0}, f.peers[3]->id());  // Joins the op the first NACK started.
  f.sim.run_until(sec(1));

  EXPECT_EQ(f.recovery->stats().coop_ops, 1u);
  EXPECT_EQ(f.recovery->stats().coop_success, 1u);
  const auto first = f.peers[0]->recovered();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0]->flow, 1u);
  EXPECT_EQ(first[0]->payload, want_first);
  const auto second = f.peers[3]->recovered();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0]->flow, 4u);
  EXPECT_EQ(second[0]->payload, want_second);
  // Nobody asked for the straggler's position, so nothing is sent for it.
  EXPECT_TRUE(f.peers[5]->recovered().empty());
  EXPECT_EQ(f.recovery->stats().recovered_sent, 2u);
}

TEST(Recovery, CodedShapeBeyondGf256IsRefused) {
  RecoveryParams params;
  params.coop_deadline = msec(100);
  Fixture f(params);
  auto peer = std::make_unique<Peer>(f.net, f.dc2);
  f.registry->register_flow(1, FlowInfo{f.dc2.id(), peer->id()});
  // A well-formed cross-coded packet covering (1, 5) whose shape,
  // k + r = 256, no encoder makes and no codec can decode.
  auto coded = std::make_shared<Packet>();
  coded->type = PacketType::kCrossCoded;
  coded->service = ServiceType::kCode;
  CodedMeta meta;
  meta.batch_id = 100;
  meta.k = 1;
  meta.r = 255;
  meta.index = 1;
  meta.covered = {PacketKey{1, 5}};
  coded->meta = std::move(meta);
  coded->payload.assign(34, 0);
  EXPECT_NO_THROW(f.dc2.handle_packet(coded));
  EXPECT_NO_THROW(f.send_nack(1, {5}, peer->id()));
  f.sim.run_until(sec(1));
  EXPECT_TRUE(peer->received.empty());
  EXPECT_EQ(f.recovery->stats().coop_ops, 1u);
  EXPECT_EQ(f.recovery->stats().coop_success, 0u);
  EXPECT_EQ(f.recovery->stats().coop_deadline_failures, 1u);
}

TEST(Recovery, ToleratesStragglersUpToCodedBudget) {
  Fixture f;
  auto coded = f.make_cross_batch(6, 0, /*r=*/2);
  f.deliver_coded(coded);
  f.peers[0]->data.clear();
  f.peers[3]->straggler = true;  // One peer never answers; r=2 absorbs it.
  f.send_nack(1, {0}, f.peers[0]->id());
  f.sim.run_until(sec(1));
  EXPECT_EQ(f.peers[0]->recovered().size(), 1u);
  EXPECT_EQ(f.recovery->stats().coop_success, 1u);
}

TEST(Recovery, DeadlineFailureWhenTooManyStragglers) {
  RecoveryParams params;
  params.coop_deadline = msec(100);
  Fixture f(params);
  auto coded = f.make_cross_batch(6, 0, /*r=*/1);
  f.deliver_coded(coded);
  f.peers[0]->data.clear();
  f.peers[2]->straggler = true;
  f.peers[4]->straggler = true;  // r=1 cannot absorb two stragglers + 1 loss.
  f.send_nack(1, {0}, f.peers[0]->id());
  f.sim.run_until(sec(2));
  EXPECT_TRUE(f.peers[0]->recovered().empty());
  EXPECT_EQ(f.recovery->stats().coop_deadline_failures, 1u);
}

TEST(Recovery, InStreamServedForSingleLoss) {
  Fixture f;
  // In-stream batch: one flow, 5 packets.
  auto peer = std::make_unique<Peer>(f.net, f.dc2);
  f.registry->register_flow(9, FlowInfo{f.dc2.id(), peer->id()});
  std::vector<PacketPtr> data;
  for (SeqNo s = 0; s < 5; ++s) {
    auto p = std::make_shared<Packet>();
    p->flow = 9;
    p->seq = s;
    p->payload.assign(32, static_cast<std::uint8_t>(s));
    data.push_back(p);
  }
  auto coded = reference_encode(data, 1, PacketType::kInCoded, 500, 1, f.dc2.id(), 0);
  f.deliver_coded(coded);

  f.send_nack(9, {2}, peer->id());
  f.sim.run_until(sec(1));
  // The receiver gets the in-stream coded packet to decode locally.
  bool got_in_coded = false;
  for (const auto& p : peer->received) {
    if (p->type == PacketType::kInCoded) got_in_coded = true;
  }
  EXPECT_TRUE(got_in_coded);
  EXPECT_EQ(f.recovery->stats().in_stream_served, 1u);
  EXPECT_EQ(f.recovery->stats().coop_ops, 0u);
}

TEST(Recovery, CodedPacketDisagreeingWithItsBatchIsRefused) {
  Fixture f;
  auto peer = std::make_unique<Peer>(f.net, f.dc2);
  peer->confirm_checks = false;
  f.registry->register_flow(9, FlowInfo{f.dc2.id(), peer->id()});
  std::vector<PacketPtr> data;
  for (SeqNo s = 0; s < 4; ++s) {
    auto p = std::make_shared<Packet>();
    p->flow = 9;
    p->seq = s;
    p->payload.assign(32, static_cast<std::uint8_t>(s));
    data.push_back(p);
  }
  auto coded = reference_encode(data, 2, PacketType::kInCoded, 500, 1, f.dc2.id(), 0);
  // A second packet under batch 500's id whose covered keys differ.
  auto forged = std::make_shared<Packet>(*coded[1]);
  forged->meta->covered[0] = PacketKey{9, 40};
  f.deliver_coded({coded[0], forged});
  EXPECT_EQ(f.recovery->stats().inconsistent_coded, 1u);

  // In-stream serving ships every stored coded packet of the batch.
  auto served = [&] {
    const std::size_t before = peer->received.size();
    f.send_nack(9, {2}, peer->id());
    f.sim.run_until(f.sim.now() + msec(100));
    std::size_t n = 0;
    for (std::size_t i = before; i < peer->received.size(); ++i) {
      if (peer->received[i]->type == PacketType::kInCoded) ++n;
    }
    return n;
  };
  EXPECT_EQ(served(), 1u);  // The forged packet was not stored.

  f.deliver_coded({coded[1]});  // A conforming packet still is.
  EXPECT_EQ(f.recovery->stats().inconsistent_coded, 1u);
  EXPECT_EQ(served(), 2u);
}

TEST(Recovery, MultiLossNackPrefersCooperative) {
  Fixture f;
  auto coded0 = f.make_cross_batch(4, 0, 2, 100);
  f.deliver_coded(coded0);
  // Same flows, second packet each, second batch.
  std::vector<PacketPtr> data_pkts;
  for (FlowId flow = 1; flow <= 4; ++flow) {
    auto p = std::make_shared<Packet>();
    p->flow = flow;
    p->seq = 1;
    p->payload.assign(48, static_cast<std::uint8_t>(flow + 100));
    f.peers[flow - 1]->data[1] = p->payload;
    data_pkts.push_back(p);
  }
  auto coded1 = reference_encode(data_pkts, 2, PacketType::kCrossCoded, 101, 1, f.dc2.id(), 0);
  f.deliver_coded(coded1);

  // Peer 0 lost both of its packets (burst) and NACKs them together.
  f.peers[0]->data.clear();
  f.send_nack(1, {0, 1}, f.peers[0]->id());
  f.sim.run_until(sec(1));

  EXPECT_EQ(f.peers[0]->recovered().size(), 2u);
  EXPECT_EQ(f.recovery->stats().coop_ops, 2u);  // One per batch.
}

TEST(Recovery, NackBeforeCodedTriggersCheckThenRecovers) {
  Fixture f;
  auto coded = f.make_cross_batch(6, 0);
  // NACK arrives BEFORE any coded packet (outran it on the short path).
  f.peers[0]->data.clear();
  f.send_nack(1, {0}, f.peers[0]->id());
  f.sim.run_until(msec(50));
  EXPECT_EQ(f.recovery->stats().nack_checks_sent, 1u);
  EXPECT_TRUE(f.peers[0]->recovered().empty());

  // Coded packets arrive later; the confirmed pending NACK fires recovery.
  f.deliver_coded(coded);
  f.sim.run_until(sec(2));
  EXPECT_EQ(f.peers[0]->recovered().size(), 1u);
}

TEST(Recovery, SpuriousNackNeverRecoversWithoutConfirm) {
  Fixture f;
  auto coded = f.make_cross_batch(6, 0);
  f.peers[0]->confirm_checks = false;  // Receiver knows nothing is missing.
  f.send_nack(1, {7}, f.peers[0]->id());  // Seq 7 was never coded.
  f.sim.run_until(sec(1));
  f.deliver_coded(coded);
  f.sim.run_until(sec(2));
  EXPECT_TRUE(f.peers[0]->recovered().empty());
}

TEST(Recovery, TailNackRecoversForwardRun) {
  Fixture f;
  // Three consecutive batches covering seqs 0, 1, 2 of each flow.
  for (SeqNo s = 0; s < 3; ++s) {
    if (s == 0) {
      f.deliver_coded(f.make_cross_batch(4, 0, 2, 200));
    } else {
      std::vector<PacketPtr> data_pkts;
      for (FlowId flow = 1; flow <= 4; ++flow) {
        auto p = std::make_shared<Packet>();
        p->flow = flow;
        p->seq = s;
        p->payload.assign(48, static_cast<std::uint8_t>(flow * 3 + s));
        f.peers[flow - 1]->data[s] = p->payload;
        data_pkts.push_back(p);
      }
      f.deliver_coded(reference_encode(data_pkts, 2, PacketType::kCrossCoded, 200 + s, 1,
                                       f.dc2.id(), 0));
    }
  }
  // Flow 1's receiver went dark at seq 0 (outage): tail NACK from 0. The
  // tail scan only trusts batches old enough that direct copies must have
  // landed, so advance past that age first.
  f.sim.run_until(msec(200));
  f.peers[0]->data.clear();
  f.send_nack(1, {}, f.peers[0]->id(), /*tail=*/true, /*expected=*/0);
  f.sim.run_until(sec(2));
  EXPECT_EQ(f.peers[0]->recovered().size(), 3u);
}

TEST(Recovery, BatchTtlSweepsOldBatches) {
  RecoveryParams params;
  params.batch_ttl = sec(5);
  Fixture f(params);
  auto coded = f.make_cross_batch(4, 0);
  f.deliver_coded(coded);
  EXPECT_EQ(f.recovery->batches_held(), 1u);
  // The sweep re-arms itself while batches are held, so it runs past the
  // TTL with no further traffic; handle() refuses these kControl packets.
  for (int i = 1; i <= 8; ++i) {
    f.sim.run_until(sec(i));
    auto hb = std::make_shared<Packet>();
    hb->type = PacketType::kControl;
    f.recovery->handle(f.dc2, hb);
  }
  EXPECT_EQ(f.recovery->batches_held(), 0u);
  EXPECT_EQ(f.recovery->stats().batches_expired, 1u);

  // A batch whose TTL passes while a cooperative op on it still runs
  // survives every sweep until the op ends, and expires at the first sweep
  // after that.
  params.coop_deadline = sec(2);
  Fixture g(params);
  auto held = g.make_cross_batch(6, 0, /*r=*/1);
  g.sim.run_until(msec(500));
  g.deliver_coded(held);
  g.peers[0]->data.clear();
  g.peers[2]->straggler = true;
  g.peers[4]->straggler = true;  // The op cannot decode; it runs to its deadline.
  g.sim.run_until(msec(5450));
  g.send_nack(1, {0}, g.peers[0]->id());
  for (SimTime t : {msec(6100), msec(7100)}) {  // Past the TTL at the 6 s and 7 s sweeps.
    g.sim.run_until(t);
    EXPECT_EQ(g.recovery->stats().coop_ops, 1u);
    EXPECT_EQ(g.recovery->stats().coop_deadline_failures, 0u);
    EXPECT_EQ(g.recovery->batches_held(), 1u);
    EXPECT_EQ(g.recovery->stats().batches_expired, 0u);
  }
  g.sim.run_until(msec(8100));  // The op failed at 7.45 s; the 8 s sweep frees it.
  EXPECT_EQ(g.recovery->stats().coop_deadline_failures, 1u);
  EXPECT_EQ(g.recovery->batches_held(), 0u);
  EXPECT_EQ(g.recovery->stats().batches_expired, 1u);
}

TEST(Recovery, KeyInThreeBatchesServedInArrivalOrder) {
  RecoveryParams params;
  params.batch_ttl = sec(5);
  Fixture f(params);
  auto peer = std::make_unique<Peer>(f.net, f.dc2);
  peer->confirm_checks = false;
  f.registry->register_flow(9, FlowInfo{f.dc2.id(), peer->id()});
  std::vector<PacketPtr> data;
  for (SeqNo s = 0; s < 5; ++s) {
    auto p = std::make_shared<Packet>();
    p->flow = 9;
    p->seq = s;
    p->payload.assign(32, static_cast<std::uint8_t>(s));
    data.push_back(p);
  }
  // In-stream batches 500, 501 and 502 arrive one second apart, each
  // covering (9, 2): the key's third batch lies beyond the two the index
  // holds inline.
  for (std::uint32_t id = 500; id <= 502; ++id) {
    f.sim.run_until(sec(id - 500));
    f.deliver_coded(reference_encode(data, 1, PacketType::kInCoded, id, 1, f.dc2.id(), 0));
  }

  // Each NACK is served by the oldest batch still inside its TTL.
  auto served_by = [&](SimTime at) {
    f.sim.run_until(at);
    const std::size_t before = peer->received.size();
    f.send_nack(9, {2}, peer->id());
    f.sim.run_until(at + msec(100));
    std::vector<std::uint32_t> ids;
    for (std::size_t i = before; i < peer->received.size(); ++i) {
      const PacketPtr& p = peer->received[i];
      if (p->type == PacketType::kInCoded) ids.push_back(p->meta->batch_id);
    }
    return ids;
  };
  EXPECT_EQ(served_by(sec(3)), std::vector<std::uint32_t>{500});
  EXPECT_EQ(served_by(msec(5500)), std::vector<std::uint32_t>{501});
  EXPECT_EQ(served_by(msec(6500)), std::vector<std::uint32_t>{502});
  EXPECT_EQ(f.recovery->stats().in_stream_served, 3u);
  EXPECT_EQ(f.recovery->stats().uncovered_keys, 0u);

  EXPECT_TRUE(served_by(msec(7500)).empty());
  EXPECT_EQ(f.recovery->stats().in_stream_served, 3u);
  EXPECT_EQ(f.recovery->stats().uncovered_keys, 1u);
}

TEST(Recovery, StragglerResponseAfterCompletionCounted) {
  Fixture f;
  auto coded = f.make_cross_batch(6, 0);
  f.deliver_coded(coded);
  f.peers[0]->data.clear();
  f.send_nack(1, {0}, f.peers[0]->id());
  f.sim.run_until(sec(1));
  ASSERT_EQ(f.recovery->stats().coop_success, 1u);
  // The op closed as soon as enough symbols arrived; peers answering after
  // that already count as stragglers. Record the baseline.
  const std::uint64_t baseline = f.recovery->stats().straggler_responses;
  // A late duplicate response arrives after the op closed.
  auto resp = std::make_shared<Packet>();
  resp->type = PacketType::kCoopResponse;
  resp->service = ServiceType::kCode;
  resp->flow = 2;
  resp->seq = 0;
  resp->src = f.peers[1]->id();
  resp->dst = f.dc2.id();
  CodedMeta m;
  m.batch_id = 100;
  resp->meta = m;
  resp->payload = f.peers[1]->data[0];
  f.dc2.handle_packet(resp);
  EXPECT_EQ(f.recovery->stats().straggler_responses, baseline + 1);
}

}  // namespace
}  // namespace jqos::services
