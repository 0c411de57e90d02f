// Robustness and property tests across modules: wire-format fuzzing (the
// live runtime parses datagrams from the network), parameterized sweeps of
// the coding pipeline, loss-model determinism, and protocol-level
// invariants under randomized traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "endpoint/receiver.h"
#include "fec/coded_batch.h"
#include "netsim/loss_model.h"
#include "netsim/network.h"
#include "overlay/datacenter.h"
#include "services/coding/encoder_dc.h"
#include "services/coding/recovery_dc.h"
#include "transport/tcp_model.h"
#include "coding_reference.h"

namespace jqos {
namespace {

using jqos::testing::reference_encode;

// ------------------------- wire-format fuzzing -----------------------------

TEST(Fuzz, PacketParseNeverCrashesOnRandomBytes) {
  Rng rng(0xfeed);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t len = static_cast<std::size_t>(rng.uniform_int(0, 256));
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    auto parsed = Packet::parse(bytes);  // Must not crash or throw.
    if (parsed) {
      // Anything that parses must re-serialize to a consistent size.
      EXPECT_EQ(parsed->serialize().size(), parsed->wire_size());
    }
  }
}

TEST(Fuzz, PacketParseNeverCrashesOnMutatedValidPackets) {
  Rng rng(0xbeef);
  Packet p;
  p.type = PacketType::kCrossCoded;
  p.flow = 3;
  p.seq = 99;
  CodedMeta m;
  m.batch_id = 5;
  m.k = 4;
  m.r = 2;
  m.index = 4;
  m.covered = {{1, 1}, {2, 1}, {3, 1}, {4, 1}};
  p.meta = m;
  p.payload.assign(64, 7);
  const auto valid = p.serialize();
  for (int trial = 0; trial < 20000; ++trial) {
    auto mutated = valid;
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < flips; ++i) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    (void)Packet::parse(mutated);  // Must not crash.
  }
}

TEST(Fuzz, NackInfoParseNeverCrashes) {
  Rng rng(0xdead);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t len = static_cast<std::size_t>(rng.uniform_int(0, 64));
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    (void)NackInfo::parse(bytes);
  }
}

TEST(Fuzz, TcpSegmentParseNeverCrashes) {
  Rng rng(0xabcd);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t len = static_cast<std::size_t>(rng.uniform_int(0, 96));
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    (void)transport::TcpSegment::parse(bytes);
  }
}

// The wire edge applies the coded shape rule: every coded shape no encoder
// builds, serialized then parsed, is refused, while what BatchEncoder emits
// and a non-coded packet carrying meta still round-trip.
TEST(CodedShape, ParseRefusesShapesNoEncoderBuilds) {
  std::vector<PacketPtr> data;
  for (SeqNo s = 0; s < 4; ++s) {
    auto p = std::make_shared<Packet>();
    p->flow = 7;
    p->seq = s;
    p->payload.assign(20 + s, static_cast<std::uint8_t>(s));
    data.push_back(std::move(p));
  }
  fec::BatchEncoder enc;
  std::vector<PacketPtr> coded;
  for (PacketType type : {PacketType::kInCoded, PacketType::kCrossCoded}) {
    coded.clear();
    enc.encode_into(data, 2, type, 3, 1, 2, 0, coded);
    for (const PacketPtr& c : coded) {
      const auto parsed = Packet::parse(c->serialize());
      ASSERT_TRUE(parsed.has_value()) << to_string(type);
      ASSERT_TRUE(parsed->meta.has_value());
      EXPECT_EQ(*parsed->meta, *c->meta);
      EXPECT_EQ(parsed->payload, c->payload);
    }
  }

  // coded[0] is now a valid cross-stream packet: k = 4, r = 2, index 4.
  struct Malformed {
    const char* what;
    void (*mutate)(Packet&);
  };
  const Malformed shapes[] = {
      {"no meta", [](Packet& p) { p.meta.reset(); }},
      {"k = 0",
       [](Packet& p) {
         p.meta->k = 0;
         p.meta->index = 0;
         p.meta->covered.clear();
       }},
      {"k + r = 256", [](Packet& p) { p.meta->r = 252; }},
      {"index < k", [](Packet& p) { p.meta->index = 3; }},
      {"index >= k + r", [](Packet& p) { p.meta->index = 6; }},
      {"covered.size() < k", [](Packet& p) { p.meta->covered.pop_back(); }},
      {"covered.size() > k", [](Packet& p) { p.meta->covered.push_back({7, 9}); }},
      {"in-stream batch spanning flows",
       [](Packet& p) {
         p.type = PacketType::kInCoded;
         p.meta->covered[1].flow = 8;
       }},
  };
  for (const Malformed& shape : shapes) {
    Packet bad = *coded[0];
    shape.mutate(bad);
    EXPECT_FALSE(coded_shape_valid(bad)) << shape.what;
    EXPECT_FALSE(Packet::parse(bad.serialize()).has_value()) << shape.what;
  }

  // A cross-stream batch protects many flows at once.
  Packet cross = *coded[0];
  cross.meta->covered[1].flow = 8;
  EXPECT_TRUE(Packet::parse(cross.serialize()).has_value());

  // Cooperative requests carry only the batch id and shape, no keys.
  Packet coop;
  coop.type = PacketType::kCoopRequest;
  coop.meta.emplace();
  coop.meta->batch_id = 3;
  coop.meta->k = 4;
  coop.meta->r = 2;
  const auto parsed = Packet::parse(coop.serialize());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->meta.has_value());
  EXPECT_EQ(*parsed->meta, *coop.meta);
}

// --------------------- coded batch property sweeps -------------------------

struct BatchParam {
  std::size_t k;
  std::size_t r;
  std::size_t losses;
};

class CodedBatchSweep : public ::testing::TestWithParam<BatchParam> {};

TEST_P(CodedBatchSweep, RecoversIffEnoughSymbolsSurvive) {
  const auto [k, r, losses] = GetParam();
  Rng rng(1000 + k * 31 + r * 7 + losses);
  std::vector<PacketPtr> pkts;
  for (std::size_t i = 0; i < k; ++i) {
    auto p = std::make_shared<Packet>();
    p->flow = static_cast<FlowId>(i + 1);
    p->seq = 7;
    p->payload.resize(16 + (i * 29) % 64);
    for (auto& b : p->payload) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    pkts.push_back(std::move(p));
  }
  auto coded = reference_encode(pkts, r, PacketType::kCrossCoded, 1, 1, 2, 0);

  // Drop `losses` random data packets.
  std::set<std::size_t> missing;
  while (missing.size() < losses) {
    missing.insert(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(k) - 1)));
  }
  std::vector<std::pair<std::size_t, std::span<const std::uint8_t>>> present;
  for (std::size_t i = 0; i < k; ++i) {
    if (missing.count(i)) continue;
    present.emplace_back(i, std::span<const std::uint8_t>(pkts[i]->payload));
  }
  fec::ShardArena arena;
  const std::vector<std::size_t> wanted(missing.begin(), missing.end());
  std::vector<std::span<const std::uint8_t>> rec(wanted.size());
  const bool ok = fec::decode_batch(arena, *coded[0]->meta, present, coded, wanted, rec);
  if (losses <= r) {
    ASSERT_TRUE(ok);
    ASSERT_EQ(rec.size(), losses);
    for (std::size_t i = 0; i < wanted.size(); ++i) {
      EXPECT_TRUE(std::ranges::equal(rec[i], pkts[wanted[i]]->payload));
    }
  } else {
    EXPECT_FALSE(ok);  // Fails loudly, never mis-decodes.
  }
}

INSTANTIATE_TEST_SUITE_P(
    LossSweep, CodedBatchSweep,
    ::testing::Values(BatchParam{2, 1, 1}, BatchParam{4, 1, 1}, BatchParam{4, 2, 2},
                      BatchParam{4, 2, 3}, BatchParam{6, 2, 1}, BatchParam{6, 2, 2},
                      BatchParam{6, 2, 3}, BatchParam{10, 2, 2}, BatchParam{10, 3, 3},
                      BatchParam{20, 2, 2}, BatchParam{20, 2, 3}, BatchParam{20, 4, 4}));

// ------------------------- loss-model determinism --------------------------

class LossDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(LossDeterminism, SameSeedSameTrace) {
  const int which = GetParam();
  auto build = [which](std::uint64_t seed) -> netsim::LossModelPtr {
    switch (which) {
      case 0: return netsim::make_bernoulli_loss(0.05, Rng(seed));
      case 1: return netsim::make_gilbert_elliott({}, Rng(seed));
      case 2: return netsim::make_google_burst(0.02, 0.5, Rng(seed));
      default:
        return netsim::make_outage_over(netsim::make_bernoulli_loss(0.01, Rng(seed)),
                                        {}, Rng(seed + 1));
    }
  };
  auto trace = [&](std::uint64_t seed) {
    auto m = build(seed);
    std::vector<bool> out;
    for (int i = 0; i < 5000; ++i) out.push_back(m->should_drop(msec(i)));
    return out;
  };
  EXPECT_EQ(trace(42), trace(42));
  EXPECT_NE(trace(42), trace(43));  // Different seeds differ somewhere.
}

INSTANTIATE_TEST_SUITE_P(AllModels, LossDeterminism, ::testing::Values(0, 1, 2, 3));

// --------------------- end-to-end coding pipeline sweep --------------------

struct PipelineParam {
  std::size_t flows;
  std::size_t k;
  double loss;
};

class CodingPipelineSweep : public ::testing::TestWithParam<PipelineParam> {};

// Randomized end-to-end run of encoder + recovery + receivers under
// Bernoulli loss: the invariant is that recovery never delivers a corrupted
// payload and the receiver never double-delivers a sequence number.
TEST_P(CodingPipelineSweep, NoCorruptionNoDoubleDelivery) {
  const auto [flows, k, loss] = GetParam();
  netsim::Simulator sim;
  netsim::Network net(sim);
  Rng rng(99 + flows * 13 + k);

  overlay::DataCenter dc1(net, 0, "dc1");
  overlay::DataCenter dc2(net, 1, "dc2");
  auto registry = std::make_shared<services::FlowRegistry>();
  services::CodingParams cp;
  cp.k = k;
  cp.queue_timeout = msec(100);
  auto encoder = std::make_shared<services::CodingEncoderService>(dc1, cp, registry);
  dc1.install(encoder);
  dc2.install(std::make_shared<services::RecoveryService>(dc2, services::RecoveryParams{}, registry));
  net.add_link(dc1.id(), dc2.id(), netsim::make_fixed_latency(msec(30)),
               netsim::make_no_loss());

  endpoint::Sender sender(net);
  net.add_link(sender.id(), dc1.id(), netsim::make_fixed_latency(msec(5)),
               netsim::make_no_loss());

  struct PerFlow {
    std::unique_ptr<endpoint::Receiver> receiver;
    std::map<SeqNo, std::vector<std::uint8_t>> sent;
    std::set<SeqNo> delivered;
    bool corruption = false;
    bool double_delivery = false;
  };
  std::vector<PerFlow> per_flow(flows);

  for (std::size_t i = 0; i < flows; ++i) {
    PerFlow& pf = per_flow[i];
    endpoint::ReceiverConfig rc;
    rc.dc2 = dc2.id();
    rc.rtt_estimate = msec(120);
    rc.recovery_give_up = msec(500);
    pf.receiver = std::make_unique<endpoint::Receiver>(
        net, rc, [&pf](const endpoint::DeliveryRecord& rec, const PacketPtr& pkt) {
          if (rec.lost || rec.late_direct || pkt == nullptr) return;
          if (!pf.delivered.insert(rec.seq).second) pf.double_delivery = true;
          auto it = pf.sent.find(rec.seq);
          if (it != pf.sent.end() && it->second != pkt->payload) pf.corruption = true;
        });
    const FlowId flow = static_cast<FlowId>(i + 1);
    pf.receiver->expect_flow(flow);
    registry->register_flow(flow, services::FlowInfo{dc2.id(), pf.receiver->id()});
    net.add_link(sender.id(), pf.receiver->id(), netsim::make_fixed_latency(msec(55)),
                 netsim::make_bernoulli_loss(loss, rng.fork("loss")));
    net.add_link(dc2.id(), pf.receiver->id(), netsim::make_fixed_latency(msec(6)),
                 netsim::make_no_loss());
    net.add_link(pf.receiver->id(), dc2.id(), netsim::make_fixed_latency(msec(6)),
                 netsim::make_no_loss());
    endpoint::SenderPolicy policy;
    policy.service = ServiceType::kCode;
    policy.dc1 = dc1.id();
    policy.receiver = pf.receiver->id();
    sender.register_flow(flow, policy);
  }

  // 400 packets per flow at 25 pps, unique payload contents per packet.
  for (int n = 0; n < 400; ++n) {
    sim.at(msec(40) * n, [&, n] {
      for (std::size_t i = 0; i < flows; ++i) {
        std::vector<std::uint8_t> payload(48);
        for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        per_flow[i].sent[static_cast<SeqNo>(n)] = payload;
        sender.send_payload(static_cast<FlowId>(i + 1), payload);
      }
    });
  }
  sim.run_until(sec(25));
  encoder->flush_all();
  sim.run_until(sec(30));

  for (std::size_t i = 0; i < flows; ++i) {
    EXPECT_FALSE(per_flow[i].corruption) << "flow " << i + 1;
    EXPECT_FALSE(per_flow[i].double_delivery) << "flow " << i + 1;
    // The vast majority of packets must have been delivered one way or
    // another (direct or recovered).
    EXPECT_GT(per_flow[i].delivered.size(), 380u) << "flow " << i + 1;
  }
}

INSTANTIATE_TEST_SUITE_P(Pipelines, CodingPipelineSweep,
                         ::testing::Values(PipelineParam{2, 4, 0.01},
                                           PipelineParam{4, 4, 0.02},
                                           PipelineParam{6, 6, 0.01},
                                           PipelineParam{8, 6, 0.03},
                                           PipelineParam{10, 10, 0.02}));

}  // namespace
}  // namespace jqos
