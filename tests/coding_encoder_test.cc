// Tests for the CR-WAN encoder at DC1 (Algorithm 1): in-stream and
// cross-stream queueing, the no-same-flow-in-a-batch invariant, round-robin
// placement, queue timers, the coding-rate accounting, and the state
// transitions around them: peer suspension, flow departures and DC crashes.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "netsim/network.h"
#include "overlay/datacenter.h"
#include "services/coding/encoder_dc.h"

namespace jqos::services {
namespace {

struct Fixture {
  netsim::Simulator sim;
  netsim::Network net{sim};
  overlay::DataCenter dc1{net, 1, "dc1"};
  overlay::DataCenter dc2{net, 2, "dc2"};
  FlowRegistryPtr registry = std::make_shared<FlowRegistry>();

  struct CollectorService final : overlay::DcService {
    const char* name() const override { return "collector"; }
    bool handle(overlay::DataCenter&, const PacketPtr& pkt) override {
      if (pkt->is_coded()) {
        coded.push_back(pkt);
        return true;
      }
      return false;
    }
    std::vector<PacketPtr> coded;
  };
  std::shared_ptr<CollectorService> collector = std::make_shared<CollectorService>();

  explicit Fixture(const CodingParams& params) {
    net.add_link(dc1.id(), dc2.id(), netsim::make_fixed_latency(msec(30)),
                 netsim::make_no_loss());
    encoder = std::make_shared<CodingEncoderService>(dc1, params, registry);
    dc1.install(encoder);
    dc2.install(collector);
  }

  void register_flows(std::size_t n) {
    for (FlowId f = 1; f <= n; ++f) {
      registry->register_flow(f, FlowInfo{dc2.id(), 1000 + f});
    }
  }

  void offer(FlowId flow, SeqNo seq) {
    auto p = std::make_shared<Packet>();
    p->type = PacketType::kData;
    p->service = ServiceType::kCode;
    p->flow = flow;
    p->seq = seq;
    p->dst = dc1.id();
    p->final_dst = dc1.id();
    p->payload.assign(64, static_cast<std::uint8_t>(seq));
    dc1.handle_packet(p);
  }

  void depart(FlowId flow) { encoder->flow_departed(flow); }

  // Cross-stream coded packets collected so far, as each batch's k.
  std::vector<std::size_t> cross_ks() const {
    std::vector<std::size_t> ks;
    for (const auto& c : collector->coded) {
      if (c->type == PacketType::kCrossCoded && c->meta->index == c->meta->k) {
        ks.push_back(c->meta->k);
      }
    }
    return ks;
  }

  std::shared_ptr<CodingEncoderService> encoder;
};

CodingParams small_params() {
  CodingParams p;
  p.k = 4;
  p.cross_coded = 2;
  p.in_block = 5;
  p.in_coded = 1;
  p.queue_timeout = msec(30);
  p.queues_per_group = 2;
  return p;
}

TEST(Encoder, InStreamBatchEmittedWhenBlockFills) {
  Fixture f(small_params());
  f.register_flows(1);
  for (SeqNo s = 0; s < 5; ++s) f.offer(1, s);
  f.sim.run_until(msec(100));

  // One in-stream coded packet for the full block of 5.
  int in_coded = 0;
  for (const auto& c : f.collector->coded) {
    if (c->type == PacketType::kInCoded) {
      ++in_coded;
      ASSERT_TRUE(c->meta.has_value());
      EXPECT_EQ(c->meta->k, 5);
      EXPECT_EQ(c->meta->r, 1);
      for (const auto& key : c->meta->covered) EXPECT_EQ(key.flow, 1u);
    }
  }
  EXPECT_EQ(in_coded, 1);
  EXPECT_EQ(f.encoder->stats().in_batches, 1u);
}

TEST(Encoder, CrossStreamBatchFromKDistinctFlows) {
  Fixture f(small_params());
  f.register_flows(4);
  // Round 0 teaches the encoder the group population (batches close at the
  // adaptive effective k while flows are being discovered); by round 1 the
  // group is known to hold 4 flows, so full k=4 batches form.
  for (SeqNo s = 0; s < 3; ++s) {
    for (FlowId flow = 1; flow <= 4; ++flow) f.offer(flow, s);
  }
  f.sim.run_until(msec(200));

  int full_batches = 0;
  for (const auto& c : f.collector->coded) {
    if (c->type == PacketType::kCrossCoded) {
      ASSERT_TRUE(c->meta.has_value());
      EXPECT_EQ(c->meta->r, 2);
      EXPECT_LE(c->meta->k, 4);
      if (c->meta->k == 4) ++full_batches;
      // Invariant D4: no two packets of the same flow in a batch.
      std::set<FlowId> flows;
      for (const auto& key : c->meta->covered) {
        EXPECT_TRUE(flows.insert(key.flow).second)
            << "duplicate flow " << key.flow << " in cross batch";
      }
    }
  }
  // Steady state produced at least one full k=4 batch (2 coded packets
  // each, so divide by r when counting batches).
  EXPECT_GE(full_batches, 2);  // >= 1 batch x 2 coded packets.
}

TEST(Encoder, NoSameFlowInAnyBatchUnderPressure) {
  // A single flow hammering the encoder plus sparse peers: every emitted
  // cross batch must still be duplicate-free (Algorithm 1 lines 9-19).
  Fixture f(small_params());
  f.register_flows(4);
  for (SeqNo s = 0; s < 50; ++s) {
    f.offer(1, s);
    if (s % 5 == 0) f.offer(2, s / 5);
    if (s % 10 == 0) f.offer(3, s / 10);
  }
  f.encoder->flush_all();
  f.sim.run_until(sec(1));
  for (const auto& c : f.collector->coded) {
    if (c->type != PacketType::kCrossCoded) continue;
    std::set<FlowId> flows;
    for (const auto& key : c->meta->covered) {
      EXPECT_TRUE(flows.insert(key.flow).second);
    }
  }
  EXPECT_GT(f.encoder->stats().cross_batches, 0u);
}

TEST(Encoder, TimerFlushesPartialBatches) {
  Fixture f(small_params());
  f.register_flows(2);
  f.offer(1, 0);
  f.offer(2, 0);
  // No further packets: only the 30 ms queue timer can emit the batch.
  f.sim.run_until(msec(200));
  EXPECT_GT(f.encoder->stats().timer_flushes, 0u);
  bool found_partial_cross = false;
  for (const auto& c : f.collector->coded) {
    if (c->type == PacketType::kCrossCoded && c->meta->k == 2) found_partial_cross = true;
  }
  EXPECT_TRUE(found_partial_cross);
}

TEST(Encoder, UnregisteredFlowCountedAndConsumed) {
  Fixture f(small_params());
  f.offer(42, 0);  // Never registered.
  EXPECT_EQ(f.encoder->stats().unknown_flow, 1u);
  EXPECT_EQ(f.encoder->stats().data_packets, 0u);
}

TEST(Encoder, IgnoresNonCodingPackets) {
  Fixture f(small_params());
  f.register_flows(1);
  auto p = std::make_shared<Packet>();
  p->type = PacketType::kData;
  p->service = ServiceType::kCache;
  p->flow = 1;
  p->dst = f.dc1.id();
  EXPECT_FALSE(f.encoder->handle(f.dc1, p));
}

TEST(Encoder, InStreamDisabledBySettingZero) {
  CodingParams p = small_params();
  p.in_coded = 0;  // The Skype configuration (s = 0, Section 6.3).
  Fixture f(p);
  f.register_flows(1);
  for (SeqNo s = 0; s < 20; ++s) f.offer(1, s);
  f.encoder->flush_all();
  f.sim.run_until(sec(1));
  for (const auto& c : f.collector->coded) {
    EXPECT_NE(c->type, PacketType::kInCoded);
  }
  EXPECT_EQ(f.encoder->stats().in_batches, 0u);
}

TEST(Encoder, CodingOverheadMatchesConfiguredRates) {
  // r = 2/4 cross + 1/5 in-stream: for N data packets expect about
  // N*(2/4) + N*(1/5) coded packets (within timer-flush slack).
  Fixture f(small_params());
  f.register_flows(4);
  const std::size_t rounds = 50;
  for (SeqNo s = 0; s < rounds; ++s) {
    for (FlowId flow = 1; flow <= 4; ++flow) f.offer(flow, s);
  }
  f.encoder->flush_all();
  f.sim.run_until(sec(1));
  const double data = static_cast<double>(4 * rounds);
  const double coded = static_cast<double>(f.encoder->stats().coded_sent);
  const double expected_rate = 2.0 / 4.0 + 1.0 / 5.0;
  EXPECT_NEAR(coded / data, expected_rate, 0.1);
}

TEST(Encoder, BatchIdsUniqueAndNamespaced) {
  Fixture f(small_params());
  f.register_flows(4);
  for (SeqNo s = 0; s < 25; ++s) {
    for (FlowId flow = 1; flow <= 4; ++flow) f.offer(flow, s);
  }
  f.encoder->flush_all();
  f.sim.run_until(sec(1));
  std::map<std::uint32_t, PacketType> batch_types;
  for (const auto& c : f.collector->coded) {
    auto [it, inserted] = batch_types.emplace(c->meta->batch_id, c->type);
    if (!inserted) {
      // Same batch id must mean the same batch (same type, same k).
      EXPECT_EQ(it->second, c->type);
    }
    // Namespaced by the encoder's DcId (1 << 20).
    EXPECT_GE(c->meta->batch_id, 1u << 20);
  }
}

TEST(Encoder, FlushAllEmitsEverythingPending) {
  Fixture f(small_params());
  f.register_flows(3);
  f.offer(1, 0);
  f.offer(2, 0);
  f.offer(3, 0);
  const auto before = f.collector->coded.size();
  f.encoder->flush_all();
  f.sim.run_until(sec(1));
  EXPECT_GT(f.collector->coded.size(), before);
}

TEST(Encoder, DeadPeerSuspendsProbesWithCappedBackoffAndReengages) {
  CodingParams p = small_params();
  p.in_coded = 0;  // Cross-stream batches only: one flush per offered pair.
  Fixture f(p);
  f.register_flows(2);
  bool alive = false;
  f.encoder->set_peer_health([&alive](NodeId dc2) {
    EXPECT_EQ(dc2, 2u);
    return alive;
  });
  // Both flows always land in the same queue, so the second packet of each
  // pair closes a k = 2 batch at once: one flush attempt per pair.
  SeqNo seq = 0;
  const auto pair_at = [&](SimTime t) {
    f.sim.run_until(t);
    f.offer(1, seq);
    f.offer(2, seq);
    ++seq;
  };
  const EncoderStats& st = f.encoder->stats();

  pair_at(0);  // First flush finds the peer dead: suspend, backoff 100 ms.
  EXPECT_EQ(st.peer_suspends, 1u);
  EXPECT_EQ(st.peer_probes, 0u);
  EXPECT_EQ(st.flushes_suppressed, 1u);
  pair_at(msec(50));  // Inside the backoff: dropped without a probe.
  pair_at(msec(99));
  EXPECT_EQ(st.peer_probes, 0u);
  EXPECT_EQ(st.flushes_suppressed, 3u);

  pair_at(msec(100));  // Backoff over: probe, still dead, backoff 200 ms.
  EXPECT_EQ(st.peer_probes, 1u);
  pair_at(msec(299));
  EXPECT_EQ(st.peer_probes, 1u);
  pair_at(msec(300));  // Probe; backoff 400 ms.
  pair_at(msec(700));  // Probe; backoff 800 ms.
  pair_at(msec(1500));  // Probe; backoff 1.6 s.
  pair_at(msec(3100));  // Probe; 3.2 s is capped to 2 s.
  EXPECT_EQ(st.peer_probes, 5u);
  pair_at(msec(5099));
  EXPECT_EQ(st.peer_probes, 5u);
  pair_at(msec(5100));  // Probe; backoff stays at the 2 s cap.
  pair_at(msec(7099));
  EXPECT_EQ(st.peer_probes, 6u);
  EXPECT_EQ(st.flushes_suppressed, 12u);
  EXPECT_EQ(st.coded_sent, 0u);

  alive = true;
  pair_at(msec(7100));  // Healthy probe: re-engage and ship this batch.
  pair_at(msec(7150));  // Engaged: ships without a probe.
  EXPECT_EQ(st.peer_suspends, 1u);
  EXPECT_EQ(st.peer_probes, 7u);
  EXPECT_EQ(st.peer_reengages, 1u);
  EXPECT_EQ(st.flushes_suppressed, 12u);
  EXPECT_EQ(st.cross_batches, 14u);
  EXPECT_EQ(st.coded_sent, 4u);
  EXPECT_EQ(st.timer_flushes, 0u);
  f.sim.run_until(sec(8));
  EXPECT_EQ(f.cross_ks(), (std::vector<std::size_t>{2, 2}));
}

TEST(Encoder, DeparturesShrinkTheGroupAndFlushResidualsOnce) {
  Fixture f(small_params());  // k = 4, two queues, in-stream blocks of 5.
  f.register_flows(4);
  // Seq 0 of every flow teaches the group its population; the timers flush
  // what it leaves staged, so every queue is empty at 100 ms.
  for (FlowId flow = 1; flow <= 4; ++flow) f.offer(flow, 0);
  f.sim.run_until(msec(100));
  EXPECT_EQ(f.cross_ks(), (std::vector<std::size_t>{2, 2}));
  EXPECT_EQ(f.encoder->stats().timer_flushes, 5u);  // One cross, four in-stream.

  // Four live flows: each round of four packets closes one batch at k = 4
  // (checked at the collector below).
  for (SeqNo s = 1; s <= 7; ++s) {
    for (FlowId flow = 1; flow <= 4; ++flow) f.offer(flow, s);
  }
  EXPECT_EQ(f.encoder->stats().cross_batches, 9u);
  EXPECT_EQ(f.encoder->stats().in_batches, 8u);

  // Seqs 6 and 7 of every flow wait in its in-stream queue; a departure
  // encodes them at once, and its timer never fires.
  f.depart(3);
  f.depart(4);
  EXPECT_EQ(f.encoder->stats().flow_departures, 2u);
  EXPECT_EQ(f.encoder->stats().in_batches, 10u);

  // Two live flows: batches now close at k = 2.
  for (SeqNo s = 8; s <= 10; ++s) {
    for (FlowId flow = 1; flow <= 2; ++flow) f.offer(flow, s);
  }
  f.sim.run_until(sec(1));
  EXPECT_EQ(f.cross_ks(),
            (std::vector<std::size_t>{2, 2, 4, 4, 4, 4, 4, 4, 4, 2, 2, 2}));
  EXPECT_EQ(f.encoder->stats().in_batches, 12u);
  EXPECT_EQ(f.encoder->stats().cross_batches, 12u);
  EXPECT_EQ(f.encoder->stats().timer_flushes, 5u);

  // Each departed flow's residual left in exactly one in-stream batch.
  for (FlowId flow : {3u, 4u}) {
    int residual_batches = 0;
    for (const auto& c : f.collector->coded) {
      if (c->type != PacketType::kInCoded || c->meta->covered.front().flow != flow) continue;
      if (c->meta->covered.front().seq != 6) continue;
      ++residual_batches;
      EXPECT_EQ(c->meta->k, 2);
      EXPECT_EQ(c->meta->covered.back().seq, 7u);
    }
    EXPECT_EQ(residual_batches, 1) << "flow " << flow;
  }
}

TEST(Encoder, CrashDropsStagedQueuesAndRestartRebuildsTheGroup) {
  Fixture f(small_params());
  f.register_flows(3);
  for (FlowId flow = 1; flow <= 3; ++flow) f.offer(flow, 0);
  // Flows 1 and 2 closed a k = 2 batch; flow 3's cross packet and all three
  // in-stream packets are staged behind armed timers.
  EXPECT_EQ(f.encoder->stats().coded_sent, 2u);

  f.dc1.fault_crash();
  EXPECT_EQ(f.encoder->stats().crash_wipes, 1u);
  f.sim.run_until(msec(200));
  EXPECT_EQ(f.encoder->stats().timer_flushes, 0u);
  EXPECT_EQ(f.encoder->stats().coded_sent, 2u);
  EXPECT_EQ(f.collector->coded.size(), 2u);

  // Restarted cold: the group starts from zero flows, so two flows close a
  // k = 2 batch again (a surviving count of three would hold it for k = 3).
  f.dc1.fault_restart();
  f.offer(1, 1);
  f.offer(2, 1);
  EXPECT_EQ(f.encoder->stats().cross_batches, 2u);
  EXPECT_EQ(f.encoder->stats().coded_sent, 4u);
  f.sim.run_until(sec(1));
  EXPECT_EQ(f.cross_ks(), (std::vector<std::size_t>{2, 2}));
  EXPECT_EQ(f.encoder->stats().crash_wipes, 1u);
}

}  // namespace
}  // namespace jqos::services
