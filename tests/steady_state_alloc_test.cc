// The enforcement arm of the object-pool subsystem: with pools enabled, the
// steady-state packet path must touch the global allocator ZERO times per
// packet. This binary links jqos_alloc_probe, which replaces global operator
// new/delete with counting wrappers; after a warmup that fills every pool
// and amortized buffer, a measured window asserts the allocation delta is
// exactly zero. Under ASan/TSan the probe is stubbed out (the sanitizer owns
// the heap) and these tests skip -- the Release leg of CI is the guard.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/alloc_probe.h"
#include "common/packet.h"
#include "common/packet_pool.h"
#include "endpoint/receiver.h"
#include "endpoint/sender.h"
#include "fec/coded_batch.h"
#include "netsim/latency_model.h"
#include "netsim/loss_model.h"
#include "netsim/network.h"
#include "overlay/datacenter.h"
#include "services/coding/encoder_dc.h"
#include "services/coding/recovery_dc.h"
#include "test_guards.h"

namespace jqos {
namespace {

// The ladder event-queue backend spreads rungs into buckets on an amortized
// schedule, so even in steady state it allocates O(1) per drain; that churn
// is bounded and pinned by its own memory-regression test. Pin the heap
// backend here so this suite measures the PACKET path alone.
using jqos::testing::EvqBackendGuard;

struct Sink final : netsim::Node {
  explicit Sink(netsim::Network& net) : id_(net.allocate_id()) { net.attach(*this); }
  NodeId id() const override { return id_; }
  void handle_packet(const PacketPtr& pkt) override { received.push_back(pkt); }
  NodeId id_;
  std::vector<PacketPtr> received;
};

TEST(SteadyStateAlloc, SenderDuplicationPathIsAllocationFree) {
  if (!alloc_probe::active()) {
    GTEST_SKIP() << "alloc probe inactive (sanitizer build owns the heap)";
  }

  const EvqBackendGuard evq(netsim::EvqBackend::kHeap);
  netsim::Simulator sim;
  PacketPool pool;
  netsim::Network net(sim, 0, &pool);
  Sink receiver(net);
  Sink dc1(net);
  endpoint::Sender sender(net);
  net.add_link(sender.id(), receiver.id(), netsim::make_fixed_latency(msec(20)),
               netsim::make_no_loss());
  net.add_link(sender.id(), dc1.id(), netsim::make_fixed_latency(msec(5)),
               netsim::make_no_loss());

  endpoint::SenderPolicy policy;
  policy.service = ServiceType::kCode;
  policy.dc1 = dc1.id();
  policy.receiver = receiver.id();
  sender.register_flow(1, policy);

  constexpr int kBurst = 32;
  auto pump = [&] {
    receiver.received.clear();
    dc1.received.clear();
    for (int i = 0; i < kBurst; ++i) sender.send(1, 256);
    sim.run();
  };

  // Warmup: fill the packet/control-block freelists, the sinks' vectors,
  // and the event-queue backing store to their steady footprint.
  for (int round = 0; round < 16; ++round) pump();

  alloc_probe::reset();
  constexpr int kRounds = 16;
  for (int round = 0; round < kRounds; ++round) pump();
  const std::uint64_t allocs = alloc_probe::allocations();

  EXPECT_EQ(allocs, 0u) << "sender duplication path hit the global allocator "
                        << allocs << " times over "
                        << (kRounds * kBurst * 2) << " packets";
  EXPECT_GT(pool.reused(), 0u);
}

TEST(SteadyStateAlloc, ReceiverInOrderPathIsAllocationFree) {
  if (!alloc_probe::active()) {
    GTEST_SKIP() << "alloc probe inactive (sanitizer build owns the heap)";
  }

  netsim::Simulator sim;
  PacketPool pool;
  netsim::Network net(sim, 0, &pool);
  endpoint::Receiver receiver(net, endpoint::ReceiverConfig{});
  receiver.expect_flow(1);

  SeqNo seq = 0;
  auto feed = [&](int n) {
    for (int i = 0; i < n; ++i) {
      receiver.handle_packet(
          make_data_packet(1, seq++, /*src=*/1, /*dst=*/receiver.id(),
                           /*now=*/0, /*payload_bytes=*/256, &pool));
    }
  };

  // Warmup must exceed the 1,024-packet history: the flow's sequence window
  // grows its ring by doubling until the history is full, then recycles
  // its slots.
  feed(2048);

  alloc_probe::reset();
  constexpr int kPackets = 1024;
  feed(kPackets);
  const std::uint64_t allocs = alloc_probe::allocations();

  EXPECT_EQ(allocs, 0u) << "receiver in-order path hit the global allocator "
                        << allocs << " times over " << kPackets << " packets";
  EXPECT_GT(pool.reused(), 0u);
}

// Holes cost no allocation either: each one takes a slot of the ring the
// window already has, and stays open while the arrivals behind it land.
TEST(SteadyStateAlloc, ReceiverLossPathIsAllocationFree) {
  if (!alloc_probe::active()) {
    GTEST_SKIP() << "alloc probe inactive (sanitizer build owns the heap)";
  }

  netsim::Simulator sim;
  PacketPool pool;
  netsim::Network net(sim, 0, &pool);
  endpoint::Receiver receiver(net, endpoint::ReceiverConfig{});
  receiver.expect_flow(1);

  // The direct path loses one seq in 64; its recovered copy lands ten
  // arrivals later.
  SeqNo seq = 0;
  auto feed = [&](int n) {
    for (int i = 0; i < n; ++i, ++seq) {
      if (seq % 64 != 0) {
        receiver.handle_packet(make_data_packet(1, seq, /*src=*/1, /*dst=*/receiver.id(),
                                                /*now=*/0, /*payload_bytes=*/256, &pool));
      }
      if (seq % 64 == 10) {
        auto copy = make_packet(&pool, PacketType::kRecovered, ServiceType::kCode, 1,
                                seq - 10, /*src=*/1, receiver.id(), /*now=*/0);
        copy->payload.assign(256, 0);
        receiver.handle_packet(copy);
      }
    }
  };

  feed(4096);

  alloc_probe::reset();
  constexpr int kPackets = 2048;
  feed(kPackets);
  const std::uint64_t allocs = alloc_probe::allocations();

  EXPECT_EQ(allocs, 0u) << "receiver loss path hit the global allocator " << allocs
                        << " times over " << kPackets << " packets";
  EXPECT_EQ(receiver.stats().losses_detected, 96u);
  EXPECT_EQ(receiver.stats().delivered_recovered, 96u);
}

// The paper's headline service: DC1 encodes, DC2 stores every coded batch
// until its TTL and then recycles the batch's slot. Recycled slots and the
// pool's covered-key vectors reach their largest shape only after several
// TTL cycles, hence the long warmup.
TEST(SteadyStateAlloc, CodedPathIsAllocationFree) {
  if (!alloc_probe::active()) {
    GTEST_SKIP() << "alloc probe inactive (sanitizer build owns the heap)";
  }

  const EvqBackendGuard evq(netsim::EvqBackend::kHeap);
  netsim::Simulator sim;
  PacketPool pool;
  netsim::Network net(sim, 0, &pool);
  overlay::DataCenter dc1(net, 1, "dc1");
  overlay::DataCenter dc2(net, 2, "dc2");
  Sink receiver(net);
  net.add_link(dc1.id(), dc2.id(), netsim::make_fixed_latency(msec(20)),
               netsim::make_no_loss());

  auto registry = std::make_shared<services::FlowRegistry>();
  dc1.install(std::make_shared<services::CodingEncoderService>(dc1, services::CodingParams{},
                                                               registry));
  services::RecoveryParams params;
  params.batch_ttl = sec(1);
  auto recovery = std::make_shared<services::RecoveryService>(dc2, params, registry);
  dc2.install(recovery);

  constexpr FlowId kFlows = 6;
  for (FlowId f = 1; f <= kFlows; ++f) {
    registry->register_flow(f, services::FlowInfo{dc2.id(), receiver.id()});
  }

  // Every 10 ms each flow hands DC1 one 256 B data packet.
  struct Pacer {
    netsim::Simulator& sim;
    overlay::DataCenter& dc1;
    PacketPool& pool;
    NodeId src;
    SeqNo seq = 0;
    void tick() {
      for (FlowId f = 1; f <= kFlows; ++f) {
        auto p = make_packet(&pool, PacketType::kData, ServiceType::kCode, f, seq, src,
                             dc1.id(), sim.now());
        p->payload.assign(256, static_cast<std::uint8_t>(seq));
        dc1.handle_packet(p);
      }
      ++seq;
      sim.after(msec(10), [this] { tick(); });
    }
  } pacer{sim, dc1, pool, receiver.id()};
  pacer.tick();

  sim.run_until(sec(12));
  const std::uint64_t expired_before = recovery->stats().batches_expired;
  const SeqNo seq_before = pacer.seq;

  alloc_probe::reset();
  sim.run_until(sec(15));
  const std::uint64_t allocs = alloc_probe::allocations();
  const std::uint64_t packets = (pacer.seq - seq_before) * kFlows;

  EXPECT_EQ(allocs, 0u) << "coded path hit the global allocator " << allocs
                        << " times over " << packets << " packets";
  EXPECT_GT(recovery->stats().batches_expired, expired_before);
  EXPECT_GT(pool.reused(), 0u);
}

// A coded packet pops whatever the pool returns next, most often a packet a
// data packet brought home. Once an encoder has taken coded packets from a
// pool, every packet the pool builds is born big enough for the padded
// shard, so a coded checkout of a data-born packet grows no payload.
TEST(PacketPoolTest, CodedCheckoutOfDataBornPacketIsAllocationFree) {
  if (!alloc_probe::active()) {
    GTEST_SKIP() << "alloc probe inactive (sanitizer build owns the heap)";
  }

  constexpr std::size_t kK = 4;
  constexpr std::size_t kR = 2;
  constexpr std::uint32_t kBatches = 8;
  constexpr std::size_t kPayload = 512;  // A 544 B padded shard.
  PacketPool pool;
  fec::BatchEncoder encoder;
  std::vector<PacketPtr> data;
  std::vector<PacketPtr> coded;
  data.reserve(kK);
  coded.reserve(kBatches * kR);
  auto encode_batch = [&](std::uint32_t batch_id) {
    for (std::size_t i = 0; i < kK; ++i) {
      data.push_back(make_data_packet(static_cast<FlowId>(i + 1), batch_id, 1, 2, 0, kPayload,
                                      &pool));
    }
    encoder.encode_into(data, kR, PacketType::kCrossCoded, batch_id, 1, 2, 0, coded, &pool);
    data.clear();
  };
  // Warm-up: sizes the arena and leaves one covered-key vector per coded
  // packet of the measured batches for the pool to salvage.
  for (std::uint32_t batch_id = 0; batch_id < kBatches; ++batch_id) encode_batch(batch_id);
  coded.clear();

  // More data packets than the pool holds: all but the first few are built
  // fresh, and they come home last. The measured batches keep their coded
  // packets, so each coded packet pops a different one of them.
  const std::uint64_t fresh_before_burst = pool.fresh();
  {
    std::vector<PacketPtr> burst;
    for (SeqNo seq = 0; seq < 64; ++seq) {
      burst.push_back(make_data_packet(9, seq, 1, 2, 0, kPayload, &pool));
    }
  }
  const std::uint64_t fresh = pool.fresh();
  ASSERT_GT(fresh - fresh_before_burst, kK + kBatches * kR);

  alloc_probe::reset();
  for (std::uint32_t batch_id = kBatches; batch_id < 2 * kBatches; ++batch_id) {
    encode_batch(batch_id);
  }
  const std::uint64_t allocs = alloc_probe::allocations();

  EXPECT_EQ(allocs, 0u) << kBatches * kR << " coded checkouts of data-born packets hit the "
                        << "global allocator " << allocs << " times";
  EXPECT_EQ(pool.fresh(), fresh);
}

}  // namespace
}  // namespace jqos
