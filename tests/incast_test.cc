// Regression tests for the fan-in/incast scenario (exp/incast.h): results
// must be bit-identical under both event-queue backends (the determinism
// contract every scenario carries), and the queue disciplines must show
// their signature behavior at the bottleneck — tail-drop overflows, AQM
// with ECN marks instead of dropping.
#include <gtest/gtest.h>

#include "exp/incast.h"

namespace jqos::exp {
namespace {

void expect_identical(const IncastResult& a, const IncastResult& b) {
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.ce_marked, b.ce_marked);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.bottleneck.offered_packets, b.bottleneck.offered_packets);
  EXPECT_EQ(a.bottleneck.dropped_packets, b.bottleneck.dropped_packets);
  EXPECT_EQ(a.bottleneck.queue_drops, b.bottleneck.queue_drops);
  EXPECT_EQ(a.bottleneck.ecn_marked, b.bottleneck.ecn_marked);
  EXPECT_EQ(a.bottleneck.delivered_packets, b.bottleneck.delivered_packets);
  EXPECT_EQ(a.bottleneck.max_queue_bytes, b.bottleneck.max_queue_bytes);
  EXPECT_EQ(a.bottleneck.max_queue_packets, b.bottleneck.max_queue_packets);
  ASSERT_EQ(a.epoch_drain_ms.size(), b.epoch_drain_ms.size());
  for (std::size_t i = 0; i < a.epoch_drain_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.epoch_drain_ms[i], b.epoch_drain_ms[i]) << "epoch " << i;
  }
}

IncastResult run_with(const IncastParams& p, netsim::EvqBackend backend) {
  IncastScenario scenario(p, backend);
  return scenario.run();
}

TEST(Incast, BitIdenticalAcrossEvqBackendsTailDrop) {
  IncastParams p;
  p.qdisc.kind = netsim::QdiscKind::kTailDrop;
  p.qdisc.limit_bytes = 256 * 1024;
  const IncastResult heap = run_with(p, netsim::EvqBackend::kHeap);
  const IncastResult ladder = run_with(p, netsim::EvqBackend::kLadder);
  expect_identical(heap, ladder);
  EXPECT_EQ(heap.sent, 16u * 64u * 4u);
}

TEST(Incast, BitIdenticalAcrossEvqBackendsCoDel) {
  IncastParams p;
  p.qdisc.kind = netsim::QdiscKind::kCoDel;
  p.qdisc.limit_bytes = 8 << 20;
  const IncastResult heap = run_with(p, netsim::EvqBackend::kHeap);
  const IncastResult ladder = run_with(p, netsim::EvqBackend::kLadder);
  expect_identical(heap, ladder);
}

TEST(Incast, BitIdenticalAcrossEvqBackendsRed) {
  IncastParams p;
  p.qdisc.kind = netsim::QdiscKind::kRed;
  p.qdisc.limit_bytes = 8 << 20;
  p.qdisc.red_min_bytes = 32 * 1024;
  p.qdisc.red_max_bytes = 128 * 1024;
  p.qdisc.red_wq = 0.01;
  const IncastResult heap = run_with(p, netsim::EvqBackend::kHeap);
  const IncastResult ladder = run_with(p, netsim::EvqBackend::kLadder);
  expect_identical(heap, ladder);
}

TEST(Incast, TailDropOverflowsUnderFanIn) {
  IncastParams p;
  p.qdisc.kind = netsim::QdiscKind::kTailDrop;
  p.qdisc.limit_bytes = 128 * 1024;  // Far below one epoch's aggregate burst.
  const IncastResult r = run_with(p, netsim::evq_default_backend());
  EXPECT_GT(r.bottleneck.queue_drops, 0u);
  EXPECT_EQ(r.bottleneck.ecn_marked, 0u);   // Tail drop never marks...
  EXPECT_EQ(r.ce_marked, 0u);               // ...even though senders set ECT.
  EXPECT_EQ(r.bottleneck.dropped_packets, 0u);  // Lossless wire.
  EXPECT_EQ(r.delivered + r.bottleneck.queue_drops, r.sent);
}

TEST(Incast, CoDelMarksEctInsteadOfDropping) {
  IncastParams p;
  p.qdisc.kind = netsim::QdiscKind::kCoDel;
  p.qdisc.limit_bytes = 8 << 20;  // Cap out of the way: isolate the AQM.
  const IncastResult r = run_with(p, netsim::evq_default_backend());
  EXPECT_GT(r.ce_marked, 0u);
  EXPECT_EQ(r.ce_marked, r.bottleneck.ecn_marked);
  EXPECT_EQ(r.bottleneck.queue_drops, 0u);
  EXPECT_EQ(r.delivered, r.sent);  // Marking keeps the goodput intact.
}

TEST(Incast, CoDelDropsWhenSendersAreNotEct) {
  IncastParams p;
  p.ecn = false;  // No ECT: the same control law must drop instead.
  p.qdisc.kind = netsim::QdiscKind::kCoDel;
  p.qdisc.limit_bytes = 8 << 20;
  const IncastResult r = run_with(p, netsim::evq_default_backend());
  EXPECT_GT(r.bottleneck.queue_drops, 0u);
  EXPECT_EQ(r.bottleneck.ecn_marked, 0u);
  EXPECT_EQ(r.ce_marked, 0u);
}

TEST(Incast, RedMarksEarlyUnderSustainedBacklog) {
  IncastParams p;
  p.qdisc.kind = netsim::QdiscKind::kRed;
  p.qdisc.limit_bytes = 8 << 20;
  p.qdisc.red_min_bytes = 32 * 1024;
  p.qdisc.red_max_bytes = 128 * 1024;
  p.qdisc.red_wq = 0.01;
  const IncastResult r = run_with(p, netsim::evq_default_backend());
  EXPECT_GT(r.ce_marked, 0u);
  EXPECT_EQ(r.ce_marked, r.bottleneck.ecn_marked);
  EXPECT_EQ(r.delivered, r.sent);  // Early action is all marks here.
}

TEST(Incast, EpochDrainTimesRecorded) {
  IncastParams p;
  p.qdisc.kind = netsim::QdiscKind::kTailDrop;
  const IncastResult r = run_with(p, netsim::evq_default_backend());
  ASSERT_EQ(r.epoch_drain_ms.size(), p.epochs);
  for (double drain : r.epoch_drain_ms) EXPECT_GT(drain, 0.0);
  EXPECT_GT(r.events_processed, 0u);
}

}  // namespace
}  // namespace jqos::exp
