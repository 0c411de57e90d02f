// Unit tests for the link-layer queue disciplines (netsim/queue_disc.h):
// the RED probability curve and EWMA pinned against hand-computed values,
// the CoDel interval control law traced step by step through hand-built
// queue snapshots, the tail-drop byte cap, and the Link-level integration
// (queue drops counted separately from loss-model drops, CE marks applied
// copy-on-write, ECN bits surviving the wire format).
#include <gtest/gtest.h>

#include "common/packet.h"
#include "netsim/link.h"
#include "netsim/queue_disc.h"

namespace jqos::netsim {
namespace {

QueueSnapshot snap(SimTime now, SimDuration sojourn, std::size_t backlog_bytes,
                   std::size_t packet_bytes, bool ect) {
  QueueSnapshot q;
  q.now = now;
  q.dequeue_at = now + sojourn;
  q.backlog_bytes = backlog_bytes;
  q.backlog_packets = packet_bytes == 0 ? 0 : backlog_bytes / packet_bytes;
  q.packet_bytes = packet_bytes;
  q.ecn_capable = ect;
  return q;
}

// ---- RED -----------------------------------------------------------------

TEST(RedQueue, ProbabilityCurveMatchesHandComputedValues) {
  // pb = max_p * (avg - min) / (max - min), clamped to [0, 1] outside the
  // thresholds. min = 1000, max = 3000, max_p = 0.1.
  EXPECT_DOUBLE_EQ(red_mark_probability(0, 1000, 3000, 0.1), 0.0);
  EXPECT_DOUBLE_EQ(red_mark_probability(999.9, 1000, 3000, 0.1), 0.0);
  EXPECT_DOUBLE_EQ(red_mark_probability(1000, 1000, 3000, 0.1), 0.0);
  EXPECT_DOUBLE_EQ(red_mark_probability(1500, 1000, 3000, 0.1), 0.025);
  EXPECT_DOUBLE_EQ(red_mark_probability(2000, 1000, 3000, 0.1), 0.05);
  EXPECT_DOUBLE_EQ(red_mark_probability(2500, 1000, 3000, 0.1), 0.075);
  EXPECT_DOUBLE_EQ(red_mark_probability(3000, 1000, 3000, 0.1), 1.0);
  EXPECT_DOUBLE_EQ(red_mark_probability(9999, 1000, 3000, 0.1), 1.0);
}

TEST(RedQueue, EwmaTracksBacklogGeometrically) {
  QdiscConfig cfg;
  cfg.kind = QdiscKind::kRed;
  cfg.red_wq = 0.5;           // Big weight => short hand trace.
  cfg.red_min_bytes = 100000;  // Far above the feed: no marking, pure EWMA.
  cfg.red_max_bytes = 200000;
  RedQueue red(cfg, Rng(1));

  // avg' = (1 - wq) * avg + wq * backlog, backlog held at 1000:
  // 500, 750, 875, ... -> 1000 - 1000 / 2^n.
  const auto q = snap(0, 0, 1000, 100, false);
  EXPECT_EQ(red.admit(q), QdiscVerdict::kEnqueue);
  EXPECT_DOUBLE_EQ(red.avg_bytes(), 500.0);
  EXPECT_EQ(red.admit(q), QdiscVerdict::kEnqueue);
  EXPECT_DOUBLE_EQ(red.avg_bytes(), 750.0);
  EXPECT_EQ(red.admit(q), QdiscVerdict::kEnqueue);
  EXPECT_DOUBLE_EQ(red.avg_bytes(), 875.0);
}

TEST(RedQueue, AboveMaxThresholdMarksEctDropsNonEct) {
  QdiscConfig cfg;
  cfg.kind = QdiscKind::kRed;
  cfg.red_wq = 1.0;  // avg == instantaneous backlog.
  cfg.red_min_bytes = 1;
  cfg.red_max_bytes = 2;  // Any real backlog sits above max => pb = 1.
  RedQueue red_ect(cfg, Rng(1));
  EXPECT_EQ(red_ect.admit(snap(0, 0, 5000, 100, true)), QdiscVerdict::kMark);

  RedQueue red_plain(cfg, Rng(1));
  EXPECT_EQ(red_plain.admit(snap(0, 0, 5000, 100, false)), QdiscVerdict::kDrop);

  cfg.ecn = false;  // ECN disabled on the queue: even ECT traffic drops.
  RedQueue red_noecn(cfg, Rng(1));
  EXPECT_EQ(red_noecn.admit(snap(0, 0, 5000, 100, true)), QdiscVerdict::kDrop);
}

TEST(RedQueue, HardByteCapStillDrops) {
  QdiscConfig cfg;
  cfg.kind = QdiscKind::kRed;
  cfg.limit_bytes = 5000;
  RedQueue red(cfg, Rng(1));
  // The overflow drop fires before the EWMA/marking logic and never marks.
  EXPECT_EQ(red.admit(snap(0, 0, 4500, 1000, true)), QdiscVerdict::kDrop);
}

// ---- CoDel ---------------------------------------------------------------

TEST(CoDelQueue, FirstDropAfterOneSustainedInterval) {
  QdiscConfig cfg;
  cfg.kind = QdiscKind::kCoDel;  // Target 5 ms, interval 100 ms (RFC 8289).
  CoDelQueue codel(cfg);

  // Sojourn persistently above target. CoDel's clock is the virtual dequeue
  // time (arrival + sojourn), so the 100 ms grace interval started by the
  // first above-target packet (clock 10 ms) expires at clock 110 ms.
  EXPECT_EQ(codel.admit(snap(msec(0), msec(10), 5000, 1000, false)),
            QdiscVerdict::kEnqueue);
  EXPECT_FALSE(codel.dropping());
  EXPECT_EQ(codel.admit(snap(msec(50), msec(10), 5000, 1000, false)),
            QdiscVerdict::kEnqueue);
  // Clock 115 ms >= 110 ms: enter dropping, first drop immediately.
  EXPECT_EQ(codel.admit(snap(msec(105), msec(10), 5000, 1000, false)),
            QdiscVerdict::kDrop);
  EXPECT_TRUE(codel.dropping());
  EXPECT_EQ(codel.drop_count(), 1u);

  // Next drop is scheduled interval / sqrt(1) later (clock 215 ms):
  // clock 160 ms is too early, clock 220 ms is due.
  EXPECT_EQ(codel.admit(snap(msec(150), msec(10), 5000, 1000, false)),
            QdiscVerdict::kEnqueue);
  EXPECT_EQ(codel.admit(snap(msec(210), msec(10), 5000, 1000, false)),
            QdiscVerdict::kDrop);
  EXPECT_EQ(codel.drop_count(), 2u);

  // Sojourn back below target: leave the dropping state, no more drops.
  EXPECT_EQ(codel.admit(snap(msec(300), msec(1), 5000, 1000, false)),
            QdiscVerdict::kEnqueue);
  EXPECT_FALSE(codel.dropping());
}

TEST(CoDelQueue, MarksInsteadOfDroppingForEctTraffic) {
  QdiscConfig cfg;
  cfg.kind = QdiscKind::kCoDel;
  CoDelQueue codel(cfg);
  EXPECT_EQ(codel.admit(snap(msec(0), msec(10), 5000, 1000, true)),
            QdiscVerdict::kEnqueue);
  EXPECT_EQ(codel.admit(snap(msec(105), msec(10), 5000, 1000, true)),
            QdiscVerdict::kMark);
  EXPECT_EQ(codel.drop_count(), 1u);  // A mark spends the drop-count slot.
}

TEST(CoDelQueue, NearEmptyQueueNeverDrops) {
  QdiscConfig cfg;
  cfg.kind = QdiscKind::kCoDel;
  CoDelQueue codel(cfg);
  // backlog < one packet: CoDel refuses to drop the only packet in flight
  // however long its sojourn.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(codel.admit(snap(msec(100 * i), msec(50), 500, 1000, false)),
              QdiscVerdict::kEnqueue);
  }
  EXPECT_FALSE(codel.dropping());
}

// ---- tail drop -----------------------------------------------------------

TEST(TailDropFifo, EnforcesByteCapExactly) {
  QdiscConfig cfg;
  cfg.limit_bytes = 5000;
  TailDropFifo fifo(cfg);
  EXPECT_EQ(fifo.admit(snap(0, 0, 4000, 1000, false)), QdiscVerdict::kEnqueue);
  EXPECT_EQ(fifo.admit(snap(0, 0, 4000, 1001, false)), QdiscVerdict::kDrop);
  EXPECT_EQ(fifo.admit(snap(0, 0, 5000, 1, false)), QdiscVerdict::kDrop);
  // Oversized packets still pass through an empty queue's worth of space?
  // No: the cap is absolute.
  EXPECT_EQ(fifo.admit(snap(0, 0, 0, 6000, false)), QdiscVerdict::kDrop);
}

TEST(QdiscConfig, KindNamesRoundTripAndResolve) {
  for (const QdiscKind k : {QdiscKind::kTailDrop, QdiscKind::kRed, QdiscKind::kCoDel}) {
    QdiscConfig cfg;
    cfg.kind = k;
    EXPECT_STREQ(make_queue_disc(cfg, Rng(1))->name(), qdisc_kind_name(k));
  }
}

// ---- Link integration ----------------------------------------------------

PacketPtr make_test_packet(std::size_t payload_bytes, bool ect) {
  auto pkt = std::make_shared<Packet>();
  pkt->type = PacketType::kData;
  pkt->flow = 1;
  pkt->ecn_capable = ect;
  pkt->payload.assign(payload_bytes, 0);
  return pkt;
}

TEST(LinkQueueDisc, QueueDropsCountedSeparatelyFromLossModel) {
  for (const QdiscKind kind : {QdiscKind::kTailDrop, QdiscKind::kRed, QdiscKind::kCoDel}) {
    SCOPED_TRACE(qdisc_kind_name(kind));
    Simulator sim;
    QdiscConfig cfg;
    cfg.kind = kind;
    cfg.limit_bytes = 4000;  // Roughly 3 packets of headroom.
    // 1 Mbps bottleneck, lossless wire: every missing packet is a queue drop.
    Link link(sim, 1, 2, make_fixed_latency(msec(1)), make_no_loss(), 1e6,
              make_queue_disc(cfg, Rng(7)));

    std::uint64_t delivered = 0;
    link.set_deliver([&](const PacketPtr&) { ++delivered; });
    for (int i = 0; i < 32; ++i) link.send(make_test_packet(1000, false));
    sim.run();

    const LinkStats& s = link.stats();
    EXPECT_EQ(s.offered_packets, 32u);
    EXPECT_EQ(s.dropped_packets, 0u);  // The loss model never fired.
    EXPECT_GT(s.queue_drops, 0u);      // The discipline did.
    EXPECT_EQ(s.delivered_packets, delivered);
    EXPECT_EQ(s.delivered_packets + s.queue_drops, 32u);
    EXPECT_DOUBLE_EQ(s.loss_rate(), 0.0);  // Loss-model rate only...
    EXPECT_GT(s.drop_rate(), 0.0);         // ...combined rate sees the queue.
    EXPECT_GT(s.max_queue_bytes, 0u);
    EXPECT_LE(s.max_queue_bytes, cfg.limit_bytes);
  }
}

TEST(LinkQueueDisc, CoDelMarksEctBurstCopyOnWrite) {
  Simulator sim;
  QdiscConfig cfg;
  cfg.kind = QdiscKind::kCoDel;
  // 1 Mbps: a 40-packet burst of 1000 B builds ~320 ms of sojourn, far past
  // CoDel's 5 ms target, so marks must appear within the burst.
  Link link(sim, 1, 2, make_fixed_latency(msec(1)), make_no_loss(), 1e6,
            make_queue_disc(cfg, Rng(7)));

  std::vector<PacketPtr> sent;
  std::uint64_t delivered_ce = 0;
  link.set_deliver([&](const PacketPtr& got) {
    if (got->ecn_ce) ++delivered_ce;
  });
  for (int i = 0; i < 40; ++i) {
    auto pkt = make_test_packet(1000, true);
    sent.push_back(pkt);
    link.send(pkt);
  }
  sim.run();

  const LinkStats& s = link.stats();
  EXPECT_GT(s.ecn_marked, 0u);
  EXPECT_EQ(s.queue_drops, 0u);  // ECT traffic is marked, not dropped.
  EXPECT_EQ(s.delivered_packets, 40u);
  EXPECT_EQ(delivered_ce, s.ecn_marked);
  // Marking is copy-on-write: the sender's packet objects stay clean.
  for (const PacketPtr& pkt : sent) EXPECT_FALSE(pkt->ecn_ce);
}

TEST(LinkQueueDisc, ZeroBandwidthLinkNeverConsultsDiscipline) {
  Simulator sim;
  QdiscConfig cfg;
  cfg.limit_bytes = 1;  // Would drop everything if consulted.
  Link link(sim, 1, 2, make_fixed_latency(msec(1)), make_no_loss(), 0.0,
            make_queue_disc(cfg, Rng(7)));
  std::uint64_t delivered = 0;
  link.set_deliver([&](const PacketPtr&) { ++delivered; });
  for (int i = 0; i < 8; ++i) link.send(make_test_packet(1000, false));
  sim.run();
  EXPECT_EQ(delivered, 8u);
  EXPECT_EQ(link.stats().queue_drops, 0u);
}

TEST(PacketEcn, BitsSurviveSerializationWithoutGrowingTheWire) {
  Packet plain;
  plain.type = PacketType::kData;
  plain.flow = 3;
  plain.seq = 9;
  plain.payload = {1, 2, 3};

  Packet ecn = plain;
  ecn.ecn_capable = true;
  ecn.ecn_ce = true;

  EXPECT_EQ(plain.wire_size(), ecn.wire_size());
  EXPECT_EQ(plain.serialize().size(), ecn.serialize().size());

  const auto parsed = Packet::parse(ecn.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->ecn_capable);
  EXPECT_TRUE(parsed->ecn_ce);
  EXPECT_EQ(parsed->payload, ecn.payload);

  const auto parsed_plain = Packet::parse(plain.serialize());
  ASSERT_TRUE(parsed_plain.has_value());
  EXPECT_FALSE(parsed_plain->ecn_capable);
  EXPECT_FALSE(parsed_plain->ecn_ce);
}

}  // namespace
}  // namespace jqos::netsim
