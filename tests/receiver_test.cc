// Tests for the J-QoS receiver: ordered delivery, gap detection and NACKs,
// duplicate suppression, cooperative responses, in-stream self-decode,
// tail-loss timers, and the give-up accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.h"
#include "endpoint/receiver.h"
#include "fec/coded_batch.h"
#include "netsim/network.h"
#include "coding_reference.h"

namespace jqos::endpoint {
namespace {

using jqos::testing::reference_encode;

// Captures everything the receiver sends toward DC2.
struct FakeDc final : netsim::Node {
  explicit FakeDc(netsim::Network& net) : id_(net.allocate_id()) { net.attach(*this); }
  NodeId id() const override { return id_; }
  void handle_packet(const PacketPtr& pkt) override { received.push_back(pkt); }

  std::vector<PacketPtr> of_type(PacketType t) const {
    std::vector<PacketPtr> out;
    for (const auto& p : received) {
      if (p->type == t) out.push_back(p);
    }
    return out;
  }

  NodeId id_;
  std::vector<PacketPtr> received;
};

struct Fixture {
  netsim::Simulator sim;
  netsim::Network net{sim};
  FakeDc dc{net};
  std::vector<DeliveryRecord> records;
  std::unique_ptr<Receiver> receiver;

  explicit Fixture(ReceiverConfig config = {}) {
    config.dc2 = dc.id();
    receiver = std::make_unique<Receiver>(
        net, config,
        [this](const DeliveryRecord& rec, const PacketPtr&) { records.push_back(rec); });
    net.add_link(receiver->id(), dc.id(), netsim::make_fixed_latency(msec(5)),
                 netsim::make_no_loss());
    net.add_link(dc.id(), receiver->id(), netsim::make_fixed_latency(msec(5)),
                 netsim::make_no_loss());
    receiver->expect_flow(1);
  }

  void arrive(SeqNo seq, PacketType type = PacketType::kData) {
    auto p = std::make_shared<Packet>();
    p->type = type;
    p->flow = 1;
    p->seq = seq;
    p->sent_at = sim.now();
    p->payload.assign(32, static_cast<std::uint8_t>(seq));
    receiver->handle_packet(p);
  }
};

TEST(Receiver, InOrderDelivery) {
  Fixture f;
  for (SeqNo s = 0; s < 5; ++s) f.arrive(s);
  ASSERT_EQ(f.records.size(), 5u);
  for (SeqNo s = 0; s < 5; ++s) {
    EXPECT_EQ(f.records[s].seq, s);
    EXPECT_FALSE(f.records[s].recovered);
  }
  EXPECT_EQ(f.receiver->stats().delivered_direct, 5u);
  EXPECT_EQ(f.receiver->stats().nacks_sent, 0u);
}

TEST(Receiver, GapTriggersImmediateNack) {
  Fixture f;
  f.arrive(0);
  f.arrive(3);  // Seqs 1, 2 missing.
  f.sim.run_until(msec(20));
  auto nacks = f.dc.of_type(PacketType::kNack);
  ASSERT_EQ(nacks.size(), 1u);
  NackInfo info;
  ASSERT_TRUE(NackInfo::parse_into(nacks[0]->payload, info));
  EXPECT_EQ(info.missing, (std::vector<SeqNo>{1, 2}));
  EXPECT_FALSE(info.tail);
  EXPECT_EQ(f.receiver->stats().losses_detected, 2u);

  // Hole 1 stays open while packets keep arriving past it; a second gap
  // then NACKs only the hole it opens. Stops before any re-NACK is due.
  f.arrive(2);
  f.arrive(4);
  f.arrive(5);
  f.arrive(7);  // Seq 6 missing.
  f.sim.run_until(msec(40));
  nacks = f.dc.of_type(PacketType::kNack);
  ASSERT_EQ(nacks.size(), 2u);
  ASSERT_TRUE(NackInfo::parse_into(nacks[1]->payload, info));
  EXPECT_EQ(info.missing, (std::vector<SeqNo>{6}));
  EXPECT_EQ(f.receiver->stats().losses_detected, 3u);
}

TEST(Receiver, RecoveredPacketFillsHole) {
  Fixture f;
  // Start past t=0 so detection timestamps are distinguishable from the
  // "never detected" sentinel.
  f.sim.run_until(msec(1));
  f.arrive(0);
  f.arrive(2);
  f.sim.run_until(msec(10));
  f.arrive(1, PacketType::kRecovered);
  ASSERT_EQ(f.records.size(), 3u);
  const auto& rec = f.records.back();
  EXPECT_EQ(rec.seq, 1u);
  EXPECT_TRUE(rec.recovered);
  EXPECT_GT(rec.detected_missing_at, 0);
  EXPECT_EQ(f.receiver->stats().delivered_recovered, 1u);
}

TEST(Receiver, LateDirectArrivalFillsHoleWithoutRecoveredFlag) {
  Fixture f;
  f.arrive(0);
  f.arrive(2);
  f.arrive(1, PacketType::kData);  // Straggler direct packet.
  EXPECT_EQ(f.receiver->stats().delivered_direct, 3u);
  EXPECT_EQ(f.receiver->stats().delivered_recovered, 0u);
}

TEST(Receiver, DuplicatesSuppressed) {
  Fixture f;
  f.arrive(0);
  f.arrive(0);
  f.arrive(1);
  f.arrive(2);
  f.arrive(1, PacketType::kRecovered);  // Recovery raced the direct copy.
  EXPECT_EQ(f.receiver->stats().duplicates, 2u);
  // Three real deliveries plus one late-direct notification for the
  // duplicate direct copy of seq 0.
  std::size_t real = 0, late = 0;
  for (const auto& r : f.records) (r.late_direct ? late : real) += 1;
  EXPECT_EQ(real, 3u);
  EXPECT_EQ(late, 1u);
}

TEST(Receiver, CoopRequestAnsweredFromBuffer) {
  Fixture f;
  f.arrive(0);
  f.arrive(1);
  auto req = std::make_shared<Packet>();
  req->type = PacketType::kCoopRequest;
  req->flow = 1;
  req->seq = 1;
  req->src = f.dc.id();
  CodedMeta m;
  m.batch_id = 77;
  req->meta = m;
  f.receiver->handle_packet(req);
  f.sim.run();
  auto resp = f.dc.of_type(PacketType::kCoopResponse);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0]->seq, 1u);
  ASSERT_TRUE(resp[0]->meta.has_value());
  EXPECT_EQ(resp[0]->meta->batch_id, 77u);
  EXPECT_EQ(resp[0]->payload.size(), 32u);
  EXPECT_EQ(f.receiver->stats().coop_responses_sent, 1u);
}

TEST(Receiver, HistoryKeepsTheLastArrivalsInArrivalOrder) {
  // The history answers from the last 1,024 DELIVERED packets, counted in
  // arrival order, not from the last 1,024 sequence numbers: a late
  // recovery of seq 5 is the newest entry and pushes out 6 and 7.
  Fixture f;
  for (SeqNo s = 0; s <= 1030; ++s) {
    if (s != 5) f.arrive(s);
  }
  f.arrive(5, PacketType::kRecovered);  // History: 5 and 8-1030.
  for (SeqNo s : {5u, 7u, 8u}) {
    auto req = std::make_shared<Packet>();
    req->type = PacketType::kCoopRequest;
    req->flow = 1;
    req->seq = s;
    req->src = f.dc.id();
    f.receiver->handle_packet(req);
  }
  f.sim.run_until(msec(20));
  auto resp = f.dc.of_type(PacketType::kCoopResponse);
  ASSERT_EQ(resp.size(), 2u);
  EXPECT_EQ(resp[0]->seq, 5u);
  EXPECT_EQ(resp[0]->payload, std::vector<std::uint8_t>(32, 5));
  EXPECT_EQ(resp[1]->seq, 8u);
  EXPECT_EQ(resp[1]->payload, std::vector<std::uint8_t>(32, 8));
  EXPECT_EQ(f.receiver->stats().coop_misses, 1u);
}

TEST(Receiver, CoopRequestForLostPacketIsMiss) {
  Fixture f;
  f.arrive(0);
  f.arrive(2);  // Seq 1 was lost on the direct path.
  auto req = std::make_shared<Packet>();
  req->type = PacketType::kCoopRequest;
  req->flow = 1;
  req->seq = 1;
  req->src = f.dc.id();
  f.receiver->handle_packet(req);
  f.sim.run_until(msec(10));
  EXPECT_TRUE(f.dc.of_type(PacketType::kCoopResponse).empty());
  EXPECT_EQ(f.receiver->stats().coop_misses, 1u);
}

TEST(Receiver, CoopRequestForFuturePacketDeferredUntilArrival) {
  // The requester's detection can race a slower direct path: a request for
  // a packet not seen yet is held and answered on arrival.
  Fixture f;
  f.arrive(0);
  auto req = std::make_shared<Packet>();
  req->type = PacketType::kCoopRequest;
  req->flow = 1;
  req->seq = 1;
  req->src = f.dc.id();
  f.receiver->handle_packet(req);
  f.sim.run_until(msec(10));
  EXPECT_TRUE(f.dc.of_type(PacketType::kCoopResponse).empty());
  EXPECT_EQ(f.receiver->stats().coop_misses, 0u);
  f.arrive(1);  // The packet lands: the deferred response goes out.
  f.sim.run_until(msec(30));
  ASSERT_EQ(f.dc.of_type(PacketType::kCoopResponse).size(), 1u);
  EXPECT_EQ(f.receiver->stats().coop_deferred, 1u);
}

TEST(Receiver, NackCheckConfirmedOnlyWhenMissing) {
  Fixture f;
  f.arrive(0);
  f.arrive(2);  // 1 missing.
  auto check = std::make_shared<Packet>();
  check->type = PacketType::kNackCheck;
  check->flow = 1;
  check->seq = 1;
  check->src = f.dc.id();
  f.receiver->handle_packet(check);
  f.sim.run();
  EXPECT_EQ(f.dc.of_type(PacketType::kNackConfirm).size(), 1u);

  // A check for a delivered seq stays silent.
  auto spurious = std::make_shared<Packet>(*check);
  spurious->seq = 0;
  f.receiver->handle_packet(spurious);
  f.sim.run();
  EXPECT_EQ(f.dc.of_type(PacketType::kNackConfirm).size(), 1u);
}

TEST(Receiver, SelfDecodesInStreamCodedPacket) {
  Fixture f;
  // Build the in-stream batch the encoder would have made for seqs 0-4.
  std::vector<PacketPtr> data;
  for (SeqNo s = 0; s < 5; ++s) {
    auto p = std::make_shared<Packet>();
    p->flow = 1;
    p->seq = s;
    p->payload.assign(32, static_cast<std::uint8_t>(s * 3));
    data.push_back(p);
  }
  auto coded = reference_encode(data, 1, PacketType::kInCoded, 900, 99, 0, 0);

  // Receiver got all but seq 2, then the coded packet from DC2.
  for (SeqNo s = 0; s < 5; ++s) {
    if (s == 2) continue;
    auto p = std::make_shared<Packet>(*data[s]);
    p->type = PacketType::kData;
    f.receiver->handle_packet(p);
  }
  f.receiver->handle_packet(coded[0]);
  f.sim.run_until(msec(50));

  EXPECT_EQ(f.receiver->stats().self_decoded, 1u);
  bool seq2_delivered = false;
  for (const auto& r : f.records) {
    if (r.seq == 2 && r.recovered) {
      seq2_delivered = true;
    }
  }
  EXPECT_TRUE(seq2_delivered);
}

TEST(Receiver, CodedShapeBeyondGf256IsRefused) {
  // An in-stream packet over flow 1's seqs 5 and 6, which decodes seq 5
  // while the receiver holds seq 6, then each shape the rule refuses,
  // k + r = 256 (no codec decodes it) among them: refused ones are counted
  // and decode nothing.
  struct Malformed {
    const char* what;
    void (*mutate)(Packet&);
  };
  const Malformed shapes[] = {
      {"well-formed", nullptr},
      {"no meta", [](Packet& p) { p.meta.reset(); }},
      {"k = 0",
       [](Packet& p) {
         p.meta->k = 0;
         p.meta->index = 0;
         p.meta->covered.clear();
       }},
      {"k + r = 256", [](Packet& p) { p.meta->r = 254; }},
      {"index < k", [](Packet& p) { p.meta->index = 1; }},
      {"index >= k + r", [](Packet& p) { p.meta->index = 3; }},
      {"covered.size() < k", [](Packet& p) { p.meta->covered.pop_back(); }},
      {"covered.size() > k", [](Packet& p) { p.meta->covered.push_back({1, 7}); }},
      {"in-stream batch spanning flows", [](Packet& p) { p.meta->covered[1].flow = 2; }},
  };
  for (const Malformed& shape : shapes) {
    Fixture f;
    for (SeqNo s = 0; s < 8; ++s) {
      if (s != 5) f.arrive(s);  // Seq 5 becomes a detected hole.
    }
    std::vector<PacketPtr> data;
    for (SeqNo s : {5u, 6u}) {
      auto p = std::make_shared<Packet>();
      p->flow = 1;
      p->seq = s;
      p->payload.assign(32, static_cast<std::uint8_t>(s));
      data.push_back(p);
    }
    Packet coded = *reference_encode(data, 1, PacketType::kInCoded, 1, 99, 0, 0)[0];
    const bool refused = shape.mutate != nullptr;
    if (refused) shape.mutate(coded);
    EXPECT_NO_THROW(f.receiver->handle_packet(std::make_shared<Packet>(coded))) << shape.what;
    f.sim.run_until(msec(50));
    EXPECT_EQ(f.receiver->stats().malformed_coded, refused ? 1u : 0u) << shape.what;
    EXPECT_EQ(f.receiver->stats().self_decoded, refused ? 0u : 1u) << shape.what;
    const bool seq5_delivered = std::any_of(f.records.begin(), f.records.end(),
                                            [](const DeliveryRecord& r) { return r.seq == 5; });
    EXPECT_EQ(seq5_delivered, !refused) << shape.what;
  }
}

TEST(Receiver, InCodedBatchSpanningFlowsIsRefused) {
  Fixture f;
  for (SeqNo s = 0; s < 8; ++s) {
    if (s != 6) f.arrive(s);  // Seq 6 of flow 1 becomes a detected hole.
  }
  // A decodable in-stream packet over flow 1's seq 5 and flow 2's seq 6:
  // decoding it would deliver flow 2's bytes as flow 1's seq 6.
  std::vector<PacketPtr> data;
  for (const PacketKey key : {PacketKey{1, 5}, PacketKey{2, 6}}) {
    auto p = std::make_shared<Packet>();
    p->flow = key.flow;
    p->seq = key.seq;
    p->payload.assign(32, key.flow == 1 ? std::uint8_t{5} : std::uint8_t{0xEE});
    data.push_back(p);
  }
  auto coded = reference_encode(data, 1, PacketType::kInCoded, 901, 99, 0, 0);
  f.receiver->handle_packet(coded[0]);
  f.sim.run_until(msec(50));
  EXPECT_EQ(f.receiver->stats().self_decoded, 0u);
  for (const auto& r : f.records) EXPECT_NE(r.seq, 6u);
}

TEST(Receiver, TailLossDetectedByShortTimer) {
  ReceiverConfig config;
  config.rtt_estimate = msec(100);
  config.markov.adaptive = false;
  Fixture f(config);
  // A burst, then silence: the short timer must fire a tail NACK.
  f.arrive(0);
  f.sim.run_until(msec(10));
  f.arrive(1);
  f.sim.run_until(msec(20));
  f.arrive(2);
  f.sim.run_until(msec(500));
  auto nacks = f.dc.of_type(PacketType::kNack);
  ASSERT_GE(nacks.size(), 1u);
  NackInfo info;
  ASSERT_TRUE(NackInfo::parse_into(nacks[0]->payload, info));
  EXPECT_TRUE(info.tail);
  EXPECT_EQ(info.expected, 3u);
  EXPECT_GE(f.receiver->stats().tail_nacks_sent, 1u);
}

TEST(Receiver, GiveUpDeclaresLossAfterWindow) {
  ReceiverConfig config;
  config.rtt_estimate = msec(100);
  config.recovery_give_up = msec(200);
  Fixture f(config);
  f.arrive(0);
  f.sim.run_until(msec(5));
  f.arrive(5);  // 1-4 missing; no recovery will come.
  f.sim.run_until(sec(3));
  EXPECT_EQ(f.receiver->stats().losses_given_up, 4u);
  int lost_records = 0;
  for (const auto& r : f.records) lost_records += r.lost ? 1 : 0;
  EXPECT_EQ(lost_records, 4);
}

TEST(Receiver, ReNacksWhileHolePersists) {
  ReceiverConfig config;
  config.rtt_estimate = msec(100);
  config.renack_interval = msec(50);
  config.recovery_give_up = msec(400);
  Fixture f(config);
  f.arrive(0);
  f.sim.run_until(msec(5));
  f.arrive(3);
  f.sim.run_until(msec(350));
  // Initial NACK plus at least one retry.
  EXPECT_GE(f.dc.of_type(PacketType::kNack).size(), 2u);
}

TEST(Receiver, SingleTimeoutModeSendsMoreNacks) {
  // Ablation D3: the fixed small timeout fires spurious tail NACKs at every
  // inter-burst gap, which the two-state model avoids (Section 6.4: 5x).
  auto count_nacks = [](bool use_markov) {
    ReceiverConfig config;
    config.use_markov = use_markov;
    config.rtt_estimate = msec(200);
    config.markov.adaptive = false;
    Fixture f(config);
    SeqNo seq = 0;
    // 20 bursts of 5 packets (5 ms spacing), 300 ms apart.
    SimTime t = 0;
    for (int burst = 0; burst < 20; ++burst) {
      for (int i = 0; i < 5; ++i) {
        f.sim.run_until(t);
        f.arrive(seq++);
        t += msec(5);
      }
      t += msec(300);
    }
    f.sim.run_until(t + sec(1));
    return f.dc.of_type(PacketType::kNack).size();
  };
  const std::size_t with_markov = count_nacks(true);
  const std::size_t without = count_nacks(false);
  // The bench (`bench_tcp_markov`) quantifies the paper's 5x claim; here we
  // assert the direction with margin.
  EXPECT_GT(without, with_markov + with_markov / 2);
}

TEST(Receiver, UnknownFlowIgnored) {
  Fixture f;
  auto p = std::make_shared<Packet>();
  p->type = PacketType::kData;
  p->flow = 99;
  p->seq = 0;
  f.receiver->handle_packet(p);
  EXPECT_TRUE(f.records.empty());
}

TEST(Receiver, FarAheadSeqIsDroppedAndCounted) {
  // One arrival kMaxSeqGap or more past the contiguity edge would open a
  // hole (and a NACK key) for every seq in between; it is dropped instead.
  Fixture f;
  f.arrive(0);
  f.arrive(kMaxSeqGap + 5);
  f.sim.run_until(msec(20));
  EXPECT_TRUE(f.dc.of_type(PacketType::kNack).empty());
  EXPECT_EQ(f.receiver->stats().losses_detected, 0u);
  EXPECT_EQ(f.receiver->stats().far_ahead_dropped, 1u);
  ASSERT_EQ(f.records.size(), 1u);

  // The flow carries on from its edge, and the bound moves with it.
  f.arrive(1);                   // Edge: 2.
  f.arrive(2 + kMaxSeqGap);      // At the bound: dropped.
  f.arrive(2 + kMaxSeqGap - 1);  // Just inside: kMaxSeqGap - 1 holes.
  EXPECT_EQ(f.receiver->stats().far_ahead_dropped, 2u);
  EXPECT_EQ(f.receiver->stats().losses_detected, kMaxSeqGap - 1);
  EXPECT_EQ(f.records.size(), 3u);
}

TEST(Receiver, RandomScheduleAccountsEverySeqOnce) {
  // Gap detection scans only the holes an arrival reveals, which relies on
  // every seq in [next_expected, evidence_horizon) staying tracked. Mixed
  // independent and burst losses, reordering, duplicates, late recoveries
  // and pauses (which fire tail timers and give-ups) must still leave one
  // delivery-or-loss record per seq, and every loss must have been NACKed.
  constexpr SeqNo kSeqs = 3000;
  struct Arrival {
    SimTime at;
    SeqNo seq;
    PacketType type;
  };
  ReceiverStats total;  // The paths the schedules must reach, summed over seeds.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<Arrival> schedule;
    SimTime sent = 0;
    int burst_left = 0;
    for (SeqNo s = 0; s < kSeqs; ++s) {
      sent += msec(10);
      if (rng.bernoulli(0.01)) sent += rng.uniform_int(msec(100), msec(600));
      if (burst_left == 0 && rng.bernoulli(0.005)) {
        burst_left = static_cast<int>(rng.uniform_int(2, 8));
      }
      const bool lost = burst_left > 0 || rng.bernoulli(0.03);
      if (burst_left > 0) --burst_left;
      if (lost) {
        if (rng.bernoulli(0.5)) {
          schedule.push_back({sent + rng.uniform_int(msec(20), msec(400)), s,
                              PacketType::kRecovered});
        }
        continue;
      }
      const SimTime at = sent + (rng.bernoulli(0.1) ? rng.uniform_int(0, msec(80)) : 0);
      schedule.push_back({at, s, PacketType::kData});
      if (rng.bernoulli(0.02)) {
        schedule.push_back({at + rng.uniform_int(0, msec(80)), s, PacketType::kData});
      }
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const Arrival& a, const Arrival& b) { return a.at < b.at; });

    Fixture f;
    std::vector<bool> arrived(kSeqs, false);
    SeqNo highest = 0;
    for (const Arrival& a : schedule) {
      f.sim.run_until(a.at);
      f.arrive(a.seq, a.type);
      arrived[a.seq] = true;
      highest = std::max(highest, a.seq);
    }
    f.sim.run();
    const ReceiverStats& st = f.receiver->stats();
    total.losses_given_up += st.losses_given_up;
    total.delivered_recovered += st.delivered_recovered;
    total.duplicates += st.duplicates;
    total.tail_nacks_sent += st.tail_nacks_sent;
    total.suspected_tail_dropped += st.suspected_tail_dropped;

    std::set<SeqNo> nacked;
    for (const auto& nack : f.dc.of_type(PacketType::kNack)) {
      NackInfo info;
      ASSERT_TRUE(NackInfo::parse_into(nack->payload, info));
      nacked.insert(info.missing.begin(), info.missing.end());
    }
    std::vector<int> records(kSeqs, 0);
    std::vector<bool> lost(kSeqs, false);
    for (const auto& r : f.records) {
      ASSERT_LT(r.seq, kSeqs);
      if (r.late_direct) continue;
      ++records[r.seq];
      if (r.lost) lost[r.seq] = true;
    }
    for (SeqNo s = 0; s <= highest; ++s) {
      ASSERT_EQ(records[s], 1) << "seq " << s;
      if (!arrived[s]) {
        EXPECT_TRUE(lost[s]) << "seq " << s << " never arrived";
      }
      if (lost[s]) {
        EXPECT_EQ(nacked.count(s), 1u) << "seq " << s << " lost, never NACKed";
      }
    }
  }
  EXPECT_GT(total.losses_given_up, 0u);
  EXPECT_GT(total.delivered_recovered, 0u);
  EXPECT_GT(total.duplicates, 0u);
  EXPECT_GT(total.tail_nacks_sent, 0u);
  EXPECT_GT(total.suspected_tail_dropped, 0u);
}

}  // namespace
}  // namespace jqos::endpoint
