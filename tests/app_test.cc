// Tests for the application models: video source layout, the PSNR/QoE
// scorer, and the mobile feasibility model.
#include <gtest/gtest.h>

#include "app/mobile.h"
#include "app/psnr.h"
#include "app/video.h"
#include "endpoint/sender.h"
#include "netsim/network.h"

namespace jqos::app {
namespace {

struct Sink final : netsim::Node {
  explicit Sink(netsim::Network& net) : id_(net.allocate_id()) { net.attach(*this); }
  NodeId id() const override { return id_; }
  void handle_packet(const PacketPtr& pkt) override { received.push_back(pkt); }
  NodeId id_;
  std::vector<PacketPtr> received;
};

TEST(VideoSource, LayoutMatchesEmission) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  Sink receiver(net);
  endpoint::Sender sender(net);
  net.add_link(sender.id(), receiver.id(), netsim::make_fixed_latency(msec(10)),
               netsim::make_no_loss());
  endpoint::SenderPolicy policy;
  policy.service = ServiceType::kNone;
  policy.duplicate_to_cloud = false;
  policy.receiver = receiver.id();
  sender.register_flow(1, policy);

  VideoParams params;
  params.fps = 10.0;
  VideoSource source(sim, sender, 1, params, Rng(1));
  source.start(sec(5));
  sim.run_until(sec(6));

  const FrameLayout& layout = source.layout();
  // ~50 frames in 5 s at 10 fps.
  EXPECT_NEAR(static_cast<double>(layout.frames.size()), 50.0, 2.0);
  // Layout must tile the sequence space exactly.
  SeqNo expect_seq = 0;
  std::size_t total_pkts = 0;
  for (const auto& frame : layout.frames) {
    EXPECT_EQ(frame.first_seq, expect_seq);
    EXPECT_GE(frame.packets, kMinPacketsPerFrame);
    EXPECT_LE(frame.packets, kMaxPacketsPerFrame);
    expect_seq += static_cast<SeqNo>(frame.packets);
    total_pkts += frame.packets;
  }
  EXPECT_EQ(total_pkts, source.packets_sent());
  EXPECT_EQ(receiver.received.size(), total_pkts);
}

TEST(VideoSource, BitrateApproximatesTarget) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  Sink receiver(net);
  endpoint::Sender sender(net);
  net.add_link(sender.id(), receiver.id(), netsim::make_fixed_latency(0),
               netsim::make_no_loss());
  endpoint::SenderPolicy policy;
  policy.duplicate_to_cloud = false;
  policy.receiver = receiver.id();
  sender.register_flow(1, policy);

  VideoParams params;  // 1.5 Mbps.
  VideoSource source(sim, sender, 1, params, Rng(2));
  source.start(sec(10));
  sim.run_until(sec(11));
  std::uint64_t payload_bytes = 0;
  for (const auto& p : receiver.received) payload_bytes += p->payload.size();
  const double bps = static_cast<double>(payload_bytes) * 8.0 / 10.0;
  EXPECT_NEAR(bps, 1.5e6, 0.25e6);
}

// Helper: outcomes where every packet is delivered instantly.
std::unordered_map<SeqNo, PacketOutcome> all_delivered(const FrameLayout& layout) {
  std::unordered_map<SeqNo, PacketOutcome> out;
  for (const auto& f : layout.frames) {
    for (std::size_t i = 0; i < f.packets; ++i) {
      out[f.first_seq + static_cast<SeqNo>(i)] = PacketOutcome{true, f.sent_at + msec(50)};
    }
  }
  return out;
}

FrameLayout tiny_layout(std::size_t frames, std::size_t packets_per_frame) {
  FrameLayout layout;
  SeqNo seq = 0;
  for (std::size_t i = 0; i < frames; ++i) {
    FrameLayout::Frame f;
    f.first_seq = seq;
    f.packets = packets_per_frame;
    f.sent_at = static_cast<SimTime>(i) * msec(100);
    layout.frames.push_back(f);
    seq += static_cast<SeqNo>(packets_per_frame);
  }
  return layout;
}

TEST(Psnr, PerfectDeliveryScoresHigh) {
  auto layout = tiny_layout(100, 3);
  VideoParams video;
  Rng rng(3);
  auto psnr = score_video(layout, video, all_delivered(layout), PsnrParams{}, rng);
  ASSERT_EQ(psnr.count(), 100u);
  EXPECT_GT(psnr.percentile(10), 35.0);
}

TEST(Psnr, OutageCreatesLowScoreMass) {
  auto layout = tiny_layout(100, 3);
  VideoParams video;
  auto outcomes = all_delivered(layout);
  // Frames 40-70 fully lost (a 3-second outage at 10 fps).
  for (std::size_t fi = 40; fi < 70; ++fi) {
    const auto& f = layout.frames[fi];
    for (std::size_t i = 0; i < f.packets; ++i) {
      outcomes[f.first_seq + static_cast<SeqNo>(i)].delivered = false;
    }
  }
  Rng rng(4);
  auto psnr = score_video(layout, video, outcomes, PsnrParams{}, rng);
  // ~30% of frames score at freeze levels.
  EXPECT_LT(psnr.percentile(25), 30.0);
  EXPECT_GT(psnr.percentile(75), 35.0);
}

TEST(Psnr, AppFecConcealsSingleLossPerFrame) {
  auto layout = tiny_layout(50, 4);
  VideoParams video;
  video.app_fec_per_frame = 1;
  auto outcomes = all_delivered(layout);
  // One packet lost in every frame: Skype's FEC conceals them all.
  for (const auto& f : layout.frames) {
    outcomes[f.first_seq].delivered = false;
  }
  Rng rng(5);
  auto psnr = score_video(layout, video, outcomes, PsnrParams{}, rng);
  EXPECT_GT(psnr.percentile(10), 33.0);

  // Without app FEC the same pattern damages every frame.
  video.app_fec_per_frame = 0;
  Rng rng2(5);
  auto psnr2 = score_video(layout, video, outcomes, PsnrParams{}, rng2);
  EXPECT_LT(psnr2.percentile(50), psnr.percentile(50));
}

TEST(Psnr, LateDeliveryMissesPlayoutDeadline) {
  auto layout = tiny_layout(20, 2);
  VideoParams video;
  video.app_fec_per_frame = 0;
  auto outcomes = all_delivered(layout);
  PsnrParams params;
  // Frame 5's packets arrive a full second late: useless for playout.
  const auto& f5 = layout.frames[5];
  for (std::size_t i = 0; i < f5.packets; ++i) {
    outcomes[f5.first_seq + static_cast<SeqNo>(i)].delivered_at = f5.sent_at + sec(1);
  }
  Rng rng(6);
  auto psnr = score_video(layout, video, outcomes, params, rng);
  EXPECT_LT(psnr.min(), 30.0);
}

TEST(Psnr, FreezeDecaysOverConsecutiveLostFrames) {
  auto layout = tiny_layout(30, 2);
  VideoParams video;
  auto outcomes = all_delivered(layout);
  for (std::size_t fi = 10; fi < 25; ++fi) {
    const auto& f = layout.frames[fi];
    for (std::size_t i = 0; i < f.packets; ++i) {
      outcomes[f.first_seq + static_cast<SeqNo>(i)].delivered = false;
    }
  }
  PsnrParams params;
  params.good_stddev_db = 0.0;
  Rng rng(7);
  auto psnr = score_video(layout, video, outcomes, params, rng);
  const auto& vals = psnr.values();
  // Scores inside the freeze trend downward toward the floor.
  EXPECT_GT(vals[10], vals[20]);
  EXPECT_GE(vals[24], kFreezeFloorDb - 3.5);
}

// ------------------------------- mobile ------------------------------------

TEST(Mobile, Section65Findings) {
  Rng rng(8);
  const MobileFeasibility f = evaluate_mobile(rng);
  // Duplicated Skype = 3.0 Mbps: above the 2 Mbps floor, below the 5 Mbps
  // good-uplink case -- exactly the paper's "could reach capacity in some
  // networks" finding.
  EXPECT_NEAR(f.dup_bitrate_mbps, 3.0, 1e-9);
  EXPECT_FALSE(f.dup_fits_typical_uplink);
  EXPECT_TRUE(f.dup_fits_good_uplink);
  // Battery overhead within measurement noise (~3%).
  EXPECT_LT(f.battery_overhead_percent, 5.0);
  // RTTs: median 50-60 ms, p90 under ~110 ms.
  EXPECT_GT(f.rtt_p50_ms, 45.0);
  EXPECT_LT(f.rtt_p50_ms, 65.0);
  EXPECT_LT(f.rtt_p90_ms, 120.0);
  EXPECT_TRUE(f.recovery_feasible_interactive);
}

TEST(Mobile, RttSamplesSpreadMatchesBand) {
  Rng rng(9);
  auto rtts = mobile_rtt_samples(rng, 5000);
  EXPECT_GT(rtts.percentile(90), rtts.percentile(50));
  EXPECT_GT(rtts.percentile(50), 40.0);
  EXPECT_LT(rtts.percentile(90), 130.0);
}

}  // namespace
}  // namespace jqos::app
