// Frame-level PSNR / QoE model for the Skype case study (Figure 9(a)).
//
// The paper scores received video against the reference with VQMT on a
// frame-by-frame basis and plots the CDF of PSNR scores. We model the same
// pipeline: each frame's delivery outcome (all packets on time / concealed
// by app FEC / damaged / frozen) maps to a PSNR sample, with freezes
// decaying over consecutive lost frames the way a frozen-then-pixelated
// call looks to VQMT.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "app/video.h"
#include "common/rng.h"
#include "common/stats.h"

namespace jqos::app {

// Long freezes bottom out here (the other score levels are in psnr.cc).
inline constexpr double kFreezeFloorDb = 20.0;

struct PsnrParams {
  double good_stddev_db = 2.0;
  // A packet only helps its frame if delivered within the playout deadline.
  SimDuration playout_deadline = msec(400);
};

// Delivery outcome for one packet, fed from receiver DeliveryRecords.
struct PacketOutcome {
  bool delivered = false;
  SimTime delivered_at = 0;
};

// Scores a streamed video: `outcomes` maps sequence number -> outcome.
// Returns one PSNR sample per frame in layout order.
Samples score_video(const FrameLayout& layout, const VideoParams& video,
                    const std::unordered_map<SeqNo, PacketOutcome>& outcomes,
                    const PsnrParams& params, Rng& rng);

}  // namespace jqos::app
