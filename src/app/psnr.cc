#include "app/psnr.h"

#include <algorithm>

namespace jqos::app {
namespace {

constexpr double kGoodMeanDb = 42.0;
constexpr double kDamagedMeanDb = 30.0;  // Frame shown with concealment artifacts.
constexpr double kDamagedStddevDb = 2.5;
constexpr double kFreezeStartDb = 27.0;  // First frozen frame.
constexpr double kFreezeDecayDb = 1.0;   // Per additional consecutive frozen frame.
constexpr double kMinDb = 18.0;
constexpr double kMaxDb = 50.0;

}  // namespace

Samples score_video(const FrameLayout& layout, const VideoParams& video,
                    const std::unordered_map<SeqNo, PacketOutcome>& outcomes,
                    const PsnrParams& params, Rng& rng) {
  Samples psnr;
  std::size_t consecutive_frozen = 0;
  for (const auto& frame : layout.frames) {
    std::size_t lost = 0;
    for (std::size_t i = 0; i < frame.packets; ++i) {
      const SeqNo seq = frame.first_seq + static_cast<SeqNo>(i);
      auto it = outcomes.find(seq);
      const bool on_time = it != outcomes.end() && it->second.delivered &&
                           it->second.delivered_at - frame.sent_at <= params.playout_deadline;
      if (!on_time) ++lost;
    }

    double db;
    if (lost == 0) {
      db = rng.normal(kGoodMeanDb, params.good_stddev_db);
      consecutive_frozen = 0;
    } else if (lost <= video.app_fec_per_frame) {
      // Skype's own FEC conceals the loss almost perfectly.
      db = rng.normal(kGoodMeanDb - 2.0, params.good_stddev_db);
      consecutive_frozen = 0;
    } else if (lost < frame.packets) {
      db = rng.normal(kDamagedMeanDb, kDamagedStddevDb);
      consecutive_frozen = 0;
    } else {
      // Fully lost frame: the decoder repeats the previous frame; PSNR
      // degrades as the scene drifts away from the frozen image.
      ++consecutive_frozen;
      const double decayed =
          kFreezeStartDb - kFreezeDecayDb * static_cast<double>(consecutive_frozen - 1);
      db = std::max(kFreezeFloorDb, decayed) + rng.normal(0.0, 1.0);
    }
    psnr.add(std::clamp(db, kMinDb, kMaxDb));
  }
  return psnr;
}

}  // namespace jqos::app
