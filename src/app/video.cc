#include "app/video.h"

namespace jqos::app {

VideoSource::VideoSource(netsim::Simulator& sim, endpoint::Sender& sender, FlowId flow,
                         const VideoParams& params, Rng rng)
    : sim_(sim), sender_(sender), flow_(flow), params_(params), rng_(rng) {}

void VideoSource::start(SimTime until) {
  until_ = until;
  send_frame();
}

void VideoSource::send_frame() {
  if (sim_.now() >= until_) return;
  const std::size_t pkts = static_cast<std::size_t>(
      rng_.uniform_int(static_cast<std::int64_t>(kMinPacketsPerFrame),
                       static_cast<std::int64_t>(kMaxPacketsPerFrame)));
  // Packet size follows from bitrate / fps / packets-per-frame (mean).
  const double mean_ppf = static_cast<double>(kMinPacketsPerFrame + kMaxPacketsPerFrame) / 2.0;
  const std::size_t bytes_per_packet = static_cast<std::size_t>(
      params_.bitrate_bps / params_.fps / mean_ppf / 8.0);

  FrameLayout::Frame frame;
  frame.first_seq = sender_.next_seq(flow_);
  frame.packets = pkts;
  frame.sent_at = sim_.now();
  frame.key_frame = frame_index_ % 30 == 0;  // Periodic I-frames.
  layout_.frames.push_back(frame);
  ++frame_index_;

  for (std::size_t i = 0; i < pkts; ++i) {
    sender_.send(flow_, bytes_per_packet);
    ++packets_sent_;
  }

  const auto gap = static_cast<SimDuration>(1e6 / params_.fps);
  sim_.after(gap, [this] { send_frame(); });
}

}  // namespace jqos::app
