// Skype-like interactive video source (Section 6.3).
//
// Parameters follow the paper's characterization of interactive video:
// 10-15 fps average frame rate, frames of 2-5 packets, ~1.5 Mbps for HD
// (Section 5's coding-parameter discussion and the Skype bandwidth note in
// Section 6.5). The source runs over a jqos::endpoint::Sender; the
// application-level FEC knob models Skype's built-in redundancy, which can
// conceal a bounded number of lost packets per frame.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "endpoint/sender.h"
#include "netsim/simulator.h"

namespace jqos::app {

// Packets per frame, drawn uniformly from [min, max] for each frame.
inline constexpr std::size_t kMinPacketsPerFrame = 2;
inline constexpr std::size_t kMaxPacketsPerFrame = 5;

struct VideoParams {
  double fps = 12.0;
  double bitrate_bps = 1.5e6;
  // Lost packets per frame Skype's own FEC can conceal (0 disables).
  std::size_t app_fec_per_frame = 1;
};

// Which packets (by flow sequence number) belong to which frame; produced by
// the source, consumed by the QoE scorer after the run.
struct FrameLayout {
  struct Frame {
    SeqNo first_seq = 0;
    std::size_t packets = 0;
    SimTime sent_at = 0;
    bool key_frame = false;  // I-frame (selective-duplication candidates).
  };
  std::vector<Frame> frames;
};

class VideoSource {
 public:
  VideoSource(netsim::Simulator& sim, endpoint::Sender& sender, FlowId flow,
              const VideoParams& params, Rng rng);

  // Streams frames from now until `until`.
  void start(SimTime until);

  const FrameLayout& layout() const { return layout_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  const VideoParams& params() const { return params_; }

 private:
  void send_frame();

  netsim::Simulator& sim_;
  endpoint::Sender& sender_;
  FlowId flow_;
  VideoParams params_;
  Rng rng_;
  SimTime until_ = 0;
  std::size_t frame_index_ = 0;
  std::uint64_t packets_sent_ = 0;
  FrameLayout layout_;
};

}  // namespace jqos::app
