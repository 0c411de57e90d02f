// User-space link impairment for the live loopback runtime: probabilistic
// drops and added delay applied on the send side, standing in for the WAN
// emulation (netem/Emulab) the paper's testbed used. Loopback itself is
// lossless and instant, so all "Internet path" behaviour is injected here.
#pragma once

#include <chrono>
#include <cstdint>

#include "common/rng.h"
#include "net/event_loop.h"
#include "net/udp_socket.h"

namespace jqos::net {

struct ImpairmentParams {
  double drop_probability = 0.0;
  std::chrono::milliseconds delay{0};
  std::chrono::milliseconds jitter{0};  // Uniform extra in [0, jitter].
};

struct ImpairmentStats {
  std::uint64_t offered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t sent = 0;
};

// Sends datagrams through `socket` with the configured impairment; delayed
// sends are scheduled on the event loop.
class ImpairedLink {
 public:
  ImpairedLink(EventLoop& loop, UdpSocket& socket, const ImpairmentParams& params,
               Rng rng);

  void send(std::vector<std::uint8_t> data, const UdpEndpoint& dst);

  const ImpairmentStats& stats() const { return stats_; }

 private:
  EventLoop& loop_;
  UdpSocket& socket_;
  ImpairmentParams params_;
  Rng rng_;
  ImpairmentStats stats_;
};

}  // namespace jqos::net
