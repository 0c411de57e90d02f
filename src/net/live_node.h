// Live loopback deployment of the J-QoS caching recovery path: a DC
// process, a sender, and a receiver exchanging real UDP datagrams in the
// J-QoS wire format, with impairment injected on the "Internet" leg. This
// mirrors the prototype's proxy mode (Section 5): applications hand packets
// to a local J-QoS process which duplicates them toward the cloud.
//
// The simulator remains the vehicle for the paper's quantitative
// experiments; the live runtime demonstrates (and tests) that the same wire
// format and recovery protocol run over actual sockets.
#pragma once

#include <functional>
#include <map>

#include "common/packet.h"
#include "net/event_loop.h"
#include "net/impairment.h"
#include "net/udp_socket.h"
#include "services/caching/cache_store.h"

namespace jqos::net {

// A data center running the caching service over UDP.
class LiveCachingDc {
 public:
  LiveCachingDc(EventLoop& loop, std::uint16_t port = 0);

  UdpEndpoint endpoint() const { return socket_.local_endpoint(); }
  const services::CacheStore& store() const { return store_; }
  std::uint64_t served() const { return served_; }

 private:
  void on_readable();
  void handle(const Packet& pkt, const UdpEndpoint& from);

  EventLoop& loop_;
  UdpSocket socket_;
  services::CacheStore store_;
  std::uint64_t served_ = 0;
};

// A sender that duplicates each payload: direct to the receiver through an
// impaired link, and a clean copy to the DC for caching.
class LiveSender {
 public:
  LiveSender(EventLoop& loop, FlowId flow, UdpEndpoint receiver, UdpEndpoint dc,
             const ImpairmentParams& direct_impairment, Rng rng);

  SeqNo send(std::vector<std::uint8_t> payload);

  const ImpairmentStats& direct_stats() const { return direct_link_.stats(); }

 private:
  EventLoop& loop_;
  UdpSocket socket_;
  ImpairedLink direct_link_;
  FlowId flow_;
  UdpEndpoint receiver_;
  UdpEndpoint dc_;
  SeqNo next_seq_ = 0;
};

// A receiver with gap detection and pull-based recovery from the DC. A
// hole is re-pulled every 25 ms and given up one second after its first
// pull (constants: live_node.cc); a late copy of a given-up seq is then
// ignored as a duplicate.
class LiveReceiver {
 public:
  using DeliverFn = std::function<void(const Packet&, bool recovered)>;

  LiveReceiver(EventLoop& loop, FlowId flow, UdpEndpoint dc, DeliverFn on_delivery,
               std::uint16_t port = 0);

  UdpEndpoint endpoint() const { return socket_.local_endpoint(); }

  std::uint64_t delivered_direct() const { return delivered_direct_; }
  std::uint64_t delivered_recovered() const { return delivered_recovered_; }
  std::uint64_t pulls_sent() const { return pulls_sent_; }
  // Holes still missing when their pull time ran out.
  std::uint64_t holes_given_up() const { return holes_given_up_; }
  // Datagrams dropped for a seq kMaxSeqGap or more past the next expected
  // one (one past the highest arrival so far).
  std::uint64_t far_ahead_dropped() const { return far_ahead_dropped_; }

 private:
  void on_readable();
  void pull(SeqNo seq);

  EventLoop& loop_;
  UdpSocket socket_;
  FlowId flow_;
  UdpEndpoint dc_;
  DeliverFn on_delivery_;
  SeqNo next_expected_ = 0;
  // Open holes, each with the time of its first pull.
  std::map<SeqNo, Clock::time_point> pending_pulls_;
  std::uint64_t delivered_direct_ = 0;
  std::uint64_t delivered_recovered_ = 0;
  std::uint64_t pulls_sent_ = 0;
  std::uint64_t holes_given_up_ = 0;
  std::uint64_t far_ahead_dropped_ = 0;
};

}  // namespace jqos::net
