#include "net/live_node.h"

#include <sys/epoll.h>

#include <chrono>

namespace jqos::net {
namespace {

// Live-runtime clock in microseconds, used for cache TTLs.
SimTime live_now() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

constexpr SimDuration kLiveCacheTtl = sec(30);
// A hole is re-pulled at this interval while the cloud copy may still be in
// flight, and given up this long after its first pull (40 pulls). The
// simulated receiver gives up after max(600 ms, 3 RTT).
constexpr std::chrono::milliseconds kLivePullRetry{25};
constexpr std::chrono::milliseconds kLivePullGiveUp{1000};

}  // namespace

// ----------------------------- LiveCachingDc ------------------------------

LiveCachingDc::LiveCachingDc(EventLoop& loop, std::uint16_t port)
    : loop_(loop), socket_(port) {
  loop_.add_fd(socket_.fd(), EPOLLIN, [this](std::uint32_t) { on_readable(); });
}

void LiveCachingDc::on_readable() {
  while (auto dgram = socket_.recv()) {
    auto pkt = Packet::parse(dgram->data);
    if (pkt) handle(*pkt, dgram->from);
  }
}

void LiveCachingDc::handle(const Packet& pkt, const UdpEndpoint& from) {
  switch (pkt.type) {
    case PacketType::kData: {
      if (pkt.service != ServiceType::kCache) return;
      auto stored = std::make_shared<Packet>(pkt);
      store_.put(stored, live_now(), kLiveCacheTtl);
      return;
    }
    case PacketType::kPull: {
      PacketPtr cached = store_.get(pkt.key(), live_now());
      if (cached == nullptr) return;  // Fails silently; receiver re-pulls.
      Packet out = *cached;
      out.type = PacketType::kRecovered;
      ++served_;
      socket_.send_to(out.serialize(), from);
      return;
    }
    default:
      return;
  }
}

// ------------------------------- LiveSender -------------------------------

LiveSender::LiveSender(EventLoop& loop, FlowId flow, UdpEndpoint receiver, UdpEndpoint dc,
                       const ImpairmentParams& direct_impairment, Rng rng)
    : loop_(loop),
      socket_(0),
      direct_link_(loop, socket_, direct_impairment, rng),
      flow_(flow),
      receiver_(receiver),
      dc_(dc) {
  (void)loop_;
}

SeqNo LiveSender::send(std::vector<std::uint8_t> payload) {
  const SeqNo seq = next_seq_++;
  Packet pkt;
  pkt.type = PacketType::kData;
  pkt.flow = flow_;
  pkt.seq = seq;
  pkt.sent_at = live_now();
  pkt.payload = std::move(payload);

  // Direct copy over the impaired "Internet" leg.
  pkt.service = ServiceType::kNone;
  direct_link_.send(pkt.serialize(), receiver_);

  // Clean duplicate to the DC cache (the cloud leg is reliable).
  pkt.service = ServiceType::kCache;
  socket_.send_to(pkt.serialize(), dc_);
  return seq;
}

// ------------------------------ LiveReceiver ------------------------------

LiveReceiver::LiveReceiver(EventLoop& loop, FlowId flow, UdpEndpoint dc,
                           DeliverFn on_delivery, std::uint16_t port)
    : loop_(loop),
      socket_(port),
      flow_(flow),
      dc_(dc),
      on_delivery_(std::move(on_delivery)) {
  loop_.add_fd(socket_.fd(), EPOLLIN, [this](std::uint32_t) { on_readable(); });
}

void LiveReceiver::pull(SeqNo seq) {
  Packet req;
  req.type = PacketType::kPull;
  req.service = ServiceType::kCache;
  req.flow = flow_;
  req.seq = seq;
  req.sent_at = live_now();
  ++pulls_sent_;
  socket_.send_to(req.serialize(), dc_);
  loop_.add_timer(kLivePullRetry, [this, seq] {
    auto it = pending_pulls_.find(seq);
    if (it == pending_pulls_.end()) return;
    if (Clock::now() - it->second >= kLivePullGiveUp) {
      pending_pulls_.erase(it);
      ++holes_given_up_;
      return;
    }
    pull(seq);
  });
}

void LiveReceiver::on_readable() {
  while (auto dgram = socket_.recv()) {
    auto parsed = Packet::parse(dgram->data);
    if (!parsed || parsed->flow != flow_) continue;
    const Packet& pkt = *parsed;
    const bool recovered = pkt.type == PacketType::kRecovered;
    if (pkt.type != PacketType::kData && !recovered) continue;
    if (std::uint64_t{pkt.seq} >= std::uint64_t{next_expected_} + kMaxSeqGap) {
      ++far_ahead_dropped_;
      continue;
    }

    if (pkt.seq < next_expected_ && pending_pulls_.count(pkt.seq) == 0) {
      continue;  // Duplicate.
    }
    if (pending_pulls_.erase(pkt.seq) != 0) {
      if (recovered) ++delivered_recovered_; else ++delivered_direct_;
      if (on_delivery_) on_delivery_(pkt, recovered);
      continue;
    }
    // Gap detection: pull every hole between the expected and arrived seq.
    for (SeqNo s = next_expected_; s < pkt.seq; ++s) {
      if (pending_pulls_.try_emplace(s, Clock::now()).second) pull(s);
    }
    next_expected_ = pkt.seq + 1;
    if (recovered) ++delivered_recovered_; else ++delivered_direct_;
    if (on_delivery_) on_delivery_(pkt, recovered);
  }
}

}  // namespace jqos::net
