// Tests for the live runtime: event loop, UDP wrappers, impairment, and
// the loopback caching-recovery deployment exchanging real datagrams.
#include <gtest/gtest.h>

#include <sys/epoll.h>

#include <chrono>
#include <set>

#include "net/event_loop.h"
#include "net/impairment.h"
#include "net/live_node.h"
#include "net/udp_socket.h"

namespace jqos::net {
namespace {

using namespace std::chrono_literals;

void pump(EventLoop& loop, std::chrono::milliseconds total) {
  const auto deadline = Clock::now() + total;
  while (Clock::now() < deadline) {
    loop.run_once(5ms);
  }
}

TEST(EventLoop, TimerFires) {
  EventLoop loop;
  bool fired = false;
  loop.add_timer(10ms, [&] { fired = true; });
  pump(loop, 80ms);
  EXPECT_TRUE(fired);
}

TEST(EventLoop, CancelledTimerDoesNotFire) {
  EventLoop loop;
  bool fired = false;
  const TimerId id = loop.add_timer(10ms, [&] { fired = true; });
  loop.cancel_timer(id);
  pump(loop, 50ms);
  EXPECT_FALSE(fired);
}

TEST(EventLoop, TimersFireInOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.add_timer(30ms, [&] { order.push_back(2); });
  loop.add_timer(10ms, [&] { order.push_back(1); });
  pump(loop, 100ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(UdpSocket, LoopbackDatagramRoundTrip) {
  UdpSocket a, b;
  ASSERT_NE(a.local_endpoint().port, 0);
  std::vector<std::uint8_t> msg = {1, 2, 3, 4};
  ASSERT_GT(a.send_to(msg, b.local_endpoint()), 0);
  // Loopback delivery is immediate but give the stack a moment.
  std::optional<UdpSocket::Datagram> got;
  for (int i = 0; i < 100 && !got; ++i) got = b.recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data, msg);
  EXPECT_EQ(got->from.port, a.local_endpoint().port);
}

TEST(UdpSocket, EventLoopReadable) {
  EventLoop loop;
  UdpSocket a, b;
  std::vector<std::uint8_t> received;
  loop.add_fd(b.fd(), EPOLLIN, [&](std::uint32_t) {
    while (auto d = b.recv()) received = d->data;
  });
  std::vector<std::uint8_t> msg = {9, 9, 9};
  a.send_to(msg, b.local_endpoint());
  pump(loop, 100ms);
  EXPECT_EQ(received, msg);
}

TEST(Impairment, DropsAtConfiguredRate) {
  EventLoop loop;
  UdpSocket tx, rx;
  ImpairmentParams params;
  params.drop_probability = 0.5;
  ImpairedLink link(loop, tx, params, Rng(1));
  for (int i = 0; i < 1000; ++i) link.send({1}, rx.local_endpoint());
  EXPECT_EQ(link.stats().offered, 1000u);
  EXPECT_NEAR(static_cast<double>(link.stats().dropped), 500.0, 80.0);
}

TEST(Impairment, DelayDefersDelivery) {
  EventLoop loop;
  UdpSocket tx, rx;
  ImpairmentParams params;
  params.delay = 30ms;
  ImpairedLink link(loop, tx, params, Rng(2));
  link.send({7}, rx.local_endpoint());
  EXPECT_FALSE(rx.recv().has_value());  // Not yet on the wire.
  pump(loop, 100ms);
  EXPECT_TRUE(rx.recv().has_value());
}

TEST(LiveLoopback, CachingRecoveryOverRealSockets) {
  // Full live path: sender duplicates to the DC cache; the direct leg
  // drops 30% of datagrams; the receiver detects gaps and pulls the
  // missing packets from the DC. Everything must arrive.
  EventLoop loop;
  LiveCachingDc dc(loop);

  std::set<SeqNo> delivered;
  std::uint64_t recovered_count = 0;
  LiveReceiver receiver(
      loop, /*flow=*/1, dc.endpoint(),
      [&](const Packet& pkt, bool recovered) {
        delivered.insert(pkt.seq);
        if (recovered) ++recovered_count;
      });

  ImpairmentParams impair;
  impair.drop_probability = 0.3;
  impair.delay = 2ms;
  LiveSender sender(loop, 1, receiver.endpoint(), dc.endpoint(), impair, Rng(3));

  const int kPackets = 200;
  for (int i = 0; i < kPackets; ++i) {
    sender.send(std::vector<std::uint8_t>(64, static_cast<std::uint8_t>(i)));
    loop.run_once(1ms);
  }
  // Send a tail marker so the last gap is detectable, then drain.
  for (int i = 0; i < 10; ++i) {
    sender.send(std::vector<std::uint8_t>(8, 0xff));
    pump(loop, 20ms);
  }
  pump(loop, 500ms);

  // Every data packet 0..kPackets-1 must have been delivered eventually.
  std::size_t have = 0;
  for (SeqNo s = 0; s < kPackets; ++s) have += delivered.count(s);
  EXPECT_EQ(have, static_cast<std::size_t>(kPackets));
  EXPECT_GT(recovered_count, 10u);  // ~30% were pulled from the cache.
  EXPECT_GT(dc.served(), 10u);
  EXPECT_GT(sender.direct_stats().dropped, 10u);
}

TEST(LiveLoopback, FarAheadSeqIsDroppedAndCounted) {
  // One datagram carrying the flow's id and a far-ahead seq would make the
  // receiver pull every hole below it; it is dropped and counted instead.
  EventLoop loop;
  UdpSocket dc;  // Where pulls would go.
  LiveReceiver receiver(loop, /*flow=*/1, dc.local_endpoint(), {});
  UdpSocket peer;
  Packet pkt;
  pkt.type = PacketType::kData;
  pkt.flow = 1;
  pkt.seq = kMaxSeqGap + 5;
  ASSERT_GT(peer.send_to(pkt.serialize(), receiver.endpoint()), 0);
  pump(loop, 50ms);
  EXPECT_EQ(receiver.far_ahead_dropped(), 1u);
  EXPECT_EQ(receiver.pulls_sent(), 0u);
  EXPECT_EQ(receiver.delivered_direct(), 0u);
  EXPECT_FALSE(dc.recv().has_value());
}

}  // namespace
}  // namespace jqos::net
