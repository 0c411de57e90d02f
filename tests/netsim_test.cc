// Tests for the discrete-event simulator: event ordering, cancellation and
// timers, clock semantics, loss processes (empirical rates and burst structure),
// latency models, link behaviour, and the network fabric.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "netsim/latency_model.h"
#include "netsim/link.h"
#include "netsim/loss_model.h"
#include "netsim/network.h"
#include "netsim/simulator.h"

namespace jqos::netsim {
namespace {

constexpr EvqBackend kBackends[] = {EvqBackend::kHeap, EvqBackend::kLadder};

TEST(EventQueue, FifoWithinSameTimestamp) {
  for (EvqBackend b : kBackends) {
    EventQueue q(b);
    std::vector<int> order;
    q.push(100, [&] { order.push_back(1); });
    q.push(100, [&] { order.push_back(2); });
    q.push(50, [&] { order.push_back(0); });
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2})) << evq_backend_name(b);
  }
}

TEST(EventQueue, CancelIsLazyAndSafe) {
  for (EvqBackend b : kBackends) {
    EventQueue q(b);
    int fired = 0;
    const EventId a = q.push(10, [&] { ++fired; });
    q.push(20, [&] { ++fired; });
    q.cancel(a);
    q.cancel(a);      // Double cancel: no-op.
    q.cancel(12345);  // Unknown id: no-op.
    EXPECT_EQ(q.size(), 1u) << evq_backend_name(b);
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(fired, 1) << evq_backend_name(b);
  }
}

TEST(EventQueue, CancelOfFiredIdIsNoOpEvenAfterSlotReuse) {
  for (EvqBackend b : kBackends) {
    EventQueue q(b);
    int first = 0, second = 0;
    const EventId a = q.push(10, [&] { ++first; });
    q.pop().fn();
    // The slot is recycled for a new event; the stale id must not touch it.
    q.push(20, [&] { ++second; });
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u) << evq_backend_name(b);
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(first, 1) << evq_backend_name(b);
    EXPECT_EQ(second, 1) << evq_backend_name(b);
  }
}

TEST(EventQueue, PendingTracksOneEvent) {
  for (EvqBackend b : kBackends) {
    EventQueue q(b);
    EXPECT_FALSE(q.pending(0)) << evq_backend_name(b);
    const EventId fired = q.push(10, [] {});
    EXPECT_TRUE(q.pending(fired)) << evq_backend_name(b);
    q.pop().fn();
    EXPECT_FALSE(q.pending(fired)) << evq_backend_name(b);
    EXPECT_FALSE(q.pending(0)) << evq_backend_name(b);  // Slot 0 is free.

    // Later pushes reuse the slot; the old ids name none of their events.
    int ran = 0;
    const EventId cancelled = q.push(20, [&] { ++ran; });
    EXPECT_FALSE(q.pending(fired)) << evq_backend_name(b);
    q.cancel(fired);
    EXPECT_TRUE(q.pending(cancelled)) << evq_backend_name(b);
    q.cancel(cancelled);
    EXPECT_FALSE(q.pending(cancelled)) << evq_backend_name(b);
    const EventId live = q.push(30, [&] { ++ran; });
    EXPECT_EQ(q.slab_slots(), 1u) << evq_backend_name(b);
    q.cancel(fired);
    q.cancel(cancelled);
    EXPECT_TRUE(q.pending(live)) << evq_backend_name(b);
    EXPECT_FALSE(q.pending(0)) << evq_backend_name(b);
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(ran, 1) << evq_backend_name(b);
    EXPECT_FALSE(q.pending(live)) << evq_backend_name(b);
  }
}

TEST(EventQueue, DrainBatchesByHorizon) {
  for (EvqBackend b : kBackends) {
    EventQueue q(b);
    std::vector<int> order;
    q.push(30, [&] { order.push_back(3); });
    q.push(10, [&] { order.push_back(0); });
    q.push(20, [&] { order.push_back(2); });
    q.push(10, [&] { order.push_back(1); });
    EXPECT_EQ(q.drain(20, [](SimTime, EventFn&& fn) { fn(); }), 3u) << evq_backend_name(b);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2})) << evq_backend_name(b);
    EXPECT_EQ(q.size(), 1u) << evq_backend_name(b);
    EXPECT_EQ(q.next_time(), 30) << evq_backend_name(b);
  }
}

TEST(EventQueue, DrainPicksUpEventsPushedAndCancelledMidBatch) {
  for (EvqBackend b : kBackends) {
    EventQueue q(b);
    std::vector<int> order;
    // Event 0 (t=10) pushes a same-time event and one past the horizon, and
    // cancels event 2 (t=10, already queued behind it).
    EventId doomed = 0;
    q.push(10, [&] {
      order.push_back(0);
      q.push(10, [&] { order.push_back(9); });  // Fires within this drain.
      q.push(99, [&] { order.push_back(4); });  // Beyond the horizon.
      q.cancel(doomed);
    });
    q.push(10, [&] { order.push_back(1); });
    doomed = q.push(10, [&] { order.push_back(2); });
    const std::size_t fired = q.drain(50, [](SimTime, EventFn&& fn) { fn(); });
    EXPECT_EQ(fired, 3u) << evq_backend_name(b);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 9})) << evq_backend_name(b);
    EXPECT_EQ(q.size(), 1u) << evq_backend_name(b);
  }
}

TEST(EventQueue, SlabIsBoundedByLiveEventsNotTotalPushed) {
  for (EvqBackend b : kBackends) {
    EventQueue q(b);
    Rng rng(7);
    constexpr std::size_t kLive = 256;
    SimTime now = 0;
    for (std::size_t i = 0; i < kLive; ++i) q.push(rng.uniform_int(0, 10000), [] {});
    // 100k fired events through a slab that should never outgrow ~kLive.
    for (int i = 0; i < 100000; ++i) {
      auto fired = q.pop();
      now = fired.at;
      q.push(now + rng.uniform_int(0, 10000), [] {});
    }
    EXPECT_EQ(q.size(), kLive) << evq_backend_name(b);
    EXPECT_LE(q.slab_slots(), 2 * kLive) << evq_backend_name(b);
  }
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<SimTime> stamps;
  sim.at(100, [&] { stamps.push_back(sim.now()); });
  sim.after(50, [&] { stamps.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(stamps, (std::vector<SimTime>{50, 100}));
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator sim;
  sim.at(100, [] {});
  sim.run();
  EXPECT_THROW(sim.at(50, [] {}), std::invalid_argument);
  sim.after(-10, [] {});  // Negative delays clamp to now.
  EXPECT_FALSE(sim.idle());
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.at(100, [&] { ++fired; });
  sim.at(200, [&] { ++fired; });
  sim.run_until(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 150);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.after(10, recurse);
  };
  sim.after(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 90);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto trace = [] {
    Simulator sim;
    Rng rng(11);
    std::vector<SimTime> out;
    for (int i = 0; i < 100; ++i) {
      sim.after(rng.uniform_int(0, 1000), [&out, &sim] { out.push_back(sim.now()); });
    }
    sim.run();
    return out;
  };
  EXPECT_EQ(trace(), trace());
}

// ------------------------------ loss models -------------------------------

TEST(Timer, RearmingFiresOnlyTheLastArm) {
  Simulator sim;
  Timer timer(sim);
  std::vector<int> fired;
  timer.after(10, [&] { fired.push_back(1); });
  timer.after(30, [&] { fired.push_back(2); });
  timer.at(20, [&] { fired.push_back(3); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{3}));
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Timer, CancelAndDestructionFireNothing) {
  Simulator sim;
  int fired = 0;
  Timer cancelled(sim);
  cancelled.after(10, [&] { ++fired; });
  cancelled.cancel();
  EXPECT_FALSE(cancelled.armed());
  {
    Timer destroyed(sim);
    destroyed.after(10, [&] { ++fired; });
    EXPECT_TRUE(destroyed.armed());
  }
  EXPECT_TRUE(sim.idle());
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Timer, NotArmedInsideItsCallbackOrAfterItFires) {
  Simulator sim;
  Timer timer(sim);
  EXPECT_FALSE(timer.armed());
  int calls = 0;
  bool armed_inside = true;
  timer.after(10, [&] {
    ++calls;
    armed_inside = timer.armed();
  });
  EXPECT_TRUE(timer.armed());
  sim.run();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(armed_inside);
  EXPECT_FALSE(timer.armed());
  // A fired Timer arms again like a fresh one.
  timer.after(10, [&] { ++calls; });
  EXPECT_TRUE(timer.armed());
  sim.run();
  EXPECT_EQ(calls, 2);
}

TEST(Timer, MovedToTimerKeepsThePendingEvent) {
  Simulator sim;
  int fired = 0;
  auto from = std::make_unique<Timer>(sim);
  from->after(10, [&] { ++fired; });
  Timer to(std::move(*from));
  EXPECT_TRUE(to.armed());
  EXPECT_FALSE(from->armed());
  from.reset();  // Destroying the moved-from Timer cancels nothing.
  EXPECT_TRUE(to.armed());
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(LossModel, BernoulliEmpiricalRate) {
  auto m = make_bernoulli_loss(0.05, Rng(1));
  int drops = 0;
  for (int i = 0; i < 100000; ++i) drops += m->should_drop(i) ? 1 : 0;
  EXPECT_NEAR(drops / 100000.0, 0.05, 0.005);
}

TEST(LossModel, NoLossNeverDrops) {
  auto m = make_no_loss();
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(m->should_drop(i));
}

TEST(LossModel, GilbertElliottProducesBursts) {
  GilbertElliottParams p;
  p.p_good_to_bad = 0.01;
  p.p_bad_to_good = 0.2;
  p.loss_in_good = 0.0;
  p.loss_in_bad = 0.9;
  auto m = make_gilbert_elliott(p, Rng(2));
  int drops = 0, bursts = 0;
  bool in_burst = false;
  std::size_t longest = 0, current = 0;
  for (int i = 0; i < 200000; ++i) {
    const bool d = m->should_drop(i);
    drops += d ? 1 : 0;
    if (d) {
      if (!in_burst) ++bursts;
      in_burst = true;
      ++current;
      longest = std::max(longest, current);
    } else {
      in_burst = false;
      current = 0;
    }
  }
  ASSERT_GT(bursts, 0);
  const double mean_burst = static_cast<double>(drops) / bursts;
  EXPECT_GT(mean_burst, 1.5);  // Losses cluster.
  EXPECT_GE(longest, 4u);
}

TEST(LossModel, GoogleBurstMatchesParameters) {
  auto m = make_google_burst(0.01, 0.5, Rng(3));
  int first_losses = 0, opportunities = 0, continuations = 0, continuation_hits = 0;
  bool prev_lost = false;
  for (int i = 0; i < 500000; ++i) {
    const bool d = m->should_drop(i);
    if (prev_lost) {
      ++continuations;
      continuation_hits += d ? 1 : 0;
    } else {
      ++opportunities;
      first_losses += d ? 1 : 0;
    }
    prev_lost = d;
  }
  EXPECT_NEAR(static_cast<double>(first_losses) / opportunities, 0.01, 0.002);
  EXPECT_NEAR(static_cast<double>(continuation_hits) / continuations, 0.5, 0.03);
}

TEST(LossModel, OutagesDropEverythingInWindow) {
  OutageParams p;
  p.mean_interval = sec(10);
  p.min_len = sec(1);
  p.max_len = sec(1);
  auto m = make_outage_over(make_no_loss(), p, Rng(4));
  // Scan one packet per millisecond for 200 simulated seconds.
  int drops = 0;
  std::size_t longest_run = 0, run = 0;
  for (SimTime t = 0; t < sec(200); t += msec(1)) {
    if (m->should_drop(t)) {
      ++drops;
      ++run;
      longest_run = std::max(longest_run, run);
    } else {
      run = 0;
    }
  }
  EXPECT_GT(drops, 0);
  // A 1 s outage at 1 packet/ms is ~1000 consecutive drops.
  EXPECT_GE(longest_run, 500u);
}

TEST(LossModel, ScheduledOutageWindows) {
  std::vector<OutageWindow> w = {{sec(1), sec(2)}, {sec(5), sec(6)}};
  auto m = make_scheduled_outages(make_no_loss(), std::move(w));
  EXPECT_FALSE(m->should_drop(msec(500)));
  EXPECT_TRUE(m->should_drop(msec(1500)));
  EXPECT_FALSE(m->should_drop(msec(3000)));
  EXPECT_TRUE(m->should_drop(msec(5500)));
  EXPECT_FALSE(m->should_drop(msec(7000)));
}

// ----------------------------- latency models -----------------------------

TEST(LatencyModel, FixedIsConstant) {
  auto m = make_fixed_latency(msec(42));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(m->sample(i), msec(42));
  EXPECT_EQ(m->base(), msec(42));
}

TEST(LatencyModel, JitterAboveBaseAndSpiky) {
  JitterParams p;
  p.base = msec(40);
  p.jitter_scale_ms = 2.0;
  p.jitter_sigma = 0.5;
  p.spike_prob = 0.05;
  p.spike_scale_ms = 30.0;
  auto m = make_jitter_latency(p, Rng(5));
  int spikes = 0;
  for (int i = 0; i < 20000; ++i) {
    const SimDuration d = m->sample(i);
    ASSERT_GT(d, msec(40));
    if (d > msec(70)) ++spikes;
  }
  EXPECT_GT(spikes, 100);  // The tail exists.
  EXPECT_LT(spikes, 4000); // But it is a tail.
}

// --------------------------------- link -----------------------------------

struct SinkNode final : Node {
  explicit SinkNode(NodeId id) : id_(id) {}
  NodeId id() const override { return id_; }
  void handle_packet(const PacketPtr& pkt) override { received.push_back(pkt); }
  NodeId id_;
  std::vector<PacketPtr> received;
};

TEST(Link, DeliversWithLatency) {
  Simulator sim;
  Link link(sim, 1, 2, make_fixed_latency(msec(10)), make_no_loss());
  SimTime delivered_at = -1;
  link.set_deliver([&](const PacketPtr&) { delivered_at = sim.now(); });
  link.send(make_data_packet(1, 0, 1, 2, sim.now(), 100));
  sim.run();
  EXPECT_EQ(delivered_at, msec(10));
  EXPECT_EQ(link.stats().delivered_packets, 1u);
}

TEST(Link, LossCountsAndSuppressesDelivery) {
  Simulator sim;
  Link link(sim, 1, 2, make_fixed_latency(msec(1)), make_bernoulli_loss(1.0, Rng(1)));
  int delivered = 0;
  link.set_deliver([&](const PacketPtr&) { ++delivered; });
  link.send(make_data_packet(1, 0, 1, 2, 0, 10));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.stats().dropped_packets, 1u);
  EXPECT_DOUBLE_EQ(link.stats().loss_rate(), 1.0);
}

TEST(Link, BandwidthSerializesFifo) {
  Simulator sim;
  // 8 kbit/s: a 100-byte packet (800 bits) takes 100 ms to serialize.
  Link link(sim, 1, 2, make_fixed_latency(0), make_no_loss(), 8000.0);
  std::vector<SimTime> arrivals;
  link.set_deliver([&](const PacketPtr&) { arrivals.push_back(sim.now()); });
  for (int i = 0; i < 3; ++i) {
    auto p = std::make_shared<Packet>();
    p->dst = 2;
    p->payload.assign(100 - packet_header_bytes(), 0);
    link.send(p);
  }
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], msec(100));
  EXPECT_EQ(arrivals[1], msec(200));
  EXPECT_EQ(arrivals[2], msec(300));
}

TEST(Link, PreserveOrderPreventsReordering) {
  Simulator sim;
  JitterParams p;
  p.base = msec(10);
  p.jitter_scale_ms = 5.0;
  p.jitter_sigma = 1.2;
  Link link(sim, 1, 2, make_jitter_latency(p, Rng(6)), make_no_loss());
  std::vector<SeqNo> arrivals;
  link.set_deliver([&arrivals](const PacketPtr& pkt) { arrivals.push_back(pkt->seq); });
  for (SeqNo s = 0; s < 200; ++s) link.send(make_data_packet(1, s, 1, 2, sim.now(), 10));
  sim.run();
  ASSERT_EQ(arrivals.size(), 200u);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
}

// -------------------------------- network ---------------------------------

TEST(Network, RoutesBetweenNodes) {
  Simulator sim;
  Network net(sim);
  SinkNode a(net.allocate_id()), b(net.allocate_id());
  net.attach(a);
  net.attach(b);
  net.add_link(a.id(), b.id(), make_fixed_latency(msec(5)), make_no_loss());
  net.send(a.id(), make_data_packet(1, 0, a.id(), b.id(), 0, 10));
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0]->seq, 0u);
}

TEST(Network, MissingLinkCountsRoutingFailure) {
  Simulator sim;
  Network net(sim);
  SinkNode a(net.allocate_id()), b(net.allocate_id());
  net.attach(a);
  net.attach(b);
  net.send(a.id(), make_data_packet(1, 0, a.id(), b.id(), 0, 10));
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.routing_failures(), 1u);
}

TEST(Network, LinkLookup) {
  Simulator sim;
  Network net(sim);
  SinkNode a(net.allocate_id()), b(net.allocate_id());
  net.attach(a);
  net.attach(b);
  net.add_link(a.id(), b.id(), make_fixed_latency(1), make_no_loss());
  EXPECT_NE(net.link(a.id(), b.id()), nullptr);
  EXPECT_EQ(net.link(b.id(), a.id()), nullptr);
}

}  // namespace
}  // namespace jqos::netsim
