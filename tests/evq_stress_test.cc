// Randomized stress / property tests for the event-queue backends.
//
// The ladder queue earns its keep only if it is indistinguishable from the
// reference binary heap — and from a naive stable-sorted model — under
// arbitrary interleavings of push / cancel / pop with heavy equal-timestamp
// ties. These tests fuzz exactly that, seeded so failures reproduce; each
// test names the backends it compares, so every run covers both.
//
// Also pins the slab memory contract: resident slots track PEAK LIVE
// events, not total events ever pushed (the pre-ladder EventQueue grew its
// handler table forever — a long sweep leaked O(total events)), and the
// ladder's bound on its sorted bottom.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "netsim/event_queue.h"

namespace jqos::netsim {
namespace {

// A naive but obviously-correct model: pending events in push order; pop
// takes the stable minimum by (time, push order).
class NaiveModel {
 public:
  std::uint64_t push(SimTime at, int label) {
    events_.push_back({at, next_id_, label, true});
    return next_id_++;
  }
  void cancel(std::uint64_t id) {
    for (auto& e : events_) {
      if (e.id == id) e.live = false;
    }
  }
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& e : events_) n += e.live ? 1 : 0;
    return n;
  }
  bool empty() const { return size() == 0; }
  // Time of the earliest live event; only valid when !empty().
  SimTime next_time() const {
    const Ev* best = nullptr;
    for (const auto& e : events_) {
      if (e.live && (best == nullptr || e.at < best->at)) best = &e;
    }
    return best->at;
  }
  // Returns (at, label) of the earliest live event and removes it.
  std::pair<SimTime, int> pop() {
    std::size_t best = events_.size();
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (!events_[i].live) continue;
      if (best == events_.size() || events_[i].at < events_[best].at) best = i;
      // Ties resolve to the earliest push, which is the first hit.
    }
    const auto out = std::make_pair(events_[best].at, events_[best].label);
    events_.erase(events_.begin() + static_cast<std::ptrdiff_t>(best));
    return out;
  }

 private:
  struct Ev {
    SimTime at;
    std::uint64_t id;
    int label;
    bool live;
  };
  std::vector<Ev> events_;
  std::uint64_t next_id_ = 0;
};

// One random op script executed against the naive model and both real
// backends in lockstep; every divergence is caught at the op that causes it.
struct TimeMix {
  SimDuration quantum;   // Delays snap to this grid (ties when coarse).
  SimDuration max_delay; // Horizon of scheduled delays.
  // Below this many pending events the script only grows: it pushes,
  // cancels, and peeks at next_time() but pops nothing, so `now` stays put,
  // and each push lands max_delay * (min_live - pending) / min_live out --
  // just before the previous one, in front of every pending event.
  std::size_t min_live = 0;
  // Timers kept pending kFarDelay out; a cancelled one is re-armed.
  int far_timers = 0;
};

constexpr SimDuration kFarDelay = 1'000'000'000;

void run_script(std::uint64_t seed, const TimeMix& mix) {
  const std::string what = "seed=" + std::to_string(seed) +
                           " quantum=" + std::to_string(mix.quantum) +
                           " max_delay=" + std::to_string(mix.max_delay) +
                           " min_live=" + std::to_string(mix.min_live);
  Rng rng(seed);
  NaiveModel model;
  EventQueue heap(EvqBackend::kHeap);
  EventQueue ladder(EvqBackend::kLadder);

  // Live labels and their per-structure ids, for cancel targeting.
  struct LiveEvent {
    std::uint64_t model_id;
    EventId heap_id;
    EventId ladder_id;
    int label;
    bool far;
  };
  std::vector<LiveEvent> live;
  std::vector<int> fired_heap, fired_ladder;
  int next_label = 0;
  SimTime now = 0;

  const auto push_all = [&](SimTime at, bool far = false) {
    const int label = next_label++;
    LiveEvent ev;
    ev.label = label;
    ev.far = far;
    ev.model_id = model.push(at, label);
    ev.heap_id = heap.push(at, [&fired_heap, label] { fired_heap.push_back(label); });
    ev.ladder_id =
        ladder.push(at, [&fired_ladder, label] { fired_ladder.push_back(label); });
    live.push_back(ev);
  };

  const auto push_far = [&] { push_all(now + kFarDelay + rng.uniform_int(0, 1000), true); };
  for (int i = 0; i < mix.far_timers; ++i) push_far();

  for (int op = 0; op < 6000; ++op) {
    const std::int64_t dice = rng.uniform_int(0, 99);
    const bool growing = model.size() < mix.min_live;
    if (dice < (growing ? 80 : 45) || model.empty()) {
      const std::int64_t steps = mix.max_delay / mix.quantum;
      const std::int64_t step =
          growing ? steps * static_cast<std::int64_t>(mix.min_live - model.size()) /
                        static_cast<std::int64_t>(mix.min_live)
                  : rng.uniform_int(0, steps);
      push_all(now + mix.quantum * step);
    } else if (dice < (growing ? 90 : 55)) {
      // Cancel a random still-pending event everywhere.
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const bool far = live[pick].far;
      model.cancel(live[pick].model_id);
      heap.cancel(live[pick].heap_id);
      ladder.cancel(live[pick].ladder_id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      if (far) push_far();
    } else if (growing) {
      // Peek: next_time() runs the ladder's refill without moving `now`.
      const SimTime at = model.next_time();
      EXPECT_EQ(heap.next_time(), at) << what << " op=" << op;
      EXPECT_EQ(ladder.next_time(), at) << what << " op=" << op;
    } else {
      ASSERT_FALSE(heap.empty()) << what;
      ASSERT_FALSE(ladder.empty()) << what;
      const auto [at, label] = model.pop();
      EXPECT_EQ(heap.next_time(), at) << what;
      EXPECT_EQ(ladder.next_time(), at) << what;
      auto hf = heap.pop();
      auto lf = ladder.pop();
      EXPECT_EQ(hf.at, at) << what;
      EXPECT_EQ(lf.at, at) << what;
      hf.fn();
      lf.fn();
      ASSERT_FALSE(fired_heap.empty());
      ASSERT_FALSE(fired_ladder.empty());
      ASSERT_EQ(fired_heap.back(), label) << what << " op=" << op;
      ASSERT_EQ(fired_ladder.back(), label) << what << " op=" << op;
      now = at;  // Sim-contract monotonic clock: future pushes are >= now.
      std::erase_if(live, [&](const LiveEvent& e) { return e.label == label; });
    }
    ASSERT_EQ(heap.size(), model.size()) << what << " op=" << op;
    ASSERT_EQ(ladder.size(), model.size()) << what << " op=" << op;
  }

  // Drain the remainder and compare the full tails.
  while (!model.empty()) {
    const auto [at, label] = model.pop();
    auto hf = heap.pop();
    auto lf = ladder.pop();
    ASSERT_EQ(hf.at, at) << what;
    ASSERT_EQ(lf.at, at) << what;
    hf.fn();
    lf.fn();
    ASSERT_EQ(fired_heap.back(), label) << what;
    ASSERT_EQ(fired_ladder.back(), label) << what;
  }
  EXPECT_TRUE(heap.empty()) << what;
  EXPECT_TRUE(ladder.empty()) << what;
  EXPECT_EQ(fired_heap, fired_ladder) << what;
}

TEST(EvqStress, DifferentialAgainstHeapAndNaiveModel) {
  // Tie-heavy (coarse quantum), mixed, and wide-horizon time distributions.
  const TimeMix mixes[] = {
      {msec(1), msec(5)},     // ~5 distinct delays: massive tie pileups.
      {usec(100), msec(50)},  // The figure benches' coarse-grid profile.
      {usec(1), sec(100)},    // Sparse far-future spread (deep rungs).
      // A dense near future, above the ladder's bottom cap, under far
      // timers. The first peek sorts the few pending events, far timers
      // included, into the bottom, one at exactly top_start_. Growth pushes
      // then land in front of everything, so the bottom keeps filling and is
      // re-spread into rungs that each begin below the one before; the
      // uniform pushes that follow land inside those rungs.
      {usec(1), usec(256), 3 * EventQueue::kBottomCap, 4},
  };
  for (const TimeMix& mix : mixes) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 99ull}) run_script(seed, mix);
  }
}

TEST(EvqStress, DrainByHorizonMatchesSequentialPops) {
  for (std::uint64_t seed : {5ull, 6ull}) {
    Rng rng(seed);
    EventQueue batched(EvqBackend::kLadder);
    EventQueue serial(EvqBackend::kHeap);
    std::vector<int> got_batched, got_serial;
    for (int i = 0; i < 3000; ++i) {
      const SimTime at = msec(rng.uniform_int(0, 200));
      batched.push(at, [&got_batched, i] { got_batched.push_back(i); });
      serial.push(at, [&got_serial, i] { got_serial.push_back(i); });
    }
    // Drain in horizon steps on one queue, one event at a time on the other.
    for (SimTime h = msec(20); !batched.empty(); h += msec(20)) {
      batched.drain(h, [h](SimTime at, EventFn&& fn) {
        EXPECT_LE(at, h);
        fn();
      });
      while (!serial.empty() && serial.next_time() <= h) serial.pop().fn();
    }
    EXPECT_EQ(got_batched, got_serial) << "seed=" << seed;
  }
}

TEST(EvqStress, SlabHighWaterTracksPeakLiveNotTotalPushed) {
  // The regression the ladder rework fixes: push/fire 1M events through a
  // bounded in-flight window and assert resident slots stay near peak-live.
  for (EvqBackend b : {EvqBackend::kHeap, EvqBackend::kLadder}) {
    EventQueue q(b);
    Rng rng(11);
    constexpr std::size_t kPeakLive = 1024;
    constexpr std::uint64_t kTotal = 1'000'000;
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < kPeakLive; ++i) q.push(rng.uniform_int(0, 100000), [] {});
    SimTime now = 0;
    while (fired < kTotal) {
      auto f = q.pop();
      now = f.at;
      ++fired;
      // Occasional cancels keep the freelist churning.
      EventId id = q.push(now + rng.uniform_int(1, 100000), [] {});
      if (rng.bernoulli(0.05)) {
        q.cancel(id);
        q.push(now + rng.uniform_int(1, 100000), [] {});
      }
    }
    EXPECT_EQ(q.size(), kPeakLive) << evq_backend_name(b);
    // Near peak-live: a factor-2 allowance for freelist slack, vs the ~1M
    // slots the pre-slab implementation would have accumulated.
    EXPECT_LE(q.slab_slots(), 2 * kPeakLive) << evq_backend_name(b);
  }
}

TEST(EvqStress, BucketPoolCapacityStaysBoundedUnderSteadyChurn) {
  // Regression for the ladder bucket-pool ratchet: a consumed bucket feeds
  // the recycle pool every few events, but rung spawns (the only drain)
  // happen orders of magnitude less often, so a pool capped by vector COUNT
  // alone accumulates capacity linearly for the whole run. The churn-shaped
  // workload below -- a recurring far-future event that forces wide rungs,
  // plus a steady stream of near-future timers that are often cancelled and
  // re-armed -- must leave total pooled capacity O(peak live events), not
  // O(events ever pushed).
  EventQueue q(EvqBackend::kLadder);
  Rng rng(23);
  constexpr std::uint64_t kTotal = 2'000'000;
  SimTime now = 0;
  EventId sweep = q.push(sec(10), [] {});
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < 512; ++i) q.push(rng.uniform_int(1, 50000), [] {});
  while (fired < kTotal) {
    auto f = q.pop();
    now = f.at;
    ++fired;
    // Timer-like behaviour: frequently cancel and re-arm, parking dead
    // entries in future buckets; keep one event ~10 s out at all times so
    // every spread covers a wide span (many buckets).
    EventId id = q.push(now + rng.uniform_int(1, 50000), [] {});
    if (rng.bernoulli(0.25)) {
      q.cancel(id);
      q.push(now + rng.uniform_int(1, 50000), [] {});
    }
    if (q.size() < 2) {
      q.cancel(sweep);
      sweep = q.push(now + sec(10), [] {});
    }
  }
  // Mirrors recycle_bucket's bound: max(fixed floor, small multiple of the
  // slab high-water mark). Pre-fix this reached millions of pooled entries.
  const std::size_t limit =
      std::max<std::size_t>(std::size_t{1} << 12, 8 * q.slab_slots());
  EXPECT_LE(q.pooled_bucket_entries(), limit);
}

TEST(EvqStress, SortedBottomStaysBounded) {
  // A scenario shard's shape: 1,000 live events, each scheduling a
  // successor 1-2,000 ticks out, under eight timers ~1e9 ticks out, with
  // cancels and re-arms of both. The far timers hold the ladder's top_start_
  // far ahead, so every successor lands below it: an unbounded sorted bottom
  // would grow to the whole population and shift ~1,000 entries per push.
  // After every push the bottom must be within its cap, and the ladder must
  // fire in the heap's order.
  EventQueue ladder(EvqBackend::kLadder);
  EventQueue heap(EvqBackend::kHeap);
  Rng rng(31);
  int fired_ladder = -1;
  int fired_heap = -1;
  int next_label = 0;
  std::size_t max_bottom = 0;
  int first_over = -1;  // Label of the first push that left the bottom over its cap.
  struct Ids {
    EventId ladder;
    EventId heap;
  };
  const auto push_both = [&](SimTime at) {
    const int label = next_label++;
    const Ids ids{ladder.push(at, [&fired_ladder, label] { fired_ladder = label; }),
                  heap.push(at, [&fired_heap, label] { fired_heap = label; })};
    max_bottom = std::max(max_bottom, ladder.bottom_entries());
    if (first_over < 0 && ladder.bottom_entries() > EventQueue::kBottomCap) first_over = label;
    return ids;
  };
  const auto cancel_both = [&](const Ids& ids) {
    ladder.cancel(ids.ladder);
    heap.cancel(ids.heap);
  };

  Ids far[8];
  for (Ids& t : far) t = push_both(kFarDelay + rng.uniform_int(0, 1000));
  for (int i = 0; i < 1000; ++i) push_both(rng.uniform_int(1, 2000));
  for (int n = 0; n < 200'000; ++n) {
    auto lf = ladder.pop();
    auto hf = heap.pop();
    ASSERT_EQ(lf.at, hf.at) << "event " << n;
    lf.fn();
    hf.fn();
    ASSERT_EQ(fired_ladder, fired_heap) << "event " << n;
    const SimTime now = lf.at;
    const Ids next = push_both(now + rng.uniform_int(1, 2000));
    if (rng.bernoulli(0.05)) {  // A timer re-armed before it fires.
      cancel_both(next);
      push_both(now + rng.uniform_int(1, 2000));
    }
    if (rng.bernoulli(0.001)) {  // A far timer pushed back.
      Ids& t = far[rng.uniform_int(0, 7)];
      cancel_both(t);
      t = push_both(now + kFarDelay + rng.uniform_int(0, 1000));
    }
  }
  EXPECT_EQ(ladder.size(), heap.size());
  EXPECT_LE(max_bottom, EventQueue::kBottomCap) << "first over the cap: push " << first_over;
}

}  // namespace
}  // namespace jqos::netsim
