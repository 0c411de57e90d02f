// Event-queue microbench: single-thread event dispatch throughput of the
// simulator core on the pure-dispatch workloads that bound every figure
// sweep, across both event-queue backends:
//
//   heap    the retained reference backend: binary-heap ordering over the
//           shared slab (freelist slots, inline EventFn storage) and the
//           batched drain loop.
//   ladder  the production backend: ladder queue + slab + batched drain.
//
// Workloads:
//   hold   the classic hold model: L live events in steady state; every
//          fired event schedules a successor. The netsim steady-state
//          profile (links keep a bounded in-flight population) and the
//          headline events/sec number.
//   drain  push N events with random timestamps, then drain the queue dry:
//          pure push+pop cost with no rescheduling.
//   churn  hold with cancellation: each fired event schedules two
//          successors and cancels one pending event, exercising the slab
//          freelist and lazy-cancel skipping at speed.
//   hold_shard  hold at one scenario shard's population: 1,000 live
//          events, successors 1-2,000 ticks out, under eight timers ~1e9
//          ticks out (the sweeps and idle timers that hold the ladder's top
//          tier far ahead of the dense near future). Same shape in --quick.
//
// Flags: --json (JSON Lines rows), --quick (CI smoke preset).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "netsim/simulator.h"

namespace {

using namespace jqos;
using netsim::EventId;
using netsim::EvqBackend;
using netsim::Simulator;

using Clock = std::chrono::steady_clock;

struct Result {
  std::string backend;
  std::string name;
  std::uint64_t live = 0;
  std::uint64_t events = 0;
  double wall_sec = 0.0;
  std::uint64_t slab_slots = 0;

  double events_per_sec() const { return static_cast<double>(events) / wall_sec; }
};

// ------------------------------- workloads --------------------------------

// Steady-state hold model: fire `total` events through `live` in-flight,
// first scheduled uniformly over [0, first_span], beside `far_timers`
// events ~1e9 ticks out.
Result run_hold(EvqBackend backend, const char* name, std::uint64_t live, SimTime first_span,
                int far_timers, std::uint64_t total) {
  Simulator sim(backend);
  Rng rng(42);

  struct Driver {
    Simulator& sim;
    Rng& rng;
    std::uint64_t remaining;
    void fire() {
      if (remaining == 0) return;
      --remaining;
      // Uniform delays: the cheapest draw, so dispatch (not RNG) dominates.
      sim.after(rng.uniform_int(1, 2000), [this] { fire(); });
    }
  } driver{sim, rng, total};

  for (int i = 0; i < far_timers; ++i) sim.at(1'000'000'000 + i, [] {});
  for (std::uint64_t i = 0; i < live; ++i) {
    sim.at(rng.uniform_int(0, first_span), [&driver] { driver.fire(); });
  }

  const auto start = Clock::now();
  sim.run();
  const double secs = std::chrono::duration<double>(Clock::now() - start).count();
  return {netsim::evq_backend_name(backend), name, live, sim.events_processed(), secs,
          sim.queue().slab_slots()};
}

// Push N events up front, then drain the queue dry.
Result run_drain(EvqBackend backend, std::uint64_t n) {
  Simulator sim(backend);
  Rng rng(43);
  for (std::uint64_t i = 0; i < n; ++i) {
    // Coarse 100us grid: heavy equal-timestamp ties, as links produce.
    sim.at(100 * rng.uniform_int(0, static_cast<std::int64_t>(n) / 10), [] {});
  }
  const auto start = Clock::now();
  sim.run();
  const double secs = std::chrono::duration<double>(Clock::now() - start).count();
  return {netsim::evq_backend_name(backend), "drain", n, sim.events_processed(), secs,
          sim.queue().slab_slots()};
}

// Hold with cancellation churn: fired events spawn two successors and
// cancel a pending one, keeping the live population stable.
Result run_churn(EvqBackend backend, std::uint64_t live, std::uint64_t total) {
  Simulator sim(backend);
  Rng rng(44);

  struct Driver {
    Simulator& sim;
    Rng& rng;
    std::uint64_t remaining;
    std::vector<EventId> pending;
    void fire() {
      if (remaining == 0) return;
      --remaining;
      pending.push_back(sim.after(rng.uniform_int(1, 2000), [this] { fire(); }));
      pending.push_back(sim.after(rng.uniform_int(1, 2000), [this] { fire(); }));
      // Cancel one pending event so the population does not explode.
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1));
      sim.cancel(pending[pick]);
      pending[pick] = pending.back();
      pending.pop_back();
    }
  } driver{sim, rng, total, {}};

  for (std::uint64_t i = 0; i < live; ++i) {
    sim.at(rng.uniform_int(0, 1000000), [&driver] { driver.fire(); });
  }
  const auto start = Clock::now();
  sim.run();
  const double secs = std::chrono::duration<double>(Clock::now() - start).count();
  return {netsim::evq_backend_name(backend), "churn", live, sim.events_processed(), secs,
          sim.queue().slab_slots()};
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = jqos::bench::want_json(argc, argv);
  const bool quick = jqos::bench::want_flag(argc, argv, "--quick");

  const std::uint64_t live = quick ? 50'000 : 1'000'000;
  const std::uint64_t total = quick ? 200'000 : 4'000'000;
  const std::uint64_t drain_n = quick ? 200'000 : 4'000'000;

  constexpr EvqBackend kBackends[] = {EvqBackend::kHeap, EvqBackend::kLadder};
  // Each configuration runs `reps` times and keeps the best wall time, so a
  // noisy co-tenant inflates neither numerator nor denominator of a ratio.
  const int reps = quick ? 1 : 3;
  std::vector<Result> results;
  const auto best = [&](auto&& runner) {
    Result b = runner();
    for (int i = 1; i < reps; ++i) {
      Result r = runner();
      if (r.wall_sec < b.wall_sec) b = r;
    }
    results.push_back(b);
  };
  for (EvqBackend b : kBackends) {
    best([&, b] { return run_hold(b, "hold", live, 1'000'000, 0, total); });
  }
  for (EvqBackend b : kBackends) best([&, b] { return run_drain(b, drain_n); });
  for (EvqBackend b : kBackends) best([&, b] { return run_churn(b, live / 4, total / 2); });
  for (EvqBackend b : kBackends) {
    best([&, b] { return run_hold(b, "hold_shard", 1000, 2000, 8, total); });
  }

  const auto heap_rate = [&](const std::string& name) {
    for (const Result& r : results) {
      if (r.name == name && r.backend == "heap") return r.events_per_sec();
    }
    return 0.0;
  };

  if (json) {
    for (const Result& r : results) {
      const double heap = heap_rate(r.name);
      jqos::bench::JsonRow("event_queue")
          .add("name", r.name)
          .add("backend", r.backend)
          .add("live", r.live)
          .add("events", r.events)
          .add("events_per_sec", r.events_per_sec())
          .add("wall_sec", r.wall_sec)
          .add("slab_slots", r.slab_slots)
          .add("speedup_vs_heap", heap > 0 ? r.events_per_sec() / heap : 0.0)
          .emit();
    }
    return 0;
  }

  std::printf("== Event-queue dispatch: %llu live, %llu events (single thread) ==\n",
              static_cast<unsigned long long>(live), static_cast<unsigned long long>(total));
  std::printf("%-10s %-8s %12s %12s %14s %10s %10s\n", "work", "backend", "live",
              "events", "events/sec", "wall s", "vs heap");
  for (const Result& r : results) {
    const double heap = heap_rate(r.name);
    std::printf("%-10s %-8s %12llu %12llu %14.0f %10.3f %9.2fx\n", r.name.c_str(),
                r.backend.c_str(), static_cast<unsigned long long>(r.live),
                static_cast<unsigned long long>(r.events), r.events_per_sec(), r.wall_sec,
                heap > 0 ? r.events_per_sec() / heap : 0.0);
  }
  return 0;
}
