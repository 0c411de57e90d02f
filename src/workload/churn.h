// Million-session flow-churn workload: dynamic session arrival and
// departure over a sharded WAN scenario.
//
// The figure-reproduction scenarios run one long-lived flow per path. Real
// overlays serve CHURN: sessions arrive (Poisson or heavy-tailed), transfer
// a CDF-drawn number of bytes, and leave, so the deployment's steady state
// holds per-flow state only for the sessions alive right now. This runner
// drives exactly that workload through the full stack -- sender duplication,
// encoder batching, recovery, cooperative repair -- and checks the two
// properties the stack must have under churn:
//
//  * O(active sessions) memory: every layer reclaims a departed session's
//    state (ScenarioShard::close_session), so a soak over a million sessions
//    runs in the footprint of its concurrency, not its history. bench_churn
//    proves it by comparing peak RSS of a 1x and a 4x soak.
//  * Determinism: all randomness (arrival gaps, flow sizes, loss, jitter)
//    derives from stable identities, so with a fixed shard count the merged
//    result is bit-identical across thread counts and event-queue backends
//    (tests/workload_test.cc pins the fingerprint).
//
// Every packet is scored by exp::settle_outcome, the rule the figure
// scenarios apply: a recovery slower than one direct-path RTT is a loss, and
// a direct copy landing after a recovery was late, not lost. Delivery
// quality is summarized with O(1)-memory QuantileSketches (see
// common/stats.h) -- a million sessions' completion times cannot be buffered
// as raw Samples. Sketches are merged in shard-index order, which makes the
// sketch contents a pure function of (config, num_shards).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "exp/scenario.h"
#include "workload/arrivals.h"
#include "workload/flow_size.h"

namespace jqos::workload {

struct ChurnConfig {
  // Host pairs (paths) sessions churn over; drawn from the PlanetLab-like
  // geography model with the scenario seed.
  std::size_t num_pairs = 15;
  // Arrival window: sessions arrive in [0, duration); the run then drains
  // until every accepted session finishes.
  SimDuration duration = sec(60);
  ArrivalParams arrivals;
  // Session sizes; when `cdf_file` is set it overrides `mix`.
  AppMix mix = AppMix::kWebTransfer;
  std::optional<std::string> cdf_file;
  // Send pacing within a session.
  double packets_per_second = 50.0;
  std::size_t payload_bytes = 512;
  // Sessions longer than this are truncated (keeps bulk-mix soaks bounded).
  std::uint32_t max_session_packets = 2000;
  exp::WanScenarioParams scenario;
  // Sharding, passed to the exp::ShardedRunner that runs the shards (see
  // ShardedRunParams): 0 = one shard per (DC1, DC2) group. Sketch contents
  // depend on num_shards (merge order); totals do not.
  std::size_t num_shards = 0;
  unsigned num_threads = 0;  // 0 = JQOS_SIM_THREADS / hardware concurrency.
};

struct ChurnTotals {
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_completed = 0;
  // Sessions that delivered at least 90% of their packets (churn.cc).
  std::uint64_t sessions_succeeded = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t delivered_direct = 0;
  std::uint64_t recovered = 0;
  std::uint64_t lost = 0;
  // Flows still registered after the drain; 0 unless the teardown chain
  // leaks (asserted by tests).
  std::uint64_t leaked_flows = 0;

  ChurnTotals& operator+=(const ChurnTotals& o) {
    sessions_opened += o.sessions_opened;
    sessions_completed += o.sessions_completed;
    sessions_succeeded += o.sessions_succeeded;
    packets_sent += o.packets_sent;
    delivered_direct += o.delivered_direct;
    recovered += o.recovered;
    lost += o.lost;
    leaked_flows += o.leaked_flows;
    return *this;
  }
};

// One overlay up/down transition, tagged with the path that observed it.
struct PathFailover {
  std::size_t path = 0;  // Global path index.
  SimTime at = 0;
  bool up = false;
};

struct ChurnResult {
  ChurnTotals totals;
  // Per-session delivery quality, O(1) memory regardless of session count.
  QuantileSketch completion_ms;   // Open -> last delivered packet.
  QuantileSketch delivered_pct;   // Packets delivered (direct+recovered), %.
  QuantileSketch recovery_ms;     // Per recovered packet: detect -> deliver.
  // completion_ms split by whether the session's lifetime overlapped a
  // fault window of the scenario's plan (both empty when the plan is).
  QuantileSketch completion_in_fault_ms;
  QuantileSketch completion_clear_ms;
  // Fault-layer counters merged across shards (see exp::FaultSummary).
  exp::FaultSummary faults;
  // Every overlay up/down transition, sorted by (time, path).
  std::vector<PathFailover> failover_events;
  services::EncoderStats encoder;
  services::RecoveryStatsDc recovery;
  std::uint64_t events = 0;       // Simulator events summed over shards.
  std::size_t shards_used = 0;
  unsigned threads_used = 0;

  // Order-sensitive FNV-1a over every counter and the bit patterns of the
  // sketch quantiles: two runs agree on the fingerprint iff they agree on
  // all reported results bit-for-bit. The determinism tests compare this
  // across thread counts and event-queue backends at fixed num_shards.
  std::uint64_t fingerprint() const;
};

// Runs the churn workload as an exp::ShardedRunner workload: the runner
// partitions the drawn paths, builds and runs the shards in parallel, and
// trims each finished shard's pool; the results merge in shard-index order.
// Deterministic for fixed (config, num_shards) regardless of num_threads.
// Throws std::invalid_argument on a fault plan that exp::validate_fault_plan
// rejects for the drawn paths.
ChurnResult run_churn(const ChurnConfig& config);

}  // namespace jqos::workload
