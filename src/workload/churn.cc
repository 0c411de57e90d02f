#include "workload/churn.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "common/parallel.h"
#include "exp/sharded_runner.h"
#include "geo/path_dataset.h"
#include "netsim/event_queue.h"

namespace jqos::workload {
namespace {

// Per-packet classification codes inside one session, mirroring
// exp::Outcome semantics (pending/direct/recovered/lost).
constexpr std::uint8_t kPending = 0;
constexpr std::uint8_t kDirect = 1;
constexpr std::uint8_t kRecovered = 2;
constexpr std::uint8_t kLost = 3;

// How long a session lingers after its last send before closing its books
// (must cover the receiver's recovery_give_up window so in-flight
// recoveries either land or are declared lost first).
constexpr SimDuration kLinger = msec(1500);
// A session counts as succeeded when at least this fraction of its packets
// was delivered (direct or recovered). The fault benches gate on it: a
// DC2 crash without failover drags path-switched sessions under the bar.
constexpr double kSuccessDeliveredPct = 90.0;

struct SessionState {
  std::size_t path = 0;
  SimTime opened_at = 0;
  SimTime last_delivery = 0;  // Latest in-time delivery (direct or recovered).
  std::uint32_t total = 0;    // Packets this session sends.
  std::uint32_t direct = 0;
  std::uint32_t recovered = 0;
  std::uint32_t lost = 0;
  // Per-packet codes indexed by the flow's sequence number. Recycled: a
  // soak opens and closes millions of sessions, and reusing the vector's
  // capacity keeps session open/close off the global allocator (finalize
  // parks it on the engine's spare list before the session is erased).
  std::vector<std::uint8_t> outcome;
};

// One shard's churn workload: owns the ScenarioShard, drives arrivals,
// sends, classifies deliveries, and finalizes/tears down sessions. All
// events live in the shard's own Simulator, so an engine is fully
// independent of every other engine and may run on any thread.
class ChurnShardEngine {
 public:
  ChurnShardEngine(std::vector<exp::IndexedPath> plan, const ChurnConfig& cfg,
                   const FlowSizeDist& sizes, netsim::EvqBackend backend,
                   double per_path_rate)
      : cfg_(cfg),
        sizes_(sizes),
        shard_(std::move(plan), cfg.scenario, backend),
        fault_windows_(cfg.scenario.faults.windows()),
        send_gap_(std::max<SimDuration>(1, sec_f(1.0 / cfg.packets_per_second))) {
    // The build-time long-lived flows are the figure scenarios' workload,
    // not ours: tear them down so the shard starts with zero registered
    // flows and every flow observed below is a churn session.
    for (std::size_t i = 0; i < shard_.path_count(); ++i) {
      shard_.close_session(i, shard_.path(i).flow);
    }
    for (std::size_t i = 0; i < shard_.path_count(); ++i) {
      // Dispatch deliveries by flow id: the default recorder assumes the
      // single build-time flow, but churn multiplexes many concurrent
      // sessions over each path's receiver.
      shard_.path(i).receiver->set_delivery_handler(
          [this](const endpoint::DeliveryRecord& rec, const PacketPtr&) {
            on_delivery(rec);
          });
      // Every random stream is derived from the scenario seed and the
      // path's GLOBAL index -- never from shard composition or thread
      // interleaving -- so the whole arrival/size sequence is fixed up
      // front (the shard determinism contract, scenario.h).
      const std::uint64_t gi = shard_.path(i).global_index;
      arrivals_.emplace_back(
          cfg.arrivals, per_path_rate,
          Rng(Rng::derive(Rng::derive(cfg.scenario.seed, "churn-arrival"), gi)));
      size_rngs_.emplace_back(
          Rng::derive(Rng::derive(cfg.scenario.seed, "churn-size"), gi));
    }
  }

  void run() {
    end_ = shard_.sim().now() + cfg_.duration;
    for (std::size_t i = 0; i < shard_.path_count(); ++i) schedule_arrival(i);
    // Run to EMPTY, not to a deadline: arrivals stop at end_, send chains
    // and finalize events are finite, recovery traffic and service timers
    // self-terminate once the last session closes.
    shard_.sim().run();
    shard_.flush_encoders();
    shard_.sim().run();
    // run_churn keeps this engine until its merge: drop the pooled packets.
    shard_.trim_pool();
    totals.leaked_flows =
        shard_.registered_flows() + static_cast<std::uint64_t>(active_.size());
  }

  ChurnConfig cfg_;
  const FlowSizeDist& sizes_;
  exp::ScenarioShard shard_;

  // Results, merged by run_churn in shard-index order.
  ChurnTotals totals;
  QuantileSketch completion_ms;
  QuantileSketch delivered_pct;
  QuantileSketch recovery_ms;
  QuantileSketch completion_in_fault_ms;
  QuantileSketch completion_clear_ms;

 private:
  void schedule_arrival(std::size_t path_index) {
    const SimDuration gap =
        std::max<SimDuration>(1, sec_f(arrivals_[path_index].next_gap()));
    if (shard_.sim().now() + gap >= end_) return;  // Chain terminates.
    shard_.sim().after(gap, [this, path_index] {
      start_session(path_index);
      schedule_arrival(path_index);
    });
  }

  void start_session(std::size_t path_index) {
    const FlowId flow = shard_.open_session(path_index);
    const double bytes = sizes_.sample(size_rngs_[path_index]);
    const double payload = static_cast<double>(cfg_.payload_bytes);
    const std::uint32_t total = static_cast<std::uint32_t>(std::clamp<double>(
        std::ceil(bytes / payload), 1.0, static_cast<double>(cfg_.max_session_packets)));

    SessionState& s = active_[flow];
    s.path = path_index;
    s.opened_at = shard_.sim().now();
    s.total = total;
    if (!spare_outcomes_.empty()) {
      s.outcome = std::move(spare_outcomes_.back());
      spare_outcomes_.pop_back();
    }
    s.outcome.assign(total, kPending);
    ++totals.sessions_opened;
    send_next(flow, 0);
  }

  void send_next(FlowId flow, std::uint32_t k) {
    auto it = active_.find(flow);
    if (it == active_.end()) return;  // Finalized early; nothing to send.
    const SessionState& s = it->second;
    shard_.path(s.path).sender->send(flow, cfg_.payload_bytes);
    if (k + 1 < s.total) {
      shard_.sim().after(send_gap_, [this, flow, next = k + 1] { send_next(flow, next); });
    } else {
      // Books close after the linger window: long enough for the receiver's
      // recovery_give_up to either deliver or declare every hole lost.
      shard_.sim().after(kLinger, [this, flow] { finalize(flow); });
    }
  }

  void on_delivery(const endpoint::DeliveryRecord& rec) {
    auto it = active_.find(rec.flow);
    if (it == active_.end()) return;  // Record for an already-closed session.
    SessionState& s = it->second;
    if (rec.seq >= s.outcome.size()) return;
    std::uint8_t& o = s.outcome[rec.seq];

    if (rec.late_direct) {
      // The direct copy arrived after all: not a path loss (same
      // reclassification the figure scenarios apply).
      if (o == kRecovered) {
        o = kDirect;
        --s.recovered;
        ++s.direct;
      }
      return;
    }
    if (rec.lost) {
      if (o == kPending) {
        o = kLost;
        ++s.lost;
      }
      return;
    }
    if (rec.recovered) {
      double ms = 0.0;
      if (rec.detected_missing_at > 0) {
        ms = to_ms(rec.delivered_at - rec.detected_missing_at);
        recovery_ms.add(ms);
      }
      if (o != kPending) return;
      // Paper's success criterion: recovery beyond one direct-path RTT
      // counts as a loss.
      if (ms <= shard_.path(s.path).rtt_ms) {
        o = kRecovered;
        ++s.recovered;
        s.last_delivery = std::max(s.last_delivery, rec.delivered_at);
      } else {
        o = kLost;
        ++s.lost;
      }
      return;
    }
    if (o == kPending) {
      o = kDirect;
      ++s.direct;
      s.last_delivery = std::max(s.last_delivery, rec.delivered_at);
    }
  }

  void finalize(FlowId flow) {
    auto it = active_.find(flow);
    if (it == active_.end()) return;
    SessionState& s = it->second;
    // Ground truth: every sequence number with no delivery record by the
    // end of the linger window is a loss (tail losses the receiver never
    // distinguished from a finished stream).
    for (std::uint8_t& o : s.outcome) {
      if (o == kPending) {
        o = kLost;
        ++s.lost;
      }
    }
    totals.packets_sent += s.total;
    totals.delivered_direct += s.direct;
    totals.recovered += s.recovered;
    totals.lost += s.lost;
    ++totals.sessions_completed;
    const double completion =
        s.last_delivery > 0 ? to_ms(s.last_delivery - s.opened_at) : 0.0;
    const double pct = 100.0 * static_cast<double>(s.direct + s.recovered) /
                       static_cast<double>(s.total);
    completion_ms.add(completion);
    delivered_pct.add(pct);
    if (pct >= kSuccessDeliveredPct) ++totals.sessions_succeeded;
    if (!fault_windows_.empty()) {
      // A session is "in fault" when its lifetime overlapped any window of
      // the plan, regardless of which entity the fault hit: the split is a
      // coarse blast-radius lens, not a causal attribution.
      const SimTime closed = shard_.sim().now();
      bool in_fault = false;
      for (const netsim::OutageWindow& w : fault_windows_) {
        if (s.opened_at < w.end && closed > w.start) {
          in_fault = true;
          break;
        }
      }
      (in_fault ? completion_in_fault_ms : completion_clear_ms).add(completion);
    }
    const std::size_t path_index = s.path;
    spare_outcomes_.push_back(std::move(s.outcome));
    active_.erase(it);
    // Tear the session down through every layer; per-flow state anywhere in
    // the stack after this point is a leak (O(active sessions) contract).
    shard_.close_session(path_index, flow);
  }

  std::vector<netsim::OutageWindow> fault_windows_;
  std::vector<ArrivalProcess> arrivals_;  // Indexed like shard_.path(i).
  std::vector<Rng> size_rngs_;
  // Outcome vectors of finalized sessions, reused by the next sessions to
  // open. It never holds more vectors than the peak number of concurrent
  // sessions.
  std::vector<std::vector<std::uint8_t>> spare_outcomes_;
  std::unordered_map<FlowId, SessionState> active_;
  SimTime end_ = 0;
  SimDuration send_gap_;
};

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
}

std::uint64_t double_bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

void fnv_mix_sketch(std::uint64_t& h, const QuantileSketch& s) {
  fnv_mix(h, s.count());
  fnv_mix(h, double_bits(s.min()));
  fnv_mix(h, double_bits(s.max()));
  for (double q : {0.5, 0.99, 0.999}) fnv_mix(h, double_bits(s.quantile(q)));
}

}  // namespace

std::uint64_t ChurnResult::fingerprint() const {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::uint64_t v :
       {totals.sessions_opened, totals.sessions_completed, totals.sessions_succeeded,
        totals.packets_sent, totals.delivered_direct, totals.recovered, totals.lost,
        totals.leaked_flows}) {
    fnv_mix(h, v);
  }
  fnv_mix_sketch(h, completion_ms);
  fnv_mix_sketch(h, delivered_pct);
  fnv_mix_sketch(h, recovery_ms);
  fnv_mix_sketch(h, completion_in_fault_ms);
  fnv_mix_sketch(h, completion_clear_ms);
  for (std::uint64_t v :
       {faults.link_fault_drops, faults.dc_fault_dropped, faults.total_dc_crashes(),
        faults.failovers, faults.reengages, faults.probes_sent, faults.nacks_suppressed,
        faults.failover_direct_sent, faults.cloud_suppressed, faults.flushes_suppressed}) {
    fnv_mix(h, v);
  }
  for (const PathFailover& ev : failover_events) {
    fnv_mix(h, static_cast<std::uint64_t>(ev.path));
    fnv_mix(h, static_cast<std::uint64_t>(ev.at));
    fnv_mix(h, ev.up ? 1u : 0u);
  }
  for (std::uint64_t v :
       {encoder.data_packets, encoder.in_batches, encoder.cross_batches,
        encoder.coded_sent, encoder.timer_flushes, encoder.single_packet_evictions,
        encoder.full_scan_flushes, encoder.unknown_flow, encoder.flow_departures}) {
    fnv_mix(h, v);
  }
  for (std::uint64_t v :
       {recovery.nacks, recovery.nack_keys, recovery.in_stream_served,
        recovery.coop_ops, recovery.coop_success, recovery.recovered_sent,
        recovery.nack_confirms, recovery.batches_stored, recovery.batches_expired}) {
    fnv_mix(h, v);
  }
  fnv_mix(h, events);
  return h;
}

ChurnResult run_churn(const ChurnConfig& config) {
  // Geography drawn from its own derived stream: a pure function of the
  // scenario seed, shared by every sharding of the same config.
  Rng geo_rng(Rng::derive(config.scenario.seed, "churn-paths"));
  auto paths = geo::planetlab_paths(config.num_pairs, geo_rng);
  if (!config.scenario.faults.empty()) exp::validate_fault_plan(config.scenario.faults, paths);
  auto plans = exp::plan_shards(paths, config.num_shards);

  const double per_path_rate =
      config.arrivals.sessions_per_sec / static_cast<double>(config.num_pairs);
  const FlowSizeDist sizes = config.cdf_file
                                 ? FlowSizeDist::from_file(*config.cdf_file)
                                 : FlowSizeDist::app_mix(config.mix);
  // Resolve the backend once, on this thread, exactly as ShardedRunner does:
  // workers never consult process-global backend state.
  const netsim::EvqBackend backend = netsim::evq_default_backend();

  const unsigned threads = static_cast<unsigned>(std::min<std::size_t>(
      resolve_sim_threads(config.num_threads), plans.size()));
  std::vector<std::unique_ptr<ChurnShardEngine>> engines(plans.size());
  parallel_for_indexed(plans.size(), threads, [&](std::size_t i) {
    engines[i] = std::make_unique<ChurnShardEngine>(plans[i], config, sizes, backend,
                                                    per_path_rate);
    engines[i]->run();
  });

  // Merge in shard-index order: the result is a pure function of
  // (config, num_shards), independent of which thread ran which shard.
  ChurnResult r;
  for (const auto& e : engines) {
    r.totals += e->totals;
    r.completion_ms.merge(e->completion_ms);
    r.delivered_pct.merge(e->delivered_pct);
    r.recovery_ms.merge(e->recovery_ms);
    r.completion_in_fault_ms.merge(e->completion_in_fault_ms);
    r.completion_clear_ms.merge(e->completion_clear_ms);
    r.faults += e->shard_.fault_summary();
    for (std::size_t p = 0; p < e->shard_.path_count(); ++p) {
      const exp::PathRuntime& rt = e->shard_.path(p);
      for (const exp::FailoverEvent& ev : rt.failover_events) {
        r.failover_events.push_back(PathFailover{rt.global_index, ev.at, ev.up});
      }
    }
    r.encoder += e->shard_.encoder_totals();
    r.recovery += e->shard_.recovery_totals();
    r.events += e->shard_.sim().events_processed();
  }
  // Sorted by (time, path): a stable order that does not depend on which
  // shard a path landed in.
  std::sort(r.failover_events.begin(), r.failover_events.end(),
            [](const PathFailover& a, const PathFailover& b) {
              return a.at != b.at ? a.at < b.at : a.path < b.path;
            });
  r.shards_used = plans.size();
  r.threads_used = threads;
  return r;
}

}  // namespace jqos::workload
