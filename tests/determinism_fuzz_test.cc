// Randomized determinism torture test: ~50 seeded mini-scenarios sweeping
// the configuration space -- path counts, service selection, direct-send vs
// path switching, faults, failover, session churn, AQM disciplines, and
// congestion-control kinds -- each run under several configurations that
// MUST all produce bit-identical fingerprints: both event-queue backends,
// the whole scenario as one ScenarioShard vs ShardedRunner decompositions, and
// several shard thread counts. These are the configurations the figures,
// benches, and examples actually run. The point is breadth: the targeted
// determinism suites pin specific mechanisms; this one hunts for
// interactions nobody thought to pin. Every scenario is derived from a fixed
// master seed, so a failure reproduces exactly from the printed scenario
// index.
//
// Event counts are compared only at a fixed partition (a DC site replicated
// into several shards runs its housekeeping timers once per shard), and
// churn fingerprints only at a fixed num_shards (sketch merge order depends
// on it). docs/DETERMINISM.md states the full contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "app/web.h"
#include "common/rng.h"
#include "exp/incast.h"
#include "exp/scenario.h"
#include "exp/sharded_runner.h"
#include "geo/path_dataset.h"
#include "netsim/latency_model.h"
#include "test_guards.h"
#include "workload/churn.h"

namespace jqos {
namespace {

using jqos::testing::EvqBackendGuard;

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
}

void fnv_d(std::uint64_t& h, double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  fnv(h, u);
}

// Everything observable from one WAN scenario run, order-sensitively hashed:
// per-packet outcome traces, recovery samples, per-path counters, failover
// events, service totals, and fault counters. Works on a single
// ScenarioShard and on ShardedRunner's merged view alike; event counts are not
// part of it (see the header comment).
template <typename Run>
std::uint64_t wan_fingerprint(const Run& sc) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < sc.path_count(); ++i) {
    const exp::PathRuntime& rt = sc.path(i);
    fnv(h, rt.outcome.size());
    for (exp::Outcome o : rt.outcome) fnv(h, static_cast<std::uint64_t>(o));
    for (double v : rt.recovery_ms.values()) fnv_d(h, v);
    fnv(h, rt.delivered_direct);
    fnv(h, rt.recovered);
    fnv(h, rt.lost);
    fnv(h, rt.failover_events.size());
    for (const exp::FailoverEvent& ev : rt.failover_events) {
      fnv(h, static_cast<std::uint64_t>(ev.at));
      fnv(h, ev.up ? 1 : 0);
    }
  }
  const auto enc = sc.encoder_totals();
  for (std::uint64_t v : {enc.data_packets, enc.cross_batches, enc.in_batches,
                          enc.coded_sent, enc.timer_flushes}) {
    fnv(h, v);
  }
  const auto rec = sc.recovery_totals();
  for (std::uint64_t v : {rec.nacks, rec.nack_keys, rec.in_stream_served, rec.coop_ops,
                          rec.coop_success, rec.recovered_sent, rec.batches_stored}) {
    fnv(h, v);
  }
  const exp::FaultSummary fs = sc.fault_summary();
  for (std::uint64_t v : {fs.link_fault_drops, fs.dc_fault_dropped, fs.total_dc_crashes(),
                          fs.failovers, fs.reengages, fs.probes_sent,
                          fs.failover_direct_sent, fs.cloud_suppressed}) {
    fnv(h, v);
  }
  return h;
}

// One randomized WAN mini-scenario drawn from the master stream.
struct WanCase {
  std::vector<geo::PathSample> paths;
  exp::WanScenarioParams params;
  SimDuration duration = sec(2);
};

WanCase draw_wan_case(std::uint64_t master, std::uint64_t index) {
  Rng rng(Rng::derive(Rng::derive(master, "wan-case"), index));
  WanCase c;
  const std::size_t n_paths = static_cast<std::size_t>(rng.uniform_int(2, 4));
  Rng geo_rng(rng.next_u64());
  c.paths = geo::planetlab_paths(n_paths, geo_rng);

  exp::WanScenarioParams& p = c.params;
  p.seed = rng.next_u64();
  p.service = rng.bernoulli(0.25) ? ServiceType::kCache : ServiceType::kCode;
  p.send_direct = !rng.bernoulli(0.15);  // 15% path switching.
  p.use_markov = rng.bernoulli(0.7);
  p.cbr.packets_per_second = rng.uniform(20.0, 80.0);
  p.cbr.payload_bytes = rng.bernoulli(0.5) ? 256 : 1024;
  p.cbr.on_duration = sec(1);
  p.cbr.mean_off = msec(500);
  p.coding.k = static_cast<std::size_t>(rng.uniform_int(3, 6));
  p.coding.cross_coded = static_cast<std::size_t>(rng.uniform_int(1, 2));
  p.coding.queue_timeout = msec(static_cast<std::int64_t>(rng.uniform_int(150, 400)));
  p.direct.bernoulli_loss = rng.uniform(0.001, 0.011);
  p.direct.gilbert.p_good_to_bad = rng.uniform(0.0005, 0.0025);
  p.direct.outage_path_fraction = rng.uniform(0.0, 1.0);
  p.direct.outage.mean_interval = sec(20);
  p.direct.outage.min_len = msec(300);
  p.direct.outage.max_len = sec(1);
  if (rng.bernoulli(0.3)) p.failover.enabled = true;
  if (rng.bernoulli(0.4)) {
    // A random fault inside the run window, aimed at a valid target.
    const SimTime start = sec(static_cast<std::int64_t>(rng.uniform_int(0, 1))) +
                          msec(static_cast<std::int64_t>(rng.uniform_int(1, 900)));
    switch (rng.uniform_int(0, 2)) {
      case 0:
        p.faults.link_down(
            "direct:" + std::to_string(rng.uniform_int(
                            0, static_cast<std::int64_t>(n_paths) - 1)),
            start, msec(400));
        break;
      case 1:
        p.faults.node_crash("dc:" + c.paths[0].dc2.name, start, msec(600));
        break;
      default:
        p.faults.link_brownout(
            "direct:" + std::to_string(rng.uniform_int(
                            0, static_cast<std::int64_t>(n_paths) - 1)),
            start, msec(500), {});
        break;
    }
  }
  return c;
}

struct SingleShardRun {
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
};

SingleShardRun run_single_shard(const WanCase& c, netsim::EvqBackend backend) {
  const EvqBackendGuard evq(backend);
  exp::ScenarioShard sc(c.paths, c.params);
  sc.run(c.duration);
  return {wan_fingerprint(sc), sc.sim().events_processed()};
}

std::uint64_t run_sharded(const WanCase& c, std::size_t num_shards, unsigned threads,
                          netsim::EvqBackend backend) {
  const EvqBackendGuard evq(backend);
  exp::ShardedRunParams rp;
  rp.num_shards = num_shards;
  rp.num_threads = threads;
  exp::ShardedRunner runner(c.paths, c.params, rp);
  EXPECT_GT(runner.shard_count(), 1u) << "one shard: the single-shard comparison is vacuous";
  runner.run(c.duration);
  return wan_fingerprint(runner);
}

TEST(DeterminismFuzz, WanScenariosInvariantAcrossBackendsShardsThreads) {
  constexpr std::uint64_t kMaster = 0x4a514f53'46555a5aULL;  // "JQOSFUZZ"
  constexpr int kCases = 30;
  for (int i = 0; i < kCases; ++i) {
    SCOPED_TRACE("wan case " + std::to_string(i));
    const WanCase c = draw_wan_case(kMaster, static_cast<std::uint64_t>(i));
    const SingleShardRun heap = run_single_shard(c, netsim::EvqBackend::kHeap);
    const SingleShardRun ladder = run_single_shard(c, netsim::EvqBackend::kLadder);
    EXPECT_EQ(heap.fingerprint, ladder.fingerprint) << "single shard heap vs ladder";
    EXPECT_EQ(heap.events, ladder.events) << "single shard heap vs ladder event count";
    // The sharded runs alternate backends across cases.
    const netsim::EvqBackend backend =
        i % 2 == 0 ? netsim::EvqBackend::kLadder : netsim::EvqBackend::kHeap;
    EXPECT_EQ(heap.fingerprint, run_sharded(c, 0, 2, backend)) << "num_shards=0 threads=2";
    EXPECT_EQ(heap.fingerprint, run_sharded(c, 2, 1, backend)) << "num_shards=2 threads=1";
  }
}

TEST(DeterminismFuzz, ChurnInvariantAcrossThreadsBackends) {
  constexpr std::uint64_t kMaster = 0x434855524e'5aULL;
  for (int i = 0; i < 10; ++i) {
    SCOPED_TRACE("churn case " + std::to_string(i));
    Rng rng(Rng::derive(Rng::derive(kMaster, "churn-case"), static_cast<std::uint64_t>(i)));
    workload::ChurnConfig cfg;
    cfg.num_pairs = static_cast<std::size_t>(rng.uniform_int(2, 4));
    cfg.duration = sec(2);
    cfg.arrivals.kind = rng.bernoulli(0.5) ? workload::ArrivalKind::kPoisson
                                           : workload::ArrivalKind::kPareto;
    cfg.arrivals.sessions_per_sec = rng.uniform(10.0, 30.0);
    cfg.packets_per_second = rng.uniform(50.0, 100.0);
    cfg.max_session_packets = 60;
    cfg.scenario.seed = rng.next_u64();
    cfg.num_shards = 0;  // FIXED (one shard per group): sketch merge order depends on it.
    if (rng.bernoulli(0.3)) cfg.scenario.failover.enabled = true;
    if (rng.bernoulli(0.3)) {
      cfg.scenario.faults.link_down("direct:0", msec(700), msec(500));
    }

    auto run = [&](unsigned threads, netsim::EvqBackend backend) {
      const EvqBackendGuard evq(backend);
      workload::ChurnConfig c = cfg;
      c.num_threads = threads;
      const workload::ChurnResult r = workload::run_churn(c);
      EXPECT_GT(r.shards_used, 1u) << "one shard: the thread-count comparison is vacuous";
      return r.fingerprint();
    };
    const std::uint64_t ref = run(1, netsim::EvqBackend::kHeap);
    EXPECT_EQ(ref, run(1, netsim::EvqBackend::kLadder)) << "threads=1 ladder";
    EXPECT_EQ(ref, run(2, netsim::EvqBackend::kHeap)) << "threads=2 heap";
    EXPECT_EQ(ref, run(3, netsim::EvqBackend::kLadder)) << "threads=3 ladder";
  }
}

TEST(DeterminismFuzz, IncastAqmInvariantAcrossBackends) {
  // AQM sweep: every queue discipline (with and without ECN) must drain the
  // fan-in identically under both event-queue backends.
  constexpr std::uint64_t kMaster = 0x494e43415354ULL;
  for (int i = 0; i < 6; ++i) {
    SCOPED_TRACE("incast case " + std::to_string(i));
    Rng rng(Rng::derive(kMaster, static_cast<std::uint64_t>(i)));
    exp::IncastParams p;
    p.senders = static_cast<std::size_t>(rng.uniform_int(4, 12));
    p.packets_per_sender = static_cast<std::size_t>(rng.uniform_int(16, 48));
    p.epochs = 2;
    p.ecn = rng.bernoulli(0.5);
    p.seed = rng.next_u64();
    switch (i % 3) {
      case 0: p.qdisc.kind = netsim::QdiscKind::kTailDrop; break;
      case 1: p.qdisc.kind = netsim::QdiscKind::kRed; break;
      default: p.qdisc.kind = netsim::QdiscKind::kCoDel; break;
    }

    auto fp = [&](netsim::EvqBackend backend) {
      exp::IncastScenario sc(p, backend);
      const exp::IncastResult r = sc.run();
      std::uint64_t h = 14695981039346656037ULL;
      for (std::uint64_t v : {r.sent, r.delivered, r.ce_marked,
                              r.bottleneck.delivered_packets, r.bottleneck.queue_drops,
                              r.bottleneck.ecn_marked, r.events_processed,
                              static_cast<std::uint64_t>(r.end_time)}) {
        fnv(h, v);
      }
      for (double d : r.epoch_drain_ms) fnv_d(h, d);
      return h;
    };
    EXPECT_EQ(fp(netsim::EvqBackend::kHeap), fp(netsim::EvqBackend::kLadder));
  }
}

TEST(DeterminismFuzz, TcpCcWorkloadsInvariantAcrossBackends) {
  // Congestion-control sweep: each CC kind's full FCT trace over a lossy
  // path must be bit-identical under both backends.
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE("cc case " + std::to_string(i));
    Rng rng(Rng::derive(0x54435043ULL, static_cast<std::uint64_t>(i)));
    transport::TcpParams tcp;
    tcp.cc = static_cast<transport::CcKind>(i % 3);
    const std::uint64_t seed = rng.next_u64();

    auto fp = [&](netsim::EvqBackend backend) {
      const EvqBackendGuard evq(backend);
      netsim::Simulator sim;
      netsim::Network net(sim);
      Rng loss_rng(seed);
      endpoint::Sender server(net);
      endpoint::ReceiverConfig rc;
      rc.rtt_estimate = msec(80);
      rc.recovery_give_up = msec(100);
      endpoint::Receiver client(net, rc);
      net.add_link(server.id(), client.id(), netsim::make_fixed_latency(msec(40)),
                   netsim::make_bernoulli_loss(0.01, loss_rng.fork("fwd")));
      net.add_link(client.id(), server.id(), netsim::make_fixed_latency(msec(40)),
                   netsim::make_bernoulli_loss(0.002, loss_rng.fork("rev")));
      endpoint::SessionManager sessions(std::make_shared<services::FlowRegistry>());
      endpoint::RegisterRequest req;
      req.force_service = ServiceType::kNone;
      req.delays.y_ms = 40.0;
      app::WebWorkloadParams wp;
      wp.requests = 8;
      wp.response_bytes = 20 * 1000;
      wp.tcp = tcp;
      const app::WebResult r = app::run_web_workload(net, server, client, sessions, req, wp);
      std::uint64_t h = 14695981039346656037ULL;
      fnv(h, r.completed);
      fnv(h, r.acks);
      fnv(h, r.server.retransmits);
      fnv(h, r.server.timeouts);
      fnv(h, r.server.fast_retransmits);
      for (double d : r.fct_ms.values()) fnv_d(h, d);
      return h;
    };
    EXPECT_EQ(fp(netsim::EvqBackend::kHeap), fp(netsim::EvqBackend::kLadder));
  }
}

}  // namespace
}  // namespace jqos
