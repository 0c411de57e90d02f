// Fault-injection layer and graceful degradation: FaultPlan scheduling,
// FaultInjector link/node faults, plan validation at shard boundaries,
// crash-epoch guards on recovery timers, loss-episode classification
// (Figure 8(b)), and the churn-level acceptance contract -- a DC2 crash
// covering the whole run completes >= 90% of sessions via direct-path
// failover where the same workload without failover logic completes almost
// none, bit-identically across thread counts and event-queue backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exp/scenario.h"
#include "fec/coded_batch.h"
#include "geo/path_dataset.h"
#include "netsim/event_queue.h"
#include "netsim/faults.h"
#include "netsim/loss_model.h"
#include "netsim/network.h"
#include "overlay/datacenter.h"
#include "services/coding/recovery_dc.h"
#include "workload/churn.h"
#include "coding_reference.h"
#include "test_guards.h"

namespace jqos {
namespace {

using jqos::testing::reference_encode;

// ------------------------------------------------------------- plan windows

TEST(FaultPlan, LinkFlapsMaterializeTheOutageProcess) {
  // link_flaps must schedule exactly the windows outage_windows() derives
  // for the same (seed, target) stream -- the bridge that lets a wall-clock
  // outage process and a fault-layer flap schedule agree packet-for-packet.
  netsim::OutageParams params;
  params.mean_interval = sec(20);
  params.min_len = msec(500);
  params.max_len = sec(2);
  const SimTime horizon = sec(120);

  netsim::FaultPlan plan(42);
  plan.link_flaps("direct:0", params, horizon);
  const auto from_plan = plan.windows_for("direct:0");
  const auto expected =
      netsim::outage_windows(params, Rng(Rng::derive(42, "direct:0")), horizon);

  ASSERT_EQ(from_plan.size(), expected.size());
  ASSERT_GT(from_plan.size(), 2u);  // The horizon spans several outages.
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(from_plan[i].start, expected[i].start);
    EXPECT_EQ(from_plan[i].end, expected[i].end);
  }
}

TEST(FaultPlan, OutageWindowsMatchRealizedDrops) {
  // outage_windows(params, rng) must predict make_outage_over(params, rng)
  // exactly: probing the live model on a fine grid drops precisely inside
  // the precomputed windows.
  netsim::OutageParams params;
  params.mean_interval = sec(15);
  params.min_len = msec(400);
  params.max_len = sec(1);
  const SimTime horizon = sec(90);

  const auto windows = netsim::outage_windows(params, Rng(99), horizon);
  ASSERT_GT(windows.size(), 1u);
  auto model = netsim::make_outage_over(netsim::make_no_loss(), params, Rng(99));

  std::size_t drops = 0;
  for (SimTime t = 0; t < horizon; t += msec(1)) {
    const bool in_window = std::any_of(
        windows.begin(), windows.end(),
        [t](const netsim::OutageWindow& w) { return t >= w.start && t < w.end; });
    EXPECT_EQ(model->should_drop(t), in_window) << "at t=" << t;
    drops += in_window;
  }
  EXPECT_GT(drops, 0u);
}

// --------------------------------------------------------- injector + links

// Minimal sink recording arrival times.
struct Sink final : netsim::Node {
  explicit Sink(netsim::Network& net) : id_(net.allocate_id()) { net.attach(*this); }
  NodeId id() const override { return id_; }
  void handle_packet(const PacketPtr&) override { arrivals.push_back(now_fn()); }
  NodeId id_;
  std::function<SimTime()> now_fn;
  std::vector<SimTime> arrivals;
};

struct LinkFaultFixture {
  netsim::Simulator sim;
  netsim::Network net{sim};
  Sink src{net};
  Sink dst{net};
  netsim::Link* link = nullptr;
  netsim::FaultInjector injector{sim};

  explicit LinkFaultFixture(SimDuration latency = msec(10)) {
    dst.now_fn = [this] { return sim.now(); };
    link = &net.add_link(src.id(), dst.id(), netsim::make_fixed_latency(latency),
                         netsim::make_no_loss());
    injector.bind_link("direct:0", link);
  }

  void send_at(SimTime t) {
    sim.after(t, [this] {
      auto pkt = std::make_shared<Packet>();
      pkt->src = src.id();
      pkt->dst = dst.id();
      pkt->payload.assign(100, 1);
      net.send(src.id(), pkt);
    });
  }
};

TEST(FaultInjector, LinkDownDropsAreCountedSeparately) {
  LinkFaultFixture f;
  netsim::FaultPlan plan;
  plan.link_down("direct:0", sec(1), sec(1));  // Down over [1s, 2s).
  f.injector.arm(plan);
  f.send_at(msec(500));
  f.send_at(msec(1500));
  f.send_at(msec(2500));
  f.sim.run();

  EXPECT_EQ(f.dst.arrivals.size(), 2u);
  const auto& st = f.link->stats();
  EXPECT_EQ(st.fault_drops, 1u);
  EXPECT_EQ(st.dropped_packets, 0u);  // Not conflated with loss-model drops.
  EXPECT_EQ(st.delivered_packets, 2u);
  EXPECT_EQ(f.injector.stats().link_downs, 1u);
}

TEST(FaultInjector, BrownoutAddsLatencyThenClears) {
  LinkFaultFixture f(msec(10));
  netsim::FaultPlan plan;
  plan.link_brownout("direct:0", sec(1), sec(1),
                     netsim::BrownoutProfile{0.0, msec(40)});
  f.injector.arm(plan);
  f.send_at(msec(500));   // Before: plain 10 ms.
  f.send_at(msec(1500));  // During: 10 + 40 ms.
  f.send_at(msec(2500));  // After: back to 10 ms.
  f.sim.run();

  ASSERT_EQ(f.dst.arrivals.size(), 3u);
  EXPECT_EQ(f.dst.arrivals[0], msec(510));
  EXPECT_EQ(f.dst.arrivals[1], msec(1550));
  EXPECT_EQ(f.dst.arrivals[2], msec(2510));
  EXPECT_EQ(f.link->stats().fault_drops, 0u);
  EXPECT_EQ(f.injector.stats().brownouts, 1u);
}

TEST(FaultInjector, BrownoutLossIsCountedAsFaultDrops) {
  LinkFaultFixture f;
  netsim::FaultPlan plan;
  plan.link_brownout("direct:0", sec(1), sec(1),
                     netsim::BrownoutProfile{1.0, 0});  // Certain drop.
  f.injector.arm(plan);
  f.send_at(msec(500));
  f.send_at(msec(1500));
  f.sim.run();

  EXPECT_EQ(f.dst.arrivals.size(), 1u);
  EXPECT_EQ(f.link->stats().fault_drops, 1u);
  EXPECT_EQ(f.link->stats().dropped_packets, 0u);
}

TEST(FaultInjector, SkipsUnboundTargetsAndCountsThem) {
  // Shard safety: arming a plan whose targets live in another shard is a
  // counted no-op, so every shard can arm the full plan.
  netsim::Simulator sim;
  netsim::FaultInjector injector(sim);
  netsim::FaultPlan plan;
  plan.link_down("direct:7", sec(1), sec(1));
  plan.node_crash("dc:ELSEWHERE", sec(1), sec(1));
  injector.arm(plan);
  EXPECT_EQ(injector.stats().skipped_unbound, 2u);
  EXPECT_EQ(injector.stats().link_downs, 0u);
  EXPECT_EQ(injector.stats().node_crashes, 0u);
  sim.run();  // Nothing scheduled.
}

// ---------------------------------------------------------------- DC crash

TEST(FaultInjector, NodeCrashBlackholesThenRestartsCold) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  overlay::DataCenter dc(net, 1, "FRA");
  netsim::FaultInjector injector(sim);
  injector.bind_node("dc:FRA", &dc);
  netsim::FaultPlan plan;
  plan.node_crash("dc:FRA", sec(1), sec(1));
  injector.arm(plan);

  std::vector<std::pair<SimTime, bool>> observed;  // (time, down) samples.
  auto probe = [&](SimTime t) {
    sim.after(t, [&] {
      if (dc.down()) {
        auto pkt = std::make_shared<Packet>();
        pkt->dst = dc.id();
        dc.handle_packet(pkt);  // Black-holed, counted.
      }
      observed.emplace_back(sim.now(), dc.down());
    });
  };
  probe(msec(500));
  probe(msec(1500));
  probe(msec(2500));
  sim.run();

  ASSERT_EQ(observed.size(), 3u);
  EXPECT_FALSE(observed[0].second);
  EXPECT_TRUE(observed[1].second);
  EXPECT_FALSE(observed[2].second);
  EXPECT_EQ(dc.crashes(), 1u);
  EXPECT_EQ(dc.fault_dropped_packets(), 1u);
  EXPECT_EQ(injector.stats().node_crashes, 1u);
}

// ---------------------------------------------------------- plan validation

TEST(FaultPlanValidation, AcceptsInGroupTargetsRejectsEverythingElse) {
  Rng rng(3);
  const auto paths = geo::planetlab_paths(4, rng);

  netsim::FaultPlan good;
  good.node_crash("dc:" + paths[0].dc2.name, sec(1), sec(1));
  good.link_down("link:" + paths[0].dc1.name + ">" + paths[0].dc2.name, sec(1), sec(1));
  good.link_down("direct:3", sec(1), sec(1));
  EXPECT_NO_THROW(exp::validate_fault_plan(good, paths));

  auto rejects = [&paths](const std::string& target) {
    netsim::FaultPlan p;
    p.link_down(target, sec(1), sec(1));
    EXPECT_THROW(exp::validate_fault_plan(p, paths), std::invalid_argument)
        << "target not rejected: " << target;
  };
  rejects("dc:NO_SUCH_SITE");
  rejects("direct:99");      // Out of range.
  rejects("direct:zero");    // Malformed index.
  rejects("bogus:thing");    // Unknown namespace.
  rejects("link:" + paths[0].dc1.name);  // Malformed: no '>'.

  // A shard built from plain paths validates its plan the same way.
  exp::WanScenarioParams params;
  params.faults = good;
  EXPECT_NO_THROW(exp::ScenarioShard(paths, params));
  params.faults = netsim::FaultPlan{};
  params.faults.node_crash("dc:NO_SUCH_SITE", sec(1), sec(1));
  EXPECT_THROW(exp::ScenarioShard(paths, params), std::invalid_argument);

  // A link between sites of different interaction groups crosses a shard
  // boundary; find a cross pairing that is not itself a group and reject it.
  std::set<std::pair<std::string, std::string>> groups;
  for (const auto& p : paths) {
    groups.insert(std::minmax(p.dc1.name, p.dc2.name));
  }
  for (const auto& a : paths) {
    for (const auto& b : paths) {
      if (groups.count(std::minmax(a.dc1.name, b.dc2.name))) continue;
      rejects("link:" + a.dc1.name + ">" + b.dc2.name);
      return;
    }
  }
  GTEST_SKIP() << "every site pairing is a group; no cross-group link exists";
}

// ---------------------------------------------- recovery epoch guard (ASan)

struct RecoveryCrashFixture {
  netsim::Simulator sim;
  netsim::Network net{sim};
  overlay::DataCenter dc2{net, 2, "dc2"};
  services::FlowRegistryPtr registry = std::make_shared<services::FlowRegistry>();
  std::shared_ptr<services::RecoveryService> recovery;
  std::vector<std::unique_ptr<Sink>> peers;

  RecoveryCrashFixture() {
    services::RecoveryParams params;
    params.coop_deadline = msec(50);
    recovery = std::make_shared<services::RecoveryService>(dc2, params, registry);
    dc2.install(recovery);
  }

  // One stored cross-coded batch over k flows, one peer receiver each.
  void make_batch(std::size_t k, std::uint32_t batch_id) {
    std::vector<PacketPtr> data_pkts;
    for (FlowId f = 1; f <= k; ++f) {
      auto peer = std::make_unique<Sink>(net);
      peer->now_fn = [this] { return sim.now(); };
      net.add_link(dc2.id(), peer->id(), netsim::make_fixed_latency(msec(5)),
                   netsim::make_no_loss());
      net.add_link(peer->id(), dc2.id(), netsim::make_fixed_latency(msec(5)),
                   netsim::make_no_loss());
      auto p = std::make_shared<Packet>();
      p->flow = f;
      p->seq = 1;
      p->payload.assign(48, static_cast<std::uint8_t>(f));
      registry->register_flow(f, services::FlowInfo{dc2.id(), peer->id()});
      peers.push_back(std::move(peer));
      data_pkts.push_back(std::move(p));
    }
    for (const auto& c :
         reference_encode(data_pkts, 1, PacketType::kCrossCoded, batch_id, 1, dc2.id(), 0)) {
      auto copy = std::make_shared<Packet>(*c);
      copy->service = ServiceType::kCode;
      dc2.handle_packet(copy);
    }
  }

  void nack(FlowId flow) {
    NackInfo info;
    info.missing = {1};
    auto pkt = std::make_shared<Packet>();
    pkt->type = PacketType::kNack;
    pkt->service = ServiceType::kCode;
    pkt->flow = flow;
    pkt->seq = 1;
    pkt->src = peers[flow - 1]->id();
    pkt->dst = dc2.id();
    pkt->payload = info.serialize();
    dc2.handle_packet(pkt);
  }
};

TEST(RecoveryFault, CrashMidCoopOpLeavesNoDanglingTimer) {
  // The ASan regression: a cooperative-recovery deadline armed before the
  // crash must not touch wiped state when the wipe happens mid-op. The run
  // itself is the assertion -- under ASan a use-after-free aborts.
  RecoveryCrashFixture f;
  f.make_batch(3, 100);
  f.sim.after(msec(10), [&f] { f.nack(1); });  // Opens a coop op, deadline 60 ms.
  f.sim.after(msec(30), [&f] { f.dc2.fault_crash(); });
  f.sim.after(msec(200), [&f] { f.dc2.fault_restart(); });
  f.sim.run();

  EXPECT_EQ(f.recovery->stats().crash_wipes, 1u);
  EXPECT_EQ(f.recovery->epoch(), 1u);
}

TEST(RecoveryFault, StaleEpochTimerIsCountedNoOp) {
  // Belt (cancel) and suspenders (epoch guard): even a deadline that
  // somehow survives cancellation must see the epoch mismatch and bail.
  RecoveryCrashFixture f;
  f.make_batch(3, 100);
  f.sim.after(msec(10), [&f] { f.nack(1); });
  f.sim.after(msec(30), [&f] { f.dc2.fault_crash(); });
  f.sim.run();

  const std::uint64_t before = f.recovery->stats().stale_timers;
  f.recovery->debug_fire_deadline(100, 0);  // Pre-crash epoch.
  EXPECT_EQ(f.recovery->stats().stale_timers, before + 1);
  f.recovery->debug_fire_deadline(100, f.recovery->epoch());  // Fresh epoch,
  EXPECT_EQ(f.recovery->stats().stale_timers, before + 1);    // unknown batch: safe.
}

// ------------------------------------------- loss episodes vs Figure 8(b)

TEST(LossEpisodes, GilbertElliottPlusOutagesMatchFigureClasses) {
  // Figure 8(b) classifies loss episodes into Random (1 packet),
  // Multi-Packet (2-14) and Outage (> 14, lasting 1-3 s). Layering the
  // outage process over Gilbert-Elliott must reproduce all three classes
  // with the right shape: singles dominate, bursts decay within the
  // multi-packet band, and >14 episodes come only from outage windows
  // (hundreds of packets at 1 ms spacing), never from GE bursts.
  netsim::GilbertElliottParams ge;  // Paper-ish defaults.
  netsim::OutageParams outages;
  outages.mean_interval = sec(60);
  outages.min_len = sec(1);
  outages.max_len = sec(3);
  auto model = netsim::make_outage_over(
      netsim::make_gilbert_elliott(ge, Rng(11)), outages, Rng(12));

  std::size_t random = 0, multi = 0, outage = 0, run = 0;
  std::size_t short_multi = 0, long_multi = 0;  // Lengths 2-4 vs 10-14.
  std::vector<std::size_t> outage_lens;
  auto close_run = [&] {
    if (run == 0) return;
    if (run == 1) {
      ++random;
    } else if (run <= 14) {
      ++multi;
      if (run <= 4) ++short_multi;
      if (run >= 10) ++long_multi;
    } else {
      ++outage;
      outage_lens.push_back(run);
    }
    run = 0;
  };
  for (SimTime t = 0; t < sec(600); t += msec(1)) {
    if (model->should_drop(t)) {
      ++run;
    } else {
      close_run();
    }
  }
  close_run();

  EXPECT_GT(random, 50u);
  EXPECT_GT(multi, 50u);
  EXPECT_GT(short_multi, long_multi);  // Burst lengths decay geometrically.
  // ~10 outages expected (600 s / 60 s mean); allow a wide Poisson band.
  EXPECT_GE(outage, 3u);
  EXPECT_LE(outage, 25u);
  for (const std::size_t len : outage_lens) {
    EXPECT_GE(len, 500u) << "an >14 episode short of an outage window";
    EXPECT_LE(len, 7000u);  // A couple of overlapping 3 s outages at most.
  }
}

// ----------------------------------------------------- churn acceptance

// The DC2-crash acceptance workload: path-switched sessions (kForward, no
// direct copies) with every recovery DC crashed from 200 ms to far beyond
// the end of the run.
workload::ChurnConfig crashed_churn(bool failover) {
  workload::ChurnConfig cfg;
  cfg.num_pairs = 4;
  cfg.duration = sec(12);
  cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
  cfg.arrivals.sessions_per_sec = 40.0;
  cfg.mix = workload::AppMix::kWebTransfer;
  cfg.packets_per_second = 100.0;
  cfg.payload_bytes = 1472;
  cfg.max_session_packets = 120;
  cfg.scenario.seed = 77;
  cfg.num_shards = 2;  // FIXED: sketch merge order depends on it.
  cfg.num_threads = 1;
  cfg.scenario.service = ServiceType::kForward;
  cfg.scenario.send_direct = false;
  cfg.scenario.failover.enabled = failover;
  cfg.scenario.failover.data_silence = msec(300);

  // The churn geography is a pure function of the seed; derive it the same
  // way to learn the DC2 site names the plan must crash.
  Rng geo_rng(Rng::derive(cfg.scenario.seed, "churn-paths"));
  std::set<std::string> sites;
  for (const auto& p : geo::planetlab_paths(cfg.num_pairs, geo_rng)) {
    sites.insert(p.dc2.name);
  }
  netsim::FaultPlan plan(cfg.scenario.seed);
  for (const std::string& s : sites) plan.node_crash("dc:" + s, msec(200), sec(600));
  // A flapping direct link exercises the link-fault path in the same run.
  netsim::OutageParams flaps;
  flaps.mean_interval = sec(6);
  flaps.min_len = msec(200);
  flaps.max_len = msec(800);
  plan.link_flaps("direct:0", flaps, cfg.duration);
  cfg.scenario.faults = plan;
  return cfg;
}

TEST(FaultChurn, Dc2CrashFailsOverToDirectAndSucceeds) {
  // The ISSUE's acceptance criterion: with every DC2 down for essentially
  // the whole run, >= 90% of sessions still deliver >= 90% of their packets
  // -- purely via overlay-death detection and direct-path failover --
  // where the identical workload without failover logic completes almost
  // nothing.
  const workload::ChurnResult with = workload::run_churn(crashed_churn(true));
  ASSERT_GT(with.totals.sessions_completed, 300u);
  EXPECT_EQ(with.totals.leaked_flows, 0u);
  EXPECT_GE(static_cast<double>(with.totals.sessions_succeeded),
            0.90 * static_cast<double>(with.totals.sessions_completed));
  EXPECT_GE(with.faults.failovers, 4u);  // Every path declared death.
  EXPECT_GT(with.faults.failover_direct_sent, 0u);
  EXPECT_GT(with.faults.probes_sent, 0u);
  EXPECT_GT(with.faults.link_fault_drops, 0u);  // The flapping direct link.
  // One crash per distinct DC2 site (sites may be shared across paths).
  Rng geo_rng(Rng::derive(77, "churn-paths"));
  std::set<std::string> sites;
  for (const auto& p : geo::planetlab_paths(4, geo_rng)) sites.insert(p.dc2.name);
  EXPECT_EQ(with.faults.total_dc_crashes(), sites.size());
  // Every path's first transition is DOWN, within ~1.5 s of the crash.
  std::set<std::size_t> seen;
  for (const auto& ev : with.failover_events) {
    if (!seen.insert(ev.path).second) continue;
    EXPECT_FALSE(ev.up);
    EXPECT_LE(ev.at, msec(1700));
  }
  EXPECT_EQ(seen.size(), 4u);

  const workload::ChurnResult without = workload::run_churn(crashed_churn(false));
  EXPECT_EQ(without.totals.sessions_completed, with.totals.sessions_completed);
  EXPECT_LE(static_cast<double>(without.totals.sessions_succeeded),
            0.05 * static_cast<double>(without.totals.sessions_completed));
  EXPECT_EQ(without.faults.failovers, 0u);
}

TEST(FaultChurn, FingerprintBitIdenticalAcrossThreadCounts) {
  // The determinism pin from the ISSUE: an identical FaultPlan + seed is
  // bit-identical across JQOS_SIM_THREADS in {1, 3, auto} at fixed
  // num_shards -- fault events, failover transitions and all.
  workload::ChurnConfig cfg = crashed_churn(true);
  cfg.num_threads = 1;
  const std::uint64_t fp1 = workload::run_churn(cfg).fingerprint();
  cfg.num_threads = 3;
  const std::uint64_t fp3 = workload::run_churn(cfg).fingerprint();
  cfg.num_threads = 0;  // JQOS_SIM_THREADS / hardware default.
  const std::uint64_t fp_auto = workload::run_churn(cfg).fingerprint();
  EXPECT_EQ(fp1, fp3);
  EXPECT_EQ(fp1, fp_auto);
}

TEST(FaultChurn, FingerprintBitIdenticalAcrossEventQueueBackends) {
  std::uint64_t fp_ladder = 0, fp_heap = 0;
  {
    const jqos::testing::EvqBackendGuard guard(netsim::EvqBackend::kLadder);
    fp_ladder = workload::run_churn(crashed_churn(true)).fingerprint();
  }
  {
    const jqos::testing::EvqBackendGuard guard(netsim::EvqBackend::kHeap);
    fp_heap = workload::run_churn(crashed_churn(true)).fingerprint();
  }
  EXPECT_EQ(fp_ladder, fp_heap);
}

}  // namespace
}  // namespace jqos
