// Fault-injection bench: graceful degradation of the overlay under DC
// crashes, direct-path link failures, brownouts, and flapping links.
//
// Each scenario drives the churn workload (src/workload) through a
// declarative netsim::FaultPlan and reports one JSON Lines row (--json):
// sessions completed/succeeded, fault-layer counters, time-to-detect and
// time-to-re-engage for overlay death, and completion-time quantiles split
// by whether a session's lifetime overlapped a fault window.
//
// The headline pair is dc2_crash_failover vs dc2_crash_nofailover: with
// every recovery DC crashed for the middle third of the run, path-switched
// sessions survive only by detecting overlay death and failing over to the
// direct Internet path. CI gates on the failover row keeping success_pct
// high while the nofailover row visibly degrades, on fault_drops being
// accounted, and on the sessions_per_sec throughput field.
//
// --quick shrinks the workload for the CI smoke lane.
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "bench_json.h"
#include "exp/report.h"
#include "geo/path_dataset.h"
#include "workload/churn.h"

namespace {

using namespace jqos;

struct Spec {
  const char* mode;
  std::size_t num_pairs;
  double sessions_per_sec;  // Aggregate arrival rate.
  SimDuration duration;     // Arrival window; faults live inside it.
};

workload::ChurnConfig base_config(const Spec& spec) {
  workload::ChurnConfig cfg;
  cfg.num_pairs = spec.num_pairs;
  cfg.duration = spec.duration;
  cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
  cfg.arrivals.sessions_per_sec = spec.sessions_per_sec;
  cfg.mix = workload::AppMix::kWebTransfer;
  cfg.payload_bytes = 512;
  cfg.packets_per_second = 50.0;
  cfg.max_session_packets = 200;
  cfg.scenario.seed = 7;
  return cfg;
}

// The distinct recovery-DC (DC2) site names the churn geography will use:
// replicates run_churn's path derivation, which is a pure function of the
// scenario seed.
std::set<std::string> dc2_sites(const workload::ChurnConfig& cfg) {
  Rng geo_rng(Rng::derive(cfg.scenario.seed, "churn-paths"));
  auto paths = geo::planetlab_paths(cfg.num_pairs, geo_rng);
  std::set<std::string> sites;
  for (const auto& p : paths) sites.insert(p.dc2.name);
  return sites;
}

double first_down_ms(const workload::ChurnResult& r, SimTime from) {
  for (const auto& ev : r.failover_events) {
    if (!ev.up && ev.at >= from) return to_ms(ev.at - from);
  }
  return std::nan("");
}

double first_up_ms(const workload::ChurnResult& r, SimTime from) {
  for (const auto& ev : r.failover_events) {
    if (ev.up && ev.at >= from) return to_ms(ev.at - from);
  }
  return std::nan("");
}

void run_case(const char* scenario, const Spec& spec, const workload::ChurnConfig& cfg,
              SimTime crash_at, SimTime restart_at, bool json) {
  const auto t0 = std::chrono::steady_clock::now();
  workload::ChurnResult r = workload::run_churn(cfg);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const double sessions_per_sec =
      wall_s > 0.0 ? static_cast<double>(r.totals.sessions_completed) / wall_s : 0.0;
  const double success_pct =
      r.totals.sessions_completed > 0
          ? 100.0 * static_cast<double>(r.totals.sessions_succeeded) /
                static_cast<double>(r.totals.sessions_completed)
          : 0.0;
  const double detect_ms = crash_at > 0 ? first_down_ms(r, crash_at) : std::nan("");
  const double reengage_ms = restart_at > 0 ? first_up_ms(r, restart_at) : std::nan("");

  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, r.fingerprint());
  if (json) {
    bench::JsonRow("faults")
        .add("name", "faults")
        .add("scenario", scenario)
        .add("mode", spec.mode)
        .add("sessions", r.totals.sessions_completed)
        .add("succeeded", r.totals.sessions_succeeded)
        .add("success_pct", success_pct)
        .add("packets", r.totals.packets_sent)
        .add("sessions_per_sec", sessions_per_sec)
        .add("wall_s", wall_s)
        .add("fault_drops", r.faults.link_fault_drops)
        .add("dc_fault_dropped", r.faults.dc_fault_dropped)
        .add("dc_crashes", r.faults.total_dc_crashes())
        .add("failovers", r.faults.failovers)
        .add("reengages", r.faults.reengages)
        .add("probes_sent", r.faults.probes_sent)
        .add("failover_detect_ms", detect_ms)
        .add("reengage_ms", reengage_ms)
        .add("p50_completion_in_fault_ms", r.completion_in_fault_ms.quantile(0.5))
        .add("p99_completion_in_fault_ms", r.completion_in_fault_ms.quantile(0.99))
        .add("p50_completion_clear_ms", r.completion_clear_ms.quantile(0.5))
        .add("p99_completion_clear_ms", r.completion_clear_ms.quantile(0.99))
        .add("leaked_flows", r.totals.leaked_flows)
        .add("events", r.events)
        .add("shards", static_cast<std::uint64_t>(r.shards_used))
        .add("threads", static_cast<std::uint64_t>(r.threads_used))
        .add("fingerprint", fp)
        .emit();
  } else {
    std::printf(
        "faults %-22s sessions=%" PRIu64 " succeeded=%" PRIu64
        " (%.1f%%, %.0f/s wall)\n"
        "  fault_drops=%" PRIu64 " dc_dropped=%" PRIu64 " crashes=%" PRIu64
        " failovers=%" PRIu64 " reengages=%" PRIu64 " detect=%.1fms reengage=%.1fms\n"
        "  completion p50 in-fault/clear = %.1f / %.1f ms  leaked=%" PRIu64 " fp=%s\n",
        scenario, r.totals.sessions_completed, r.totals.sessions_succeeded, success_pct,
        sessions_per_sec, r.faults.link_fault_drops, r.faults.dc_fault_dropped,
        r.faults.total_dc_crashes(), r.faults.failovers, r.faults.reengages, detect_ms,
        reengage_ms, r.completion_in_fault_ms.quantile(0.5),
        r.completion_clear_ms.quantile(0.5), r.totals.leaked_flows, fp);
    exp::print_fault_summary(scenario, r.faults);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::want_json(argc, argv);
  const bool quick = bench::want_flag(argc, argv, "--quick");
  const Spec spec =
      quick ? Spec{"quick", 6, 120.0, sec(30)} : Spec{"full", 24, 600.0, sec(90)};

  const SimTime crash_at = spec.duration / 3;
  const SimTime restart_at = 2 * spec.duration / 3;
  const SimDuration crash_len = restart_at - crash_at;

  // --- dc2_crash: every recovery DC down for the middle third ---
  // Path switching (kForward, no direct copies): sessions survive the crash
  // window only via overlay-death detection + direct-path failover.
  {
    workload::ChurnConfig cfg = base_config(spec);
    cfg.scenario.service = ServiceType::kForward;
    cfg.scenario.send_direct = false;
    cfg.scenario.failover.enabled = true;
    netsim::FaultPlan plan(cfg.scenario.seed);
    for (const std::string& site : dc2_sites(cfg)) {
      plan.node_crash("dc:" + site, crash_at, crash_len);
    }
    cfg.scenario.faults = plan;
    run_case("dc2_crash_failover", spec, cfg, crash_at, restart_at, json);

    cfg.scenario.failover.enabled = false;
    run_case("dc2_crash_nofailover", spec, cfg, crash_at, restart_at, json);
  }

  // --- dc2_crash_code: NACK-silence detection with the coding service ---
  // Direct copies keep flowing; the crash kills recovery, so the win is
  // suppressed NACK/cloud traffic while down plus re-engagement after
  // restart (counted via failovers/reengages).
  {
    workload::ChurnConfig cfg = base_config(spec);
    cfg.scenario.service = ServiceType::kCode;
    cfg.scenario.failover.enabled = true;
    netsim::FaultPlan plan(cfg.scenario.seed);
    for (const std::string& site : dc2_sites(cfg)) {
      plan.node_crash("dc:" + site, crash_at, crash_len);
    }
    cfg.scenario.faults = plan;
    run_case("dc2_crash_code", spec, cfg, crash_at, restart_at, json);
  }

  // --- direct_faults: direct-path link down + brownout + flaps ---
  // The overlay carries sessions through direct-path failures: link 0 hard
  // down, link 1 browned out, link 2 flapping on a seeded outage process.
  {
    workload::ChurnConfig cfg = base_config(spec);
    cfg.scenario.service = ServiceType::kCode;
    netsim::FaultPlan plan(cfg.scenario.seed);
    plan.link_down("direct:0", crash_at, crash_len);
    if (cfg.num_pairs > 1) {
      plan.link_brownout("direct:1", crash_at, crash_len,
                         netsim::BrownoutProfile{0.10, msec(40)});
    }
    if (cfg.num_pairs > 2) {
      netsim::OutageParams flaps;
      flaps.mean_interval = sec(8);
      flaps.min_len = msec(500);
      flaps.max_len = sec(2);
      plan.link_flaps("direct:2", flaps, spec.duration);
    }
    cfg.scenario.faults = plan;
    run_case("direct_faults", spec, cfg, 0, 0, json);
  }

  return 0;
}
