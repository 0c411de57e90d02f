// Flow-churn soak: the million-session workload the dynamic session layer
// exists for (src/workload). Sessions arrive Poisson, transfer CDF-drawn
// web-mix sizes through the full J-QoS stack, and leave; delivery quality is
// summarized by O(1)-memory quantile sketches.
//
// Two properties are measured, both CI-gated:
//
//  * Throughput: sessions/second of wall-clock across all cores (the
//    "sessions_per_sec" field, tracked by scripts/bench_regression.py).
//  * O(active sessions) memory: the same process runs a 1x soak and then a
//    4x-longer soak; with leak-free teardown, peak RSS barely moves because
//    the active-session population -- not the session COUNT -- bounds the
//    footprint. The "rss_scaling" row reports the ratio (getrusage ru_maxrss
//    is monotone, so the 4x figure already includes the 1x warmup; a leak of
//    per-session state would push the ratio toward 4).
//
// Default mode runs the full >= 1M-session soak; --quick shrinks everything
// for the CI smoke lane. --json emits JSON Lines rows (see bench_json.h).
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "bench_json.h"
#include "common/alloc_probe.h"
#include "workload/churn.h"

namespace {

using namespace jqos;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct SoakSpec {
  const char* mode;
  std::size_t num_pairs;
  double sessions_per_sec;  // Aggregate arrival rate.
  SimDuration duration;
  std::uint32_t max_session_packets;
};

workload::ChurnConfig make_config(const SoakSpec& spec, SimDuration duration) {
  workload::ChurnConfig cfg;
  cfg.num_pairs = spec.num_pairs;
  cfg.duration = duration;
  cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
  cfg.arrivals.sessions_per_sec = spec.sessions_per_sec;
  cfg.mix = workload::AppMix::kWebTransfer;
  // MTU-sized payloads at 100 pps: a web-mix session is a short burst, so
  // the longest session (max_session_packets) stays well inside the soak
  // and the active population plateaus early -- the precondition for the
  // peak-RSS comparison to mean anything.
  cfg.payload_bytes = 1472;
  cfg.packets_per_second = 100.0;
  cfg.max_session_packets = spec.max_session_packets;
  cfg.scenario.seed = 42;
  return cfg;
}

workload::ChurnResult run_soak(const SoakSpec& spec, SimDuration duration, bool json,
                               const char* label) {
  // Per-soak global-allocator hits, amortized over every packet the soak
  // pushed. The pooled steady state is literally zero (the CI-run
  // steady_state_alloc_test asserts that); a whole soak also pays one-time
  // scenario construction and pool fill, so the figure here is a small
  // fraction that bench_regression.py gates lower-is-better. Counts are
  // real only when the alloc probe owns the heap (not under sanitizers).
  alloc_probe::reset();
  const auto t0 = std::chrono::steady_clock::now();
  workload::ChurnResult r = workload::run_churn(make_config(spec, duration));
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const std::uint64_t allocs = alloc_probe::allocations();
  const double allocs_per_packet =
      r.totals.packets_sent > 0
          ? static_cast<double>(allocs) / static_cast<double>(r.totals.packets_sent)
          : 0.0;
  const double sessions_per_sec =
      wall_s > 0.0 ? static_cast<double>(r.totals.sessions_completed) / wall_s : 0.0;
  const double rss = peak_rss_mb();

  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, r.fingerprint());
  if (json) {
    bench::JsonRow row("churn");
    row.add("name", "churn")
        .add("mode", spec.mode)
        .add("soak", label)
        .add("sessions", static_cast<std::uint64_t>(r.totals.sessions_completed))
        .add("packets", static_cast<std::uint64_t>(r.totals.packets_sent))
        .add("sessions_per_sec", sessions_per_sec)
        .add("wall_s", wall_s)
        .add("p50_completion_ms", r.completion_ms.quantile(0.5))
        .add("p99_completion_ms", r.completion_ms.quantile(0.99))
        .add("p999_completion_ms", r.completion_ms.quantile(0.999))
        .add("p50_delivered_pct", r.delivered_pct.quantile(0.5))
        .add("p99_recovery_ms", r.recovery_ms.quantile(0.99))
        .add("leaked_flows", static_cast<std::uint64_t>(r.totals.leaked_flows))
        .add("events", static_cast<std::uint64_t>(r.events))
        .add("shards", static_cast<std::uint64_t>(r.shards_used))
        .add("threads", static_cast<std::uint64_t>(r.threads_used))
        .add("peak_rss_mb", rss)
        .add("fingerprint", fp);
    // Omitted (not zeroed) when the probe is stubbed out, so the regression
    // gate never compares a sanitizer row against a real count.
    if (alloc_probe::active()) row.add("allocs_per_packet", allocs_per_packet);
    row.emit();
  } else {
    char apx[32];
    if (alloc_probe::active()) {
      std::snprintf(apx, sizeof(apx), "%.4f", allocs_per_packet);
    } else {
      std::snprintf(apx, sizeof(apx), "n/a");
    }
    std::printf(
        "churn %-5s soak=%s sessions=%" PRIu64 " (%.0f/s wall) packets=%" PRIu64
        "\n  completion p50/p99/p99.9 = %.1f / %.1f / %.1f ms   delivered p50 = %.2f%%\n"
        "  leaked=%" PRIu64 " events=%" PRIu64 " shards=%zu threads=%u rss=%.1f MB"
        " allocs/pkt=%s fp=%s\n",
        spec.mode, label, r.totals.sessions_completed, sessions_per_sec,
        r.totals.packets_sent, r.completion_ms.quantile(0.5),
        r.completion_ms.quantile(0.99), r.completion_ms.quantile(0.999),
        r.delivered_pct.quantile(0.5), r.totals.leaked_flows, r.events, r.shards_used,
        r.threads_used, rss, apx, fp);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::want_json(argc, argv);
  const bool quick = bench::want_flag(argc, argv, "--quick");

  // Full mode: the 4x soak runs ~2000 sessions/s aggregate over 520
  // simulated seconds, crossing the million-session mark. Quick mode keeps
  // the identical structure at CI smoke scale.
  // Durations must comfortably exceed the warmup transient -- longest
  // session + linger + the recovery DC's 10 s batch TTL -- or the 1x peak
  // catches the population mid-ramp and the ratio reads high.
  const SoakSpec spec = quick ? SoakSpec{"quick", 8, 200.0, sec(20), 250}
                              : SoakSpec{"full", 45, 2000.0, sec(130), 300};

  // 1x soak, then a 4x soak in the SAME process: ru_maxrss is monotone, so
  // rss_4x / rss_1x stays near 1 iff memory is O(active sessions).
  run_soak(spec, spec.duration, json, "1x");
  const double rss_1x = peak_rss_mb();
  run_soak(spec, 4 * spec.duration, json, "4x");
  const double rss_4x = peak_rss_mb();
  const double ratio = rss_1x > 0.0 ? rss_4x / rss_1x : 0.0;

  if (json) {
    bench::JsonRow("churn")
        .add("name", "churn_rss_scaling")
        .add("mode", spec.mode)
        .add("rss_1x_mb", rss_1x)
        .add("rss_4x_mb", rss_4x)
        .add("ratio", ratio)
        .emit();
  } else {
    std::printf("rss scaling: 1x=%.1f MB  4x=%.1f MB  ratio=%.3f (flat == leak-free)\n",
                rss_1x, rss_4x, ratio);
  }
  return 0;
}
