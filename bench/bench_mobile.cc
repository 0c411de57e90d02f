// Section 6.5 reproduction: mobile-network feasibility of CR-WAN --
// duplication bandwidth vs LTE uplinks, battery overhead, cellular RTTs to
// the cloud, and recovery feasibility.
// Flags: --json emits the feasibility checks as one JSON Lines row.
#include <cstdio>

#include "app/mobile.h"
#include "bench_json.h"
#include "exp/report.h"

int main(int argc, char** argv) {
  using namespace jqos;
  const bool json = bench::want_json(argc, argv);
  if (!json) std::printf("== Section 6.5: J-QoS on mobile networks ==\n");

  Rng rng(2020);
  const app::MobileFeasibility f = app::evaluate_mobile(rng);

  const Samples rtts = app::mobile_rtt_samples(rng, 1000);
  if (json) {
    bench::JsonRow("mobile")
        .add("name", "feasibility")
        .add("dup_bitrate_mbps", f.dup_bitrate_mbps)
        .add("fits_typical_uplink", static_cast<std::int64_t>(f.dup_fits_typical_uplink))
        .add("fits_good_uplink", static_cast<std::int64_t>(f.dup_fits_good_uplink))
        .add("battery_overhead_pct", f.battery_overhead_percent)
        .add("rtt_p50_ms", f.rtt_p50_ms)
        .add("rtt_p90_ms", f.rtt_p90_ms)
        .add("recovery_latency_ms", f.recovery_latency_ms)
        .add("recovery_feasible_interactive",
             static_cast<std::int64_t>(f.recovery_feasible_interactive))
        .emit();
    return 0;
  }
  exp::print_cdf("cellular RTT to cloud providers (ms)", rtts);

  exp::Table t({"check", "paper", "measured/model"});
  t.add_row({"duplicated call bitrate", "1.5 -> 3.0 Mbps",
             exp::Table::num(f.dup_bitrate_mbps, 1) + " Mbps"});
  t.add_row({"fits 2 Mbps (floor) uplink", "no - could reach capacity",
             f.dup_fits_typical_uplink ? "yes" : "no"});
  t.add_row({"fits 5 Mbps (good) uplink", "yes - worked on the LTE testbed",
             f.dup_fits_good_uplink ? "yes" : "no"});
  t.add_row({"battery overhead", "~0 (20 mAh both cases)",
             exp::Table::num(f.battery_overhead_percent, 1) + "%"});
  t.add_row({"RTT median", "50-60 ms", exp::Table::num(f.rtt_p50_ms, 0) + " ms"});
  t.add_row({"RTT p90", "~100 ms", exp::Table::num(f.rtt_p90_ms, 0) + " ms"});
  t.add_row({"cooperative recovery latency", "feasible if delay consistent",
             exp::Table::num(f.recovery_latency_ms, 0) + " ms (~2 cellular RTTs)"});
  t.add_row({"recovery feasible for interactive apps", "yes (with adaptation)",
             f.recovery_feasible_interactive ? "yes" : "no"});
  t.print("Section 6.5 mobile feasibility");

  exp::print_claim("Sec6.5 duplication fits good uplinks",
                   "3.0 Mbps within ~5 Mbps LTE uplink",
                   f.dup_fits_good_uplink ? "fits" : "does not fit");
  exp::print_claim("Sec6.5 battery", "negligible impact (~20 mAh both)",
                   exp::Table::num(f.battery_overhead_percent, 1) + "% overhead");
  exp::print_claim("Sec6.5 cellular RTTs", "median 50-60 ms; 50-90% band 50-100 ms",
                   "p50 = " + exp::Table::num(f.rtt_p50_ms, 0) + " ms, p90 = " +
                       exp::Table::num(f.rtt_p90_ms, 0) + " ms");
  return 0;
}
