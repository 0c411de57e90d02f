// The paper's central trade-off (Figures 1 and 2), measured end to end:
// run the same wide-area workload under each J-QoS service and report what
// each one buys (recovery rate, recovery latency) and costs (inter-DC
// egress per delivered application byte -- the quantity the cloud bills).
//
// Expected shape: forwarding ~ highest cost / no recovery needed at all
// (packets ride the overlay); caching ~ cost c with fast pulls; coding ~
// a fraction of c with slightly slower cooperative recovery; Internet-only
// ~ free but lossy. "Judicious QoS" is the region between them.
//
// Flags: --json emits one JSON Lines row per service; --quick shrinks the
// simulated duration to a CI smoke preset.
#include <cstdio>

#include "bench_json.h"
#include "common/parallel.h"
#include "exp/report.h"
#include "exp/sharded_runner.h"

namespace {

using namespace jqos;

struct Row {
  const char* name;
  double recovery = 0.0;       // Fraction of direct losses repaired in time.
  double delivery = 0.0;       // Fraction of app packets delivered (any path).
  double recovery_p90_ms = 0.0;
  double egress_per_kb = 0.0;  // Total DC egress bytes per delivered KB
                               // (the quantity the cloud bills).
};

Row run_service(const char* name, ServiceType service, std::uint64_t seed, bool quick) {
  Rng prng(seed);
  auto paths = geo::planetlab_paths(20, prng);
  // One DC pair so the coding groups reach full k (the paper's DCs each
  // aggregate many users; small groups degrade coding toward duplication).
  for (auto& p : paths) {
    p.dc1 = paths[0].dc1;
    p.dc2 = paths[0].dc2;
  }

  exp::WanScenarioParams params;
  params.service = service;
  params.seed = seed;
  params.coding.k = 10;
  params.coding.queue_timeout = msec(300);
  params.cbr.on_duration = quick ? sec(20) : minutes(1);
  params.cbr.mean_off = quick ? sec(15) : sec(45);
  params.cbr.packets_per_second = 25.0;
  params.cbr.payload_bytes = 512;
  // The multi-core scenario path: identical merged results to the
  // single-shard ScenarioShard for any shard/thread count (see
  // exp/sharded_runner.h). With one DC pair the paths form a single
  // interaction group, so the runner packs them into one shard; the
  // cross-service parallelism lives in main().
  exp::ShardedRunParams run_params;
  run_params.num_threads = 1;  // main() already fans services across cores.
  exp::ShardedRunner scenario(std::move(paths), params, run_params);
  scenario.run(quick ? minutes(2) : minutes(10));

  Row row;
  row.name = name;
  std::uint64_t delivered = 0, recovered = 0, lost = 0;
  Samples recovery_ms;
  for (std::size_t i = 0; i < scenario.path_count(); ++i) {
    const exp::PathRuntime& rt = scenario.path(i);
    delivered += rt.delivered_direct;
    recovered += rt.recovered;
    lost += rt.lost;
    for (double v : rt.recovery_ms.values()) recovery_ms.add(v);
  }
  const std::uint64_t losses = recovered + lost;
  row.recovery = losses == 0 ? 1.0
                             : static_cast<double>(recovered) / static_cast<double>(losses);
  row.delivery = static_cast<double>(delivered + recovered) /
                 static_cast<double>(delivered + losses);
  row.recovery_p90_ms = recovery_ms.percentile(90);

  // Total DC egress (what the cloud bills): forwarding pays twice (DC1 ->
  // DC2, DC2 -> receiver), caching pays once plus pulls, coding pays the
  // coded fraction plus recovery traffic.
  std::uint64_t egress = 0;
  for (std::size_t si = 0; si < scenario.shard_count(); ++si) {
    auto& overlay = scenario.shard(si).overlay();
    for (std::size_t i = 0; i < overlay.dc_count(); ++i) {
      egress += overlay.dc(i).egress_bytes();
    }
  }
  const double delivered_kb =
      static_cast<double>(delivered + recovered) * 512.0 / 1000.0;
  row.egress_per_kb = delivered_kb == 0.0 ? 0.0 : static_cast<double>(egress) / delivered_kb;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jqos;
  const bool json = bench::want_json(argc, argv);
  const bool quick = bench::want_flag(argc, argv, "--quick");
  if (!json) {
    std::printf("== Service ablation: the Figure 1/2 cost-vs-QoS spectrum, measured ==\n");
  }

  // Four independent deterministic sims: one per worker thread.
  Row rows[4];
  parallel_for_indexed(4, resolve_sim_threads(0), [&](std::size_t i) {
    switch (i) {
      case 0: rows[0] = run_service("internet-only", ServiceType::kNone, 77, quick); break;
      case 1: rows[1] = run_service("coding (CR-WAN)", ServiceType::kCode, 77, quick); break;
      case 2: rows[2] = run_service("caching", ServiceType::kCache, 77, quick); break;
      case 3: rows[3] = run_service("forwarding", ServiceType::kForward, 77, quick); break;
    }
  });
  const Row& internet = rows[0];
  const Row& coding = rows[1];
  const Row& caching = rows[2];
  const Row& forwarding = rows[3];

  if (json) {
    const auto emit = [](const char* service, const Row& r) {
      bench::JsonRow("services_ablation")
          .add("name", "service")
          .add("service", service)
          .add("delivery", r.delivery)
          .add("recovery", r.recovery)
          .add("recovery_p90_ms", r.recovery_p90_ms)
          .add("egress_bytes_per_delivered_kb", r.egress_per_kb)
          .emit();
    };
    emit("internet", internet);
    emit("coding", coding);
    emit("caching", caching);
    emit("forwarding", forwarding);
    return 0;
  }

  exp::Table t({"service", "delivery %", "loss recovery %", "recovery p90 (ms)",
                "DC egress bytes / delivered KB"});
  for (const Row& r : {internet, coding, caching, forwarding}) {
    t.add_row({r.name, exp::Table::num(r.delivery * 100.0, 2),
               exp::Table::num(r.recovery * 100.0, 1),
               exp::Table::num(r.recovery_p90_ms, 0),
               exp::Table::num(r.egress_per_kb, 1)});
  }
  t.print("cost vs QoS spectrum (same workload, same paths, same seeds)");

  exp::print_claim("Fig2 cost ordering", "coding (alpha*c) < caching (c) < forwarding (2c)",
                   exp::Table::num(coding.egress_per_kb, 1) + " < " +
                       exp::Table::num(caching.egress_per_kb, 1) + " < " +
                       exp::Table::num(forwarding.egress_per_kb, 1) +
                       " DC egress bytes per delivered KB");
  exp::print_claim("Fig2 QoS ordering", "every service beats Internet-only delivery",
                   "internet " + exp::Table::num(internet.delivery * 100.0, 2) +
                       "% vs coding " + exp::Table::num(coding.delivery * 100.0, 2) +
                       "% / caching " + exp::Table::num(caching.delivery * 100.0, 2) +
                       "% / forwarding " + exp::Table::num(forwarding.delivery * 100.0, 2) +
                       "%");
  return 0;
}
