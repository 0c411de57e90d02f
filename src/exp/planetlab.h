// The Section 6.2 CR-WAN deployment reproduction (Figure 8): 45 wide-area
// paths across four continents running the ON/OFF CBR workload through the
// full simulated service stack, plus the derived analyses -- loss-episode
// classification, the FEC what-if comparison, regional recovery times, and
// the 1-vs-2 cross-coded-packet ablation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/scenario.h"
#include "exp/sharded_runner.h"

namespace jqos::exp {

struct PlanetlabConfig {
  std::size_t num_paths = 45;
  // Compressed timescales preserving the paper's ON/OFF structure: the
  // defaults give each path several ON intervals in a modest simulated span.
  SimDuration duration = minutes(40);
  transport::CbrParams cbr{.on_duration = minutes(2),
                           .mean_off = minutes(3),
                           .packets_per_second = 20.0,
                           .payload_bytes = 512};
  services::CodingParams coding{.k = 6, .cross_coded = 2, .in_block = 5, .in_coded = 1,
                                .queue_timeout = msec(300)};
  DirectPathParams direct;
  std::uint64_t seed = 42;
  // Sharded execution (see sharded_runner.h). Neither value changes the
  // results -- num_threads never, num_shards by the runner's composition-
  // invariance contract; they only trade wall-clock for cores.
  std::size_t num_shards = 0;   // 0 = one shard per (DC1, DC2) group.
  unsigned num_threads = 0;     // 0 = JQOS_SIM_THREADS or hardware_concurrency.
};

// Loss-episode classification (Figure 8(b)).
struct EpisodeMix {
  std::uint64_t random_episodes = 0;   // 1 packet
  std::uint64_t multi_episodes = 0;    // 2-14 packets
  std::uint64_t outage_episodes = 0;   // > 14 packets
  std::uint64_t random_packets = 0;
  std::uint64_t multi_packets = 0;
  std::uint64_t outage_packets = 0;

  // Fractions of the total lost packets contributed by each class.
  double random_fraction() const;
  double multi_fraction() const;
  double outage_fraction() const;
};

EpisodeMix classify_episodes(const std::vector<Outcome>& outcomes);

struct PlanetlabPathResult {
  std::string label;
  double rtt_ms = 0.0;
  double loss_rate = 0.0;
  double recovery_success = 0.0;  // Fraction of lost packets recovered <= 1 RTT.
  EpisodeMix episodes;
  Samples recovery_ms;
  std::vector<bool> trace;  // Direct-path loss trace for the FEC what-if.
};

struct PlanetlabResult {
  std::vector<PlanetlabPathResult> paths;
  double overall_recovery = 0.0;       // Lost packets recovered, all paths.
  double overall_loss_rate = 0.0;
  Samples per_path_recovery;           // For the Fig 8(a) CCDF.
  Samples recovery_over_rtt_all;       // Fig 8(d) aggregate.
  std::map<std::string, Samples> recovery_over_rtt_by_region;  // Fig 8(d) series.
  services::EncoderStats encoder;
  services::RecoveryStatsDc recovery;
  // Execution shape of the run that produced this result.
  std::size_t shards_used = 0;
  unsigned threads_used = 0;
  std::uint64_t events_processed = 0;  // Summed across shards.
};

PlanetlabResult run_planetlab(const PlanetlabConfig& config);

// Runs the deployment twice (cross_coded = 2 vs 1) and returns the per-path
// percentage increase in recovery rate (Figure 8(e)).
Samples run_straggler_ablation(PlanetlabConfig config);

}  // namespace jqos::exp
