// Synthetic wide-area path datasets, standing in for the paper's RIPE
// Atlas (Section 6.1: 6,250 US-East -> EU paths) and PlanetLab (Section
// 6.2: 45 paths across four continents) measurements.
//
// Each PathSample carries the one-way segment delays the J-QoS delay
// formulas consume: the direct Internet delay y, the host<->nearby-DC
// delays (delta), and the inter-DC cloud delay x, along with which cloud
// sites act as DC1/DC2.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "geo/host_synth.h"
#include "geo/regions.h"

namespace jqos::geo {

struct PathSample {
  Host sender;
  Host receiver;
  CloudSite dc1;  // Nearest site to the sender.
  CloudSite dc2;  // Nearest site to the receiver.

  // One-way delays in milliseconds (medians; jitter is layered on by the
  // simulator's latency models, not baked into the dataset).
  double y_ms = 0.0;        // sender -> receiver over the public Internet
  double delta_s_ms = 0.0;  // sender -> DC1
  double delta_r_ms = 0.0;  // receiver -> DC2
  double x_ms = 0.0;        // DC1 -> DC2 over the cloud backbone

  double direct_rtt_ms() const { return 2.0 * y_ms; }
};

// Configuration for dataset synthesis (the cloud sites are the 2019
// catalog's; each path's Internet inflation and bad-path delay are
// constants in path_dataset.cc).
struct PathDatasetParams {
  WorldRegion sender_region = WorldRegion::kUsEast;
  WorldRegion receiver_region = WorldRegion::kEurope;
  std::size_t num_paths = 100;
  // A small fraction of paths is "persistently bad" (Section 6.1's long
  // tail) and gets extra one-way delay.
  double bad_path_fraction = 0.08;
};

// Draws num_paths sender/receiver pairs and fills in all segment delays.
std::vector<PathSample> synthesize_paths(const PathDatasetParams& params, Rng& rng);

// One sender/receiver pair between two specific hosts using the given DC
// catalog; exposed so scenario builders can construct bespoke paths.
PathSample make_path(const Host& sender, const Host& receiver,
                     const std::vector<CloudSite>& sites, double internet_inflation,
                     double bad_path_extra_ms);

// The PlanetLab-style deployment of Section 6.2: 45 paths spanning
// US-East/US-West/EU/Asia/OC region pairs (sender region != receiver
// region), using the full 2019 DC catalog.
std::vector<PathSample> planetlab_paths(std::size_t count, Rng& rng);

// Region-pair label like "US-EU" used to group Figure 8(d) series.
std::string region_pair_label(const PathSample& path);

}  // namespace jqos::geo
