#include "geo/path_dataset.h"

#include <array>
#include <sstream>

#include "geo/coords.h"

namespace jqos::geo {
namespace {

// Which cloud sites exist.
constexpr int kDcCatalogYear = 2019;
// The public Internet's inflation varies per path (peering luck); sampled
// uniformly in [min, max].
constexpr double kInternetInflationMin = 1.6;
constexpr double kInternetInflationMax = 2.4;
// A bad path's extra one-way delay is this times a uniform draw in [0.5, 1.5].
constexpr double kBadPathExtraMs = 60.0;

}  // namespace

PathSample make_path(const Host& sender, const Host& receiver,
                     const std::vector<CloudSite>& sites, double internet_inflation,
                     double bad_path_extra_ms) {
  PathSample p;
  p.sender = sender;
  p.receiver = receiver;
  p.dc1 = nearest_site(sites, sender.location);
  p.dc2 = nearest_site(sites, receiver.location);

  const double direct_km = haversine_km(sender.location, receiver.location);
  p.y_ms = propagation_ms(direct_km, internet_inflation) + sender.last_mile_ms +
           receiver.last_mile_ms + bad_path_extra_ms;

  const double s_dc1_km = haversine_km(sender.location, p.dc1.location);
  p.delta_s_ms = propagation_ms(s_dc1_km, kAccessInflation) + sender.last_mile_ms;

  const double r_dc2_km = haversine_km(receiver.location, p.dc2.location);
  p.delta_r_ms = propagation_ms(r_dc2_km, kAccessInflation) + receiver.last_mile_ms;

  const double dc_km = haversine_km(p.dc1.location, p.dc2.location);
  p.x_ms = propagation_ms(dc_km, kCloudInflation);
  return p;
}

std::vector<PathSample> synthesize_paths(const PathDatasetParams& params, Rng& rng) {
  Rng host_rng = rng.fork("hosts");
  // Draw enough hosts that pairs are diverse; reuse hosts across paths as
  // RIPE anchors are reused across measurements.
  const std::size_t pool = std::max<std::size_t>(16, params.num_paths / 8);
  auto senders = synthesize_hosts(params.sender_region, pool, host_rng);
  auto receivers = synthesize_hosts(params.receiver_region, pool, host_rng);
  const auto sites = cloud_sites_as_of(kDcCatalogYear);

  std::vector<PathSample> paths;
  paths.reserve(params.num_paths);
  for (std::size_t i = 0; i < params.num_paths; ++i) {
    const Host& s =
        senders[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(senders.size()) - 1))];
    const Host& r = receivers[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(receivers.size()) - 1))];
    const double inflation = rng.uniform(kInternetInflationMin, kInternetInflationMax);
    const double extra = rng.bernoulli(params.bad_path_fraction)
                             ? rng.uniform(0.5, 1.5) * kBadPathExtraMs
                             : 0.0;
    paths.push_back(make_path(s, r, sites, inflation, extra));
  }
  return paths;
}

std::vector<PathSample> planetlab_paths(std::size_t count, Rng& rng) {
  // Region pairs mirroring the deployment's US/EU/Asia/OC spread.
  static const std::array<std::pair<WorldRegion, WorldRegion>, 6> kPairs = {{
      {WorldRegion::kUsEast, WorldRegion::kEurope},
      {WorldRegion::kUsWest, WorldRegion::kAsia},
      {WorldRegion::kUsEast, WorldRegion::kOceania},
      {WorldRegion::kEurope, WorldRegion::kOceania},
      {WorldRegion::kEurope, WorldRegion::kAsia},
      {WorldRegion::kUsWest, WorldRegion::kUsEast},
  }};
  // The deployment's footprint: "five different DCs ... located in US, EU,
  // Asia, and OC" (Section 6.2.1). Confining the overlay to five sites is
  // what gives each (DC1, DC2) pair enough concurrent flows to form
  // cross-stream batches.
  std::vector<CloudSite> sites;
  for (const char* name : {"us-east-virginia", "us-west-oregon", "eu-west-ireland",
                           "ap-southeast-singapore", "ap-southeast-sydney"}) {
    for (const CloudSite& s : cloud_sites()) {
      if (s.name == name) sites.push_back(s);
    }
  }
  Rng host_rng = rng.fork("pl-hosts");

  std::vector<PathSample> paths;
  paths.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& [sr, rr] = kPairs[i % kPairs.size()];
    auto s = synthesize_hosts(sr, 1, host_rng);
    auto r = synthesize_hosts(rr, 1, host_rng);
    const double inflation = rng.uniform(kInternetInflationMin, kInternetInflationMax);
    // PlanetLab nodes live in universities: good access links, so no
    // bad-path inflation, but the wide-area segment still varies.
    paths.push_back(make_path(s[0], r[0], sites, inflation, 0.0));
  }
  return paths;
}

std::string region_pair_label(const PathSample& path) {
  auto shorten = [](WorldRegion r) -> std::string {
    switch (r) {
      case WorldRegion::kUsEast:
      case WorldRegion::kUsWest: return "US";
      case WorldRegion::kEurope:
      case WorldRegion::kNorthEurope: return "EU";
      case WorldRegion::kAsia: return "AS";
      case WorldRegion::kOceania: return "OC";
      case WorldRegion::kSouthAmerica: return "SA";
    }
    return "?";
  };
  std::string a = shorten(path.sender.region);
  std::string b = shorten(path.receiver.region);
  if (a == b) return a + "-" + b;
  // Canonical order so US-EU and EU-US group together.
  if (b < a) std::swap(a, b);
  std::ostringstream os;
  os << a << "-" << b;
  return os.str();
}

}  // namespace jqos::geo
