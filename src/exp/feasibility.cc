#include "exp/feasibility.h"

#include "geo/coords.h"

namespace jqos::exp {

endpoint::PathDelays to_path_delays(const geo::PathSample& sample, double delta_median_ms) {
  endpoint::PathDelays d;
  d.y_ms = sample.y_ms;
  d.delta_s_ms = sample.delta_s_ms;
  d.delta_r_ms = sample.delta_r_ms;
  d.x_ms = sample.x_ms;
  d.delta_r_median_ms = delta_median_ms;
  return d;
}

FeasibilityResult run_feasibility(const FeasibilityParams& params) {
  Rng rng(params.seed);
  FeasibilityResult out;

  // --- Fig 7(a)/(b): US-East senders, EU receivers ---
  geo::PathDatasetParams pd;
  pd.sender_region = geo::WorldRegion::kUsEast;
  pd.receiver_region = geo::WorldRegion::kEurope;
  pd.num_paths = params.num_paths;
  auto paths = geo::synthesize_paths(pd, rng);

  // Median receiver<->DC delay across the cohort (the peer round trip the
  // coding formula charges).
  Samples deltas;
  for (const auto& p : paths) deltas.add(p.delta_r_ms);
  const double delta_median = deltas.median();

  for (const auto& p : paths) {
    const auto d = to_path_delays(p, delta_median);
    const double internet = endpoint::expected_delay_ms(ServiceType::kNone, d);
    const double cache = endpoint::expected_delay_ms(ServiceType::kCache, d);
    const double code = endpoint::expected_delay_ms(ServiceType::kCode, d);
    out.internet_ms.add(internet);
    out.forwarding_ms.add(endpoint::expected_delay_ms(ServiceType::kForward, d));
    out.caching_ms.add(cache);
    out.coding_ms.add(code);
    // Recovery delay relative to the direct-path RTT (Fig 7(b)): the extra
    // time beyond normal direct delivery, over RTT = 2y.
    const double rtt = 2.0 * p.y_ms;
    out.caching_recovery_over_rtt.add((cache - internet) / rtt);
    out.coding_recovery_over_rtt.add((code - internet) / rtt);
  }

  // --- Fig 7(c): EU hosts' delta to the nearest DC (2019 catalog) ---
  Rng host_rng = rng.fork("eu-hosts");
  auto eu_hosts =
      geo::synthesize_hosts(geo::WorldRegion::kEurope, params.num_eu_hosts, host_rng);
  const auto sites_now = geo::cloud_sites_as_of(2019);
  for (const auto& h : eu_hosts) {
    const auto& site = geo::nearest_site(sites_now, h.location);
    const double km = geo::haversine_km(h.location, site.location);
    out.delta_eu_ms.add(geo::propagation_ms(km, geo::kAccessInflation) + h.last_mile_ms);
  }

  // --- Fig 7(d): northern-EU hosts under historical DC catalogs ---
  Rng neu_rng = rng.fork("neu-hosts");
  auto neu_hosts = geo::synthesize_hosts(geo::WorldRegion::kNorthEurope,
                                         params.num_north_eu_hosts, neu_rng);
  for (int year : {2007, 2014, 2019}) {
    const auto sites = geo::cloud_sites_as_of(year);
    Samples& bucket = year == 2007   ? out.delta_neu_2007_ms
                      : year == 2014 ? out.delta_neu_2014_ms
                                     : out.delta_neu_now_ms;
    for (const auto& h : neu_hosts) {
      const auto& site = geo::nearest_site(sites, h.location);
      const double km = geo::haversine_km(h.location, site.location);
      bucket.add(geo::propagation_ms(km, geo::kAccessInflation) + h.last_mile_ms);
    }
  }
  return out;
}

}  // namespace jqos::exp
