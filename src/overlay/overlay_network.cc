#include "overlay/overlay_network.h"

#include <stdexcept>

#include "geo/coords.h"
#include "netsim/latency_model.h"
#include "netsim/loss_model.h"

namespace jqos::overlay {

namespace {

// Inter-DC paths: order-of-magnitude lower loss than the public Internet
// and tight jitter (Section 2's measurements).
constexpr double kInterDcLoss = 1e-5;
constexpr double kInterDcJitterSigma = 0.2;
constexpr double kInterDcJitterScaleMs = 0.3;
// Access (host <-> DC) paths: low loss, modest jitter.
constexpr double kAccessLoss = 1e-4;
constexpr double kAccessJitterSigma = 0.3;
constexpr double kAccessJitterScaleMs = 0.5;

}  // namespace

OverlayNetwork::OverlayNetwork(netsim::Network& net, const std::vector<geo::CloudSite>& sites,
                               Rng& rng)
    : net_(net), sites_(sites) {
  if (sites_.empty()) throw std::invalid_argument("OverlayNetwork: no sites");
  link_seed_ = rng.fork("overlay").next_u64();
  dcs_.reserve(sites_.size());
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    dcs_.push_back(
        std::make_unique<DataCenter>(net_, static_cast<DcId>(i), sites_[i].name));
  }
  // Full mesh of inter-DC links (the cloud backbone). Each directed link's
  // jitter and loss streams are keyed by the endpoint site NAMES, not by
  // construction order: an overlay built from any subset of a site catalog
  // gives the link A->B the identical random sequence, so sharded scenario
  // decompositions (each shard builds only the sites its paths touch) stay
  // bit-identical to the monolithic run.
  for (std::size_t i = 0; i < dcs_.size(); ++i) {
    for (std::size_t j = 0; j < dcs_.size(); ++j) {
      if (i == j) continue;
      const double km = geo::haversine_km(sites_[i].location, sites_[j].location);
      netsim::JitterParams jp;
      jp.base = msec_f(geo::propagation_ms(km, geo::kCloudInflation));
      jp.jitter_sigma = kInterDcJitterSigma;
      jp.jitter_scale_ms = kInterDcJitterScaleMs;
      const std::string pair = sites_[i].name + ">" + sites_[j].name;
      Rng lat_rng = Rng::derived(link_seed_, "dc-link:" + pair);
      Rng loss_rng = Rng::derived(link_seed_, "dc-loss:" + pair);
      net_.add_link(dcs_[i]->id(), dcs_[j]->id(),
                    netsim::make_jitter_latency(jp, lat_rng),
                    netsim::make_bernoulli_loss(kInterDcLoss, loss_rng));
    }
  }
}

DataCenter* OverlayNetwork::dc_by_site(const std::string& site_name) {
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i].name == site_name) return dcs_[i].get();
  }
  return nullptr;
}

DataCenter& OverlayNetwork::nearest_dc(const geo::GeoPoint& p) {
  const geo::CloudSite& s = geo::nearest_site(sites_, p);
  DataCenter* dc = dc_by_site(s.name);
  if (dc == nullptr) throw std::logic_error("nearest_dc: site without DC");
  return *dc;
}

void OverlayNetwork::attach_host(NodeId host, DataCenter& dc, SimDuration one_way_delay,
                                 Rng& rng) {
  netsim::JitterParams jp;
  jp.base = one_way_delay;
  jp.jitter_sigma = kAccessJitterSigma;
  jp.jitter_scale_ms = kAccessJitterScaleMs;
  net_.add_link(host, dc.id(), netsim::make_jitter_latency(jp, rng.fork("up")),
                netsim::make_bernoulli_loss(kAccessLoss, rng.fork("up-loss")));
  net_.add_link(dc.id(), host, netsim::make_jitter_latency(jp, rng.fork("down")),
                netsim::make_bernoulli_loss(kAccessLoss, rng.fork("down-loss")));
}

}  // namespace jqos::overlay
