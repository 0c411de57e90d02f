// The cloud overlay: a mesh of DataCenters built from geo::CloudSite
// entries, with well-provisioned inter-DC links, plus helpers to attach end
// hosts to their nearest DC.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "geo/path_dataset.h"
#include "geo/regions.h"
#include "netsim/network.h"
#include "overlay/datacenter.h"

namespace jqos::overlay {

class OverlayNetwork {
 public:
  // Every inter-DC link's jitter and loss draw from a stream derived from
  // (rng-derived base seed, the link's site names) -- NOT from construction
  // order. Two overlays built from different subsets of the same site
  // catalog therefore give each shared link an identical random sequence,
  // which is what lets the sharded scenario runner split paths across
  // shards without perturbing results.
  OverlayNetwork(netsim::Network& net, const std::vector<geo::CloudSite>& sites, Rng& rng);

  // The DC built for the i-th site passed at construction.
  DataCenter& dc(std::size_t index) { return *dcs_.at(index); }
  std::size_t dc_count() const { return dcs_.size(); }

  // DC whose site name matches; nullptr if absent.
  DataCenter* dc_by_site(const std::string& site_name);

  // The DC nearest to a geographic point.
  DataCenter& nearest_dc(const geo::GeoPoint& p);

  // Installs bidirectional access links between a host node and a DC with
  // the given one-way base delay. The links' jitter/loss streams are forked
  // from `rng` -- pass a stream keyed to a stable identity (e.g. the path's
  // global index) for composition-invariant runs.
  void attach_host(NodeId host, DataCenter& dc, SimDuration one_way_delay, Rng& rng);

  const geo::CloudSite& site(std::size_t index) const { return sites_.at(index); }

 private:
  netsim::Network& net_;
  std::vector<geo::CloudSite> sites_;
  std::vector<std::unique_ptr<DataCenter>> dcs_;
  // Base seed for name-keyed link streams; drawn once from the ctor rng so
  // equal-state ctor rngs (e.g. every shard of one scenario) agree on it.
  std::uint64_t link_seed_ = 0;
};

}  // namespace jqos::overlay
