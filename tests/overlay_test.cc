// Tests for the overlay layer: DC service dispatch and byte accounting, the
// overlay mesh construction, and the Section 6.6 cost arithmetic.
#include <gtest/gtest.h>

#include "geo/regions.h"
#include "netsim/network.h"
#include "overlay/cost_model.h"
#include "overlay/datacenter.h"
#include "overlay/overlay_network.h"

namespace jqos::overlay {
namespace {

struct CountingService final : DcService {
  const char* name() const override { return "counting"; }
  bool handle(DataCenter&, const PacketPtr& pkt) override {
    ++seen;
    return pkt->type == consumed_type;
  }
  PacketType consumed_type = PacketType::kData;
  int seen = 0;
};

TEST(DataCenter, DispatchStopsAtConsumingService) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  DataCenter dc(net, 0, "dc-test");
  auto first = std::make_shared<CountingService>();
  first->consumed_type = PacketType::kNack;  // Will not consume kData.
  auto second = std::make_shared<CountingService>();
  second->consumed_type = PacketType::kData;
  auto third = std::make_shared<CountingService>();
  dc.install(first);
  dc.install(second);
  dc.install(third);

  auto pkt = make_data_packet(1, 0, 99, dc.id(), 0, 32);
  dc.handle_packet(pkt);
  EXPECT_EQ(first->seen, 1);
  EXPECT_EQ(second->seen, 1);
  EXPECT_EQ(third->seen, 0);
  EXPECT_EQ(dc.unhandled_packets(), 0u);
}

TEST(DataCenter, UnhandledPacketsCounted) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  DataCenter dc(net, 0, "dc-test");
  dc.handle_packet(make_data_packet(1, 0, 99, dc.id(), 0, 32));
  EXPECT_EQ(dc.unhandled_packets(), 1u);
}

TEST(DataCenter, IngressEgressAccounting) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  DataCenter dc(net, 0, "dc-a");
  DataCenter dst(net, 1, "dc-b");
  net.add_link(dc.id(), dst.id(), netsim::make_fixed_latency(msec(1)),
               netsim::make_no_loss());

  auto in = make_data_packet(1, 0, 99, dc.id(), 0, 100);
  dc.handle_packet(in);
  EXPECT_EQ(dc.ingress_bytes(), in->wire_size());

  auto out = make_data_packet(1, 1, dc.id(), dst.id(), 0, 200);
  dc.send(out);
  EXPECT_EQ(dc.egress_bytes(), out->wire_size());
  EXPECT_EQ(dc.egress_packets(), 1u);
}

TEST(OverlayNetwork, BuildsFullMeshAndNearestDc) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  Rng rng(1);
  auto sites = geo::cloud_sites_as_of(2019);
  OverlayNetwork overlay(net, sites, rng);
  EXPECT_EQ(overlay.dc_count(), sites.size());
  // Every ordered DC pair has a link.
  for (std::size_t i = 0; i < overlay.dc_count(); ++i) {
    for (std::size_t j = 0; j < overlay.dc_count(); ++j) {
      if (i == j) continue;
      EXPECT_NE(net.link(overlay.dc(i).id(), overlay.dc(j).id()), nullptr);
    }
  }
  // Nearest DC to central Stockholm is the Stockholm site.
  DataCenter& dc = overlay.nearest_dc(geo::GeoPoint{59.3, 18.1});
  EXPECT_EQ(dc.name(), "eu-north-stockholm");
}

TEST(OverlayNetwork, InterDcLatencyTracksGeography) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  Rng rng(2);
  auto sites = geo::cloud_sites_as_of(2019);
  OverlayNetwork overlay(net, sites, rng);
  DataCenter* virginia = overlay.dc_by_site("us-east-virginia");
  DataCenter* ireland = overlay.dc_by_site("eu-west-ireland");
  DataCenter* london = overlay.dc_by_site("eu-west-london");
  ASSERT_NE(virginia, nullptr);
  ASSERT_NE(ireland, nullptr);
  ASSERT_NE(london, nullptr);
  const auto transatlantic = net.link(virginia->id(), ireland->id())->base_latency();
  const auto intra_eu = net.link(ireland->id(), london->id())->base_latency();
  EXPECT_GT(transatlantic, intra_eu * 4);
}

TEST(OverlayNetwork, AttachHostCreatesBidirectionalLinks) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  Rng rng(3);
  auto sites = geo::cloud_sites_as_of(2019);
  OverlayNetwork overlay(net, sites, rng);
  const NodeId host = net.allocate_id();
  Rng access = rng.fork("access");
  overlay.attach_host(host, overlay.dc(0), msec(7), access);
  ASSERT_NE(net.link(host, overlay.dc(0).id()), nullptr);
  ASSERT_NE(net.link(overlay.dc(0).id(), host), nullptr);
  EXPECT_EQ(net.link(host, overlay.dc(0).id())->base_latency(), msec(7));
}

// ------------------------------ cost model --------------------------------

TEST(CostModel, Section66ForwardingCost) {
  // 150 Skype calls at 0.675 GB/user/hour => ~101 GB/h; a 2-DC forwarding
  // overlay egresses it twice: "$17.60/hour for bandwidth and $0.13/hour
  // for single thread ... compute".
  const CostModel model;
  const SkypeLoad load;
  const double gb_per_hour = load.gb_per_user_hour * load.calls_per_thread;
  EXPECT_NEAR(gb_per_hour, 101.25, 0.01);
  const double bandwidth_only = 2.0 * gb_per_hour * model.pricing().egress_usd_per_gb;
  EXPECT_NEAR(bandwidth_only, 17.60, 0.1);
  EXPECT_NEAR(model.forwarding_hourly_usd(gb_per_hour), 17.60 + 0.13, 0.1);
}

TEST(CostModel, Section66CodingCost) {
  // "for a coding rate of r = 1/16, the maximum cost of bandwidth for 150
  // calls will only be $1.10/hour, which is 16x less than ... forwarding."
  const CostModel model;
  const SkypeLoad load;
  const double gb_per_hour = load.gb_per_user_hour * load.calls_per_thread;
  const double coding_bw =
      2.0 * gb_per_hour * (1.0 / 16.0) * model.pricing().egress_usd_per_gb;
  EXPECT_NEAR(coding_bw, 1.10, 0.05);
  const double fwd_bw = 2.0 * gb_per_hour * model.pricing().egress_usd_per_gb;
  EXPECT_NEAR(fwd_bw / coding_bw, 16.0, 0.1);
}

TEST(CostModel, CachingBetweenCodingAndForwarding) {
  const CostModel model;
  const double gb = 100.0;
  const double fwd = model.forwarding_hourly_usd(gb);
  const double cache = model.caching_hourly_usd(gb, 0.01);
  const double code = model.coding_hourly_usd(gb, 2.0 / 6.0);
  EXPECT_LT(code, cache);
  EXPECT_LT(cache, fwd);
}

TEST(CostModel, EgressFromBytes) {
  const CostModel model;
  EXPECT_NEAR(model.egress_cost_from_bytes(1'000'000'000ull),
              model.pricing().egress_usd_per_gb, 1e-9);
  EXPECT_DOUBLE_EQ(model.egress_cost_usd(0.0), 0.0);
}

}  // namespace
}  // namespace jqos::overlay
