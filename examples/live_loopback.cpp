// Live-runtime example: the simulator's own sender, receiver and caching DC
// exchanging the J-QoS wire format over REAL UDP sockets on loopback (the
// paper's user-space proxy mode). The direct "Internet" leg drops 25% of
// datagrams; the receiver recovers them from the DC's cache with the same
// NACK protocol and Markov tail timer the simulator evaluates.
#include <cstdio>
#include <memory>

#include "endpoint/receiver.h"
#include "endpoint/sender.h"
#include "net/live_host.h"
#include "overlay/datacenter.h"
#include "services/caching/caching_service.h"

using namespace jqos;
using namespace std::chrono_literals;

int main() {
  constexpr FlowId kFlow = 1;
  constexpr int kPackets = 320;
  net::LiveHost host;

  overlay::DataCenter dc(host.net(), /*dc_id=*/0, "dc");
  auto cache = std::make_shared<services::CachingService>();
  dc.install(cache);
  const net::UdpEndpoint dc_endpoint = host.bind(dc);
  std::printf("DC cache listening on udp://%s\n", dc_endpoint.to_string().c_str());

  // The receiver NACKs its holes to the DC and gives a hole up one second
  // after detecting it.
  endpoint::ReceiverConfig rx_config;
  rx_config.dc2 = host.remote(dc_endpoint);
  rx_config.recovery_service = ServiceType::kCache;
  rx_config.recovery_give_up = sec(1);
  endpoint::Receiver receiver(host.net(), rx_config);
  const net::UdpEndpoint rx_endpoint = host.bind(receiver);
  host.connect(receiver, rx_config.dc2);
  receiver.expect_flow(kFlow);
  std::printf("receiver listening on udp://%s\n", rx_endpoint.to_string().c_str());

  // The sender duplicates every packet: direct to the receiver over the
  // impaired leg, and a clean copy to the DC cache.
  endpoint::Sender sender(host.net());
  host.bind(sender);
  endpoint::SenderPolicy policy;
  policy.service = ServiceType::kCache;
  policy.dc1 = host.remote(dc_endpoint);
  policy.receiver = host.remote(rx_endpoint);
  host.connect(sender, policy.dc1);
  host.connect(sender, policy.receiver, netsim::make_jitter_latency({.base = msec(5)}, Rng(98)),
               netsim::make_bernoulli_loss(0.25, Rng(99)));
  sender.register_flow(kFlow, policy);

  // Stream the packets 2 ms apart, then let recoveries and give-ups play out.
  for (int i = 0; i < kPackets; ++i) {
    sender.send(kFlow, 128);
    host.run_for(2ms);
  }
  host.run_for(1500ms);

  const endpoint::ReceiverStats& rx = receiver.stats();
  const netsim::LinkStats& direct = host.net().link(sender.id(), policy.receiver)->stats();
  std::printf("\nlive loopback run (25%% drop + 5 ms delay and jitter on the direct leg):\n");
  std::printf("  packets sent         : %d\n", kPackets);
  std::printf("  direct deliveries    : %llu\n",
              static_cast<unsigned long long>(rx.delivered_direct));
  std::printf("  recovered via NACKs  : %llu\n",
              static_cast<unsigned long long>(rx.delivered_recovered));
  std::printf("  given up             : %llu\n",
              static_cast<unsigned long long>(rx.losses_given_up));
  std::printf("  direct-leg datagrams dropped by the link: %llu of %llu\n",
              static_cast<unsigned long long>(direct.dropped_packets),
              static_cast<unsigned long long>(direct.offered_packets));
  std::printf("  DC cache served %llu of %llu requests, holding %zu packets\n",
              static_cast<unsigned long long>(cache->stats().pull_hits),
              static_cast<unsigned long long>(cache->stats().pulls), cache->store().size());
  return 0;
}
