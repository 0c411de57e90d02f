// Quickstart: the smallest end-to-end J-QoS program.
//
// Builds a two-DC cloud overlay over a lossy transatlantic Internet path,
// registers one application flow with a latency budget via the register()
// API (the framework picks the cheapest service that fits -- coding), sends
// a CBR stream, and prints what was lost on the Internet path and what
// J-QoS recovered.
#include <cstdio>

#include "common/stats.h"
#include "endpoint/receiver.h"
#include "endpoint/sender.h"
#include "endpoint/session.h"
#include "netsim/network.h"
#include "overlay/datacenter.h"
#include "services/coding/encoder_dc.h"
#include "services/coding/recovery_dc.h"
#include "services/forwarding/forwarding_service.h"

using namespace jqos;

int main() {
  // --- infrastructure: simulator, two DCs, the coding service stack ---
  netsim::Simulator sim;
  netsim::Network net(sim);
  Rng rng(1);

  overlay::DataCenter dc1(net, 0, "dc-us-east");
  overlay::DataCenter dc2(net, 1, "dc-eu-west");
  auto registry = std::make_shared<services::FlowRegistry>();
  dc1.install(std::make_shared<services::ForwardingService>());
  dc2.install(std::make_shared<services::ForwardingService>());
  services::CodingParams coding;
  coding.k = 4;  // Small demo: batches of up to 4 flows.
  // At 20 pkt/s a 5-packet in-stream block takes 250 ms to fill; a shorter
  // queue timer would flush every packet alone with a coded copy of its own.
  coding.queue_timeout = msec(300);
  auto encoder = std::make_shared<services::CodingEncoderService>(dc1, coding, registry);
  dc1.install(encoder);
  dc2.install(std::make_shared<services::RecoveryService>(dc2,
                                                          services::RecoveryParams{},
                                                          registry));

  // --- end hosts ---
  endpoint::Sender sender(net);
  endpoint::ReceiverConfig rc;
  rc.dc2 = dc2.id();
  rc.rtt_estimate = msec(110);
  std::uint64_t delivered = 0, recovered = 0, lost = 0;
  Samples recovery_ms;  // Loss detection -> recovered delivery.
  endpoint::Receiver receiver(net, rc,
                              [&](const endpoint::DeliveryRecord& rec, const PacketPtr&) {
                                if (rec.lost) {
                                  ++lost;
                                } else if (rec.recovered) {
                                  ++recovered;
                                  if (rec.detected_missing_at > 0) {
                                    recovery_ms.add(
                                        to_ms(rec.delivered_at - rec.detected_missing_at));
                                  }
                                } else {
                                  ++delivered;
                                }
                              });

  // --- links: a 55 ms lossy Internet path + clean cloud legs ---
  netsim::GilbertElliottParams burst;
  burst.p_good_to_bad = 0.01;  // Lossy demo path: ~2-3% with bursts.
  burst.p_bad_to_good = 0.3;
  burst.loss_in_bad = 0.8;
  net.add_link(sender.id(), receiver.id(), netsim::make_fixed_latency(msec(55)),
               netsim::make_gilbert_elliott(burst, rng.fork("loss")));
  net.add_link(sender.id(), dc1.id(), netsim::make_fixed_latency(msec(6)),
               netsim::make_no_loss());
  net.add_link(dc1.id(), dc2.id(), netsim::make_fixed_latency(msec(42)),
               netsim::make_no_loss());
  net.add_link(dc2.id(), receiver.id(), netsim::make_fixed_latency(msec(8)),
               netsim::make_no_loss());
  net.add_link(receiver.id(), dc2.id(), netsim::make_fixed_latency(msec(8)),
               netsim::make_no_loss());

  // --- the application-facing part: register with a latency budget ---
  endpoint::SessionManager sessions(registry);
  endpoint::RegisterRequest req;
  req.latency_budget_ms = 150.0;  // Interactive-app budget.
  req.delays = {.y_ms = 55.0, .delta_s_ms = 6.0, .delta_r_ms = 8.0, .x_ms = 42.0,
                .delta_r_median_ms = 8.0};
  req.dc1 = dc1.id();
  req.dc2 = dc2.id();
  const endpoint::Session session = sessions.register_flow(sender, receiver, req);
  std::printf("register(): picked service '%s' (expected delay %.1f ms, relative cost %.2f)\n",
              to_string(session.quote.service), session.quote.expected_delay_ms,
              session.quote.relative_cost);

  // A few sibling flows so cross-stream batches form (the cloud's
  // visibility into concurrent streams is what makes coding cheap).
  std::vector<std::unique_ptr<endpoint::Receiver>> peers;
  for (int i = 0; i < 3; ++i) {
    auto peer = std::make_unique<endpoint::Receiver>(net, rc);
    net.add_link(sender.id(), peer->id(), netsim::make_fixed_latency(msec(55)),
                 netsim::make_bernoulli_loss(0.001, rng.fork("peer")));
    net.add_link(dc2.id(), peer->id(), netsim::make_fixed_latency(msec(8)),
                 netsim::make_no_loss());
    net.add_link(peer->id(), dc2.id(), netsim::make_fixed_latency(msec(8)),
                 netsim::make_no_loss());
    sessions.register_flow(sender, *peer, req);
    peers.push_back(std::move(peer));
  }

  // --- send 20 packets/s for 60 s on every flow ---
  for (FlowId flow = 1; flow <= 4; ++flow) {
    for (int i = 0; i < 1200; ++i) {
      sim.at(msec(50) * i + flow, [&sender, flow] { sender.send(flow, 512); });
    }
  }
  sim.run_until(sec(70));

  std::printf("\nresults for the registered flow:\n");
  std::printf("  delivered on the Internet path : %llu\n",
              static_cast<unsigned long long>(delivered));
  std::printf("  lost there but recovered by J-QoS: %llu\n",
              static_cast<unsigned long long>(recovered));
  std::printf("  unrecovered                     : %llu\n",
              static_cast<unsigned long long>(lost));
  std::printf("  recovery delays: %s\n",
              summarize_percentiles(recovery_ms).c_str());
  std::printf("  inter-DC bytes (the judicious part): %llu vs %llu duplicated app bytes\n",
              static_cast<unsigned long long>(dc1.egress_bytes()),
              static_cast<unsigned long long>(dc1.ingress_bytes()));
  return 0;
}
