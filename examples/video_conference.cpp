// Video-conference example: a Skype-like call riding J-QoS's coding service
// through a mid-call Internet outage (the Section 6.3 scenario), scored
// with the frame-level PSNR model.
#include <cstdio>
#include <unordered_map>

#include "app/psnr.h"
#include "app/video.h"
#include "common/stats.h"
#include "endpoint/session.h"
#include "netsim/network.h"
#include "overlay/datacenter.h"
#include "services/coding/encoder_dc.h"
#include "services/coding/recovery_dc.h"
#include "services/forwarding/forwarding_service.h"
#include "transport/cbr_app.h"

using namespace jqos;

int main() {
  netsim::Simulator sim;
  netsim::Network net(sim);
  Rng rng(42);

  overlay::DataCenter dc1(net, 0, "dc1");
  overlay::DataCenter dc2(net, 1, "dc2");
  auto registry = std::make_shared<services::FlowRegistry>();
  dc1.install(std::make_shared<services::ForwardingService>());
  dc2.install(std::make_shared<services::ForwardingService>());
  services::CodingParams coding;
  coding.k = 4;
  coding.cross_coded = 1;  // r = 1/4, as the paper's Skype run uses.
  coding.in_coded = 0;     // Skype has its own FEC (s = 0).
  auto encoder = std::make_shared<services::CodingEncoderService>(dc1, coding, registry);
  dc1.install(encoder);
  services::RecoveryParams rp;
  rp.coop_deadline = msec(250);
  dc2.install(std::make_shared<services::RecoveryService>(dc2, rp, registry));

  endpoint::Sender caller(net);
  endpoint::ReceiverConfig rc;
  rc.dc2 = dc2.id();
  rc.rtt_estimate = msec(100);
  rc.recovery_give_up = sec(2);
  std::unordered_map<SeqNo, app::PacketOutcome> outcomes;
  Samples recovery_ms;  // Loss detection -> recovered delivery.
  FlowId call_flow = 0;
  endpoint::Receiver callee(net, rc,
                            [&](const endpoint::DeliveryRecord& rec, const PacketPtr&) {
                              if (rec.recovered && rec.detected_missing_at > 0) {
                                recovery_ms.add(
                                    to_ms(rec.delivered_at - rec.detected_missing_at));
                              }
                              if (rec.flow != call_flow || rec.lost) return;
                              outcomes[rec.seq] = app::PacketOutcome{true, rec.delivered_at};
                            });

  // 50 ms one-way Internet path with a 30 s outage from t = 45 s.
  net.add_link(caller.id(), callee.id(), netsim::make_fixed_latency(msec(50)),
               netsim::make_scheduled_outages(
                   netsim::make_bernoulli_loss(0.002, rng.fork("loss")),
                   {{sec(45), sec(75)}}));
  for (auto [a, b, lat] : {std::tuple{caller.id(), dc1.id(), msec(7)},
                           std::tuple{dc1.id(), dc2.id(), msec(40)},
                           std::tuple{dc2.id(), callee.id(), msec(8)},
                           std::tuple{callee.id(), dc2.id(), msec(8)}}) {
    net.add_link(a, b, netsim::make_fixed_latency(lat), netsim::make_no_loss());
  }

  endpoint::SessionManager sessions(registry);
  endpoint::RegisterRequest req;
  req.force_service = ServiceType::kCode;
  req.dc1 = dc1.id();
  req.dc2 = dc2.id();
  req.delays = {.y_ms = 50.0, .delta_s_ms = 7.0, .delta_r_ms = 8.0, .x_ms = 40.0,
                .delta_r_median_ms = 8.0};
  call_flow = sessions.register_flow(caller, callee, req).flow;

  // Three background flows sharing DC1/DC2 give the encoder cross-stream
  // material (Section 6.3 injects three ~200 Kbps UDP flows).
  std::vector<std::unique_ptr<endpoint::Receiver>> bg_receivers;
  std::vector<std::unique_ptr<transport::CbrApp>> bg_apps;
  for (int i = 0; i < 3; ++i) {
    auto r = std::make_unique<endpoint::Receiver>(net, rc);
    net.add_link(caller.id(), r->id(), netsim::make_fixed_latency(msec(50)),
                 netsim::make_bernoulli_loss(0.001, rng.fork("bg")));
    net.add_link(dc2.id(), r->id(), netsim::make_fixed_latency(msec(8)),
                 netsim::make_no_loss());
    net.add_link(r->id(), dc2.id(), netsim::make_fixed_latency(msec(8)),
                 netsim::make_no_loss());
    const FlowId bg_flow = sessions.register_flow(caller, *r, req).flow;
    transport::CbrParams cbr;
    cbr.on_duration = sec(120);
    cbr.mean_off = sec(1);
    cbr.packets_per_second = 50.0;
    cbr.payload_bytes = 500;
    auto app = std::make_unique<transport::CbrApp>(sim, caller, bg_flow, cbr,
                                                   rng.fork("bg-app"));
    app->start(sec(120));
    bg_receivers.push_back(std::move(r));
    bg_apps.push_back(std::move(app));
  }

  // The call itself: 12 fps, 1.5 Mbps, 120 s.
  app::VideoParams vp;
  app::VideoSource video(sim, caller, call_flow, vp, rng.fork("video"));
  video.start(sec(120));
  sim.run_until(sec(130));

  app::PsnrParams pp;
  pp.playout_deadline = sec(1);
  Rng score_rng(7);
  const Samples psnr = app::score_video(video.layout(), vp, outcomes, pp, score_rng);

  std::printf("video call through a 30 s outage (coding service, r=1/4, s=0):\n");
  std::printf("  frames scored : %zu\n", psnr.count());
  std::printf("  PSNR p10/p50/p90: %.1f / %.1f / %.1f dB\n", psnr.percentile(10),
              psnr.percentile(50), psnr.percentile(90));
  std::printf("  recovered packets: %llu (recovery %s)\n",
              static_cast<unsigned long long>(callee.stats().delivered_recovered),
              summarize_percentiles(recovery_ms).c_str());
  std::printf("  frames >= 35 dB: %.0f%%  (a frozen call would sit near 20 dB)\n",
              100.0 * (1.0 - psnr.cdf_at(35.0)));
  return 0;
}
