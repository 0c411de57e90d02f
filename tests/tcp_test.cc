// Tests for the TCP model: segment wire format, clean-path transfers,
// loss recovery via retransmission, and the J-QoS interception benefit
// (Section 6.4 in miniature).
#include <gtest/gtest.h>

#include <map>

#include "app/web.h"
#include "netsim/network.h"
#include "overlay/datacenter.h"
#include "services/caching/caching_service.h"
#include "services/coding/encoder_dc.h"
#include "services/coding/recovery_dc.h"
#include "services/forwarding/forwarding_service.h"
#include "transport/tcp_model.h"

namespace jqos::transport {
namespace {

TEST(TcpSegment, SerializeParseRoundTrip) {
  TcpSegment seg;
  seg.conn_id = 7;
  seg.flags = TcpSegment::kData | TcpSegment::kAck;
  seg.seq = 12;
  seg.ack = 10;
  seg.total_segments = 36;
  seg.sacks = {{14, 16}, {20, 21}};
  auto parsed = TcpSegment::parse(seg.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->conn_id, seg.conn_id);
  EXPECT_EQ(parsed->flags, seg.flags);
  EXPECT_EQ(parsed->seq, seg.seq);
  EXPECT_EQ(parsed->ack, seg.ack);
  EXPECT_EQ(parsed->total_segments, seg.total_segments);
  EXPECT_EQ(parsed->sacks, seg.sacks);
}

TEST(TcpSegment, PaddingPreservesHeader) {
  TcpSegment seg;
  seg.conn_id = 1;
  seg.flags = TcpSegment::kData;
  auto bytes = seg.serialize(1400);
  EXPECT_EQ(bytes.size(), 1400u);
  auto parsed = TcpSegment::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->conn_id, 1u);
}

TEST(TcpSegment, ParseRejectsTruncated) {
  TcpSegment seg;
  auto bytes = seg.serialize();
  bytes.resize(5);
  EXPECT_FALSE(TcpSegment::parse(bytes).has_value());
}

// A miniature client/server topology. Optionally adds a J-QoS overlay
// (DC near server and DC near client) used when the session template asks
// for a service.
struct TcpFixture {
  netsim::Simulator sim;
  netsim::Network net{sim};
  endpoint::Sender server{net};
  std::unique_ptr<endpoint::Receiver> client;
  std::unique_ptr<overlay::DataCenter> dc1, dc2;
  services::FlowRegistryPtr registry = std::make_shared<services::FlowRegistry>();
  std::unique_ptr<endpoint::SessionManager> sessions;

  // p_first/p_subsequent: Google-study burst loss on the server->client
  // direction (the data direction).
  TcpFixture(double p_first, double p_subsequent, bool with_jqos) {
    if (with_jqos) {
      dc1 = std::make_unique<overlay::DataCenter>(net, 0, "dc1");
      dc2 = std::make_unique<overlay::DataCenter>(net, 1, "dc2");
      dc1->install(std::make_shared<services::ForwardingService>());
      dc2->install(std::make_shared<services::ForwardingService>());
      services::CodingParams cp;
      cp.k = 4;
      cp.in_block = 16;
      cp.queue_timeout = msec(10);
      dc1->install(std::make_shared<services::CodingEncoderService>(*dc1, cp, registry));
      dc2->install(
          std::make_shared<services::RecoveryService>(*dc2, services::RecoveryParams{},
                                                      registry));
    }

    endpoint::ReceiverConfig rc;
    rc.rtt_estimate = msec(200);
    rc.recovery_give_up = msec(200);
    if (with_jqos) rc.dc2 = dc2->id();
    client = std::make_unique<endpoint::Receiver>(net, rc);

    // Direct path: 100 ms one way => 200 ms RTT (the paper's setup).
    net.add_link(server.id(), client->id(), netsim::make_fixed_latency(msec(100)),
                 netsim::make_google_burst(p_first, p_subsequent, Rng(1)));
    net.add_link(client->id(), server.id(), netsim::make_fixed_latency(msec(100)),
                 netsim::make_bernoulli_loss(p_first, Rng(2)));

    if (with_jqos) {
      // 30 ms access links, 100 ms inter-DC (Section 6.4's topology).
      for (auto [a, b, lat] : {std::tuple{server.id(), dc1->id(), msec(30)},
                               std::tuple{dc1->id(), dc2->id(), msec(100)},
                               std::tuple{dc2->id(), client->id(), msec(30)},
                               std::tuple{client->id(), dc2->id(), msec(30)}}) {
        net.add_link(a, b, netsim::make_fixed_latency(lat), netsim::make_no_loss());
      }
    }
    sessions = std::make_unique<endpoint::SessionManager>(registry);
  }

  endpoint::RegisterRequest session_template(bool with_jqos) {
    endpoint::RegisterRequest req;
    req.delays.y_ms = 100.0;
    req.delays.delta_s_ms = 30.0;
    req.delays.delta_r_ms = 30.0;
    req.delays.x_ms = 100.0;
    if (with_jqos) {
      req.force_service = ServiceType::kCode;
      req.dc1 = dc1->id();
      req.dc2 = dc2->id();
    } else {
      req.force_service = ServiceType::kNone;
    }
    return req;
  }
};

// The model's guarantees below hold whichever controller a connection runs.
constexpr CcKind kCcKinds[] = {CcKind::kReno, CcKind::kRack, CcKind::kBbrLite};

TEST(TcpModel, CleanPathTransferCompletes) {
  for (const CcKind cc : kCcKinds) {
    SCOPED_TRACE(cc_kind_name(cc));
    TcpFixture f(0.0, 0.0, /*with_jqos=*/false);
    TcpWorkload workload(f.net, f.server, *f.client, *f.sessions,
                         f.session_template(false), TcpParams{.cc = cc});
    bool done = false;
    workload.run(3, 50 * 1000, 12, [&done] { done = true; });
    f.sim.run_until(minutes(5));
    EXPECT_TRUE(done);
    EXPECT_EQ(workload.completed(), 3u);
    ASSERT_EQ(workload.fct_ms().count(), 3u);
    // 50 KB at 200 ms RTT with IW10: handshake + request + ~2 windows of
    // data: roughly 3-4 RTTs, well under 2 s.
    EXPECT_LT(workload.fct_ms().max(), 2000.0);
    EXPECT_GT(workload.fct_ms().min(), 400.0);  // At least 2 RTTs.
    EXPECT_EQ(workload.server_stats().timeouts, 0u);
  }
}

TEST(TcpModel, RecoversFromLossesWithoutJqos) {
  for (const CcKind cc : kCcKinds) {
    SCOPED_TRACE(cc_kind_name(cc));
    TcpFixture f(0.02, 0.5, /*with_jqos=*/false);
    TcpWorkload workload(f.net, f.server, *f.client, *f.sessions,
                         f.session_template(false), TcpParams{.cc = cc});
    bool done = false;
    workload.run(30, 50 * 1000, 12, [&done] { done = true; });
    f.sim.run_until(minutes(60));
    EXPECT_TRUE(done);
    EXPECT_EQ(workload.completed(), 30u);
    // Losses occurred and were repaired by TCP itself.
    EXPECT_GT(workload.server_stats().retransmits + workload.server_stats().timeouts, 0u);
  }
}

TEST(TcpModel, JqosReducesTailLatency) {
  // The Section 6.4 effect, miniaturized: with bursty loss, plain TCP's
  // FCT tail stretches to multi-second RTO territory; with J-QoS recovery
  // feeding early ACKs, the tail shrinks.
  auto run_case = [](bool with_jqos, CcKind cc) {
    TcpFixture f(0.03, 0.6, with_jqos);
    TcpWorkload workload(f.net, f.server, *f.client, *f.sessions,
                         f.session_template(with_jqos), TcpParams{.cc = cc});
    bool done = false;
    workload.run(80, 50 * 1000, 12, [&done] { done = true; });
    f.sim.run_until(minutes(200));
    EXPECT_TRUE(done);
    return workload.fct_ms().percentile(95);
  };
  for (const CcKind cc : kCcKinds) {
    SCOPED_TRACE(cc_kind_name(cc));
    const double tail_plain = run_case(false, cc);
    const double tail_jqos = run_case(true, cc);
    EXPECT_LT(tail_jqos, tail_plain);
  }
}

TEST(TcpModel, HandshakeLossHandledByRetransmission) {
  // Drop everything for the first second: SYN retransmission with backoff
  // must eventually connect and finish.
  for (const CcKind cc : kCcKinds) {
    SCOPED_TRACE(cc_kind_name(cc));
    TcpFixture f(0.0, 0.0, /*with_jqos=*/false);
    // Replace the forward link with a scheduled outage at the start.
    f.net.add_link(f.server.id(), f.client->id(), netsim::make_fixed_latency(msec(100)),
                   netsim::make_scheduled_outages(netsim::make_no_loss(),
                                                  {{0, sec(1)}}));
    f.net.add_link(f.client->id(), f.server.id(), netsim::make_fixed_latency(msec(100)),
                   netsim::make_scheduled_outages(netsim::make_no_loss(),
                                                  {{0, sec(1)}}));
    TcpWorkload workload(f.net, f.server, *f.client, *f.sessions,
                         f.session_template(false), TcpParams{.cc = cc});
    bool done = false;
    workload.run(1, 20 * 1000, 12, [&done] { done = true; });
    f.sim.run_until(minutes(5));
    EXPECT_TRUE(done);
    // The handshake stall shows up as a >1 s completion.
    EXPECT_GT(workload.fct_ms().max(), 1000.0);
  }
}

// Every timer a transfer arms dies with it. 200 ms after the run finishes
// (the completion callback fires 10 ms after the last transfer ends), the
// one event left pending is the receiver's flow timer.
TEST(TcpModel, NoTimerOutlivesItsTransfer) {
  for (const CcKind cc : kCcKinds) {
    SCOPED_TRACE(cc_kind_name(cc));
    TcpFixture f(0.0, 0.0, /*with_jqos=*/false);
    TcpWorkload workload(f.net, f.server, *f.client, *f.sessions,
                         f.session_template(false), TcpParams{.cc = cc});
    std::size_t pending = 0;
    workload.run(1, 50 * 1000, 12, [&f, &pending] {
      f.sim.after(msec(200), [&f, &pending] { pending = f.sim.queue().size(); });
    });
    f.sim.run();
    EXPECT_EQ(workload.completed(), 1u);
    EXPECT_EQ(pending, 1u);
  }
}

// A pacing controller's repairs queue and leave at the paced rate. Repairs
// still queued when a transfer completes belong to that transfer; sent in
// the next one, they would go out as retransmissions of its segments of
// the same numbers before their first transmission. BBR over a lossy 2 Mbps
// RED bottleneck leaves such a queue behind. The server's duplicate filter
// sees every segment it transmits and refuses every cloud copy, so the
// flows stay plain TCP on the direct path.
TEST(TcpModel, PacedRepairsDieWithTheirTransfer) {
  netsim::Simulator sim;
  netsim::Network net(sim, 31);
  Rng rng(31);
  auto registry = std::make_shared<services::FlowRegistry>();
  endpoint::Sender server(net);
  endpoint::Receiver client(net, endpoint::ReceiverConfig{});
  netsim::QdiscConfig red;
  red.kind = netsim::QdiscKind::kRed;
  red.limit_bytes = 16 * 1024;
  net.add_link(server.id(), client.id(), netsim::make_fixed_latency(msec(71)),
               netsim::make_bernoulli_loss(0.02, rng.fork("f")), 2e6, red);
  net.add_link(client.id(), server.id(), netsim::make_fixed_latency(msec(71)),
               netsim::make_bernoulli_loss(0.01, rng.fork("r")));

  std::map<std::uint32_t, std::uint32_t> next_new;  // Per connection.
  std::size_t sent_before_first_transmission = 0;
  endpoint::RegisterRequest req;
  req.force_service = ServiceType::kForward;
  req.dc1 = net.allocate_id();  // No node: the filter never lets a copy out.
  req.duplicate_filter = [&](const Packet& pkt) {
    const auto seg = TcpSegment::parse(pkt.payload);
    if (seg && (seg->flags & TcpSegment::kData) != 0) {
      std::uint32_t& next = next_new[seg->conn_id];
      if (seg->seq == next) ++next;
      if (seg->seq > next) ++sent_before_first_transmission;
    }
    return false;
  };
  endpoint::SessionManager sessions(registry);
  TcpWorkload workload(net, server, client, sessions, req,
                       TcpParams{.cc = CcKind::kBbrLite});
  workload.run(30, 100 * 1000);
  sim.run();
  EXPECT_EQ(workload.completed(), 30u);
  EXPECT_GT(workload.server_stats().retransmits, 0u);
  EXPECT_EQ(sent_before_first_transmission, 0u);
}

TEST(WebWorkload, WrapperRunsToCompletion) {
  for (const CcKind cc : kCcKinds) {
    SCOPED_TRACE(cc_kind_name(cc));
    TcpFixture f(0.01, 0.5, /*with_jqos=*/false);
    app::WebWorkloadParams params;
    params.tcp.cc = cc;
    params.requests = 10;
    params.response_bytes = 20 * 1000;
    auto result = app::run_web_workload(f.net, f.server, *f.client, *f.sessions,
                                        f.session_template(false), params);
    EXPECT_EQ(result.completed, 10u);
    EXPECT_EQ(result.fct_ms.count(), 10u);
    EXPECT_GT(result.acks, 0u);
  }
}

}  // namespace
}  // namespace jqos::transport
