// Section 6.4 / design-decision D3 ablation: the two-state Markov timeout
// vs a single fixed timeout, measured as NACK traffic to DC2 for a TCP-like
// windowed sender ("the two state approach results in 5x fewer NACKs").
// Flags: --json emits the NACK counts and ratio as JSON Lines rows.
#include <cstdio>

#include "bench_json.h"
#include "endpoint/receiver.h"
#include "exp/report.h"
#include "netsim/network.h"

namespace {

using namespace jqos;

struct NackCounter final : netsim::Node {
  explicit NackCounter(netsim::Network& net) : id_(net.allocate_id()) { net.attach(*this); }
  NodeId id() const override { return id_; }
  void handle_packet(const PacketPtr& pkt) override {
    if (pkt->type == PacketType::kNack) ++nacks;
  }
  NodeId id_;
  std::uint64_t nacks = 0;
};

// A TCP-like sender pattern: windows of back-to-back packets (1 ms apart)
// separated by an RTT of silence, with occasional longer idle periods
// between transfers.
std::uint64_t run_case(bool use_markov, std::uint64_t seed) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  Rng rng(seed);
  NackCounter dc(net);

  endpoint::ReceiverConfig rc;
  rc.dc2 = dc.id();
  rc.rtt_estimate = msec(200);
  rc.use_markov = use_markov;
  rc.markov.adaptive = true;
  endpoint::Receiver receiver(net, rc);
  receiver.expect_flow(1);
  net.add_link(receiver.id(), dc.id(), netsim::make_fixed_latency(msec(10)),
               netsim::make_no_loss());
  net.add_link(dc.id(), receiver.id(), netsim::make_fixed_latency(msec(10)),
               netsim::make_no_loss());

  // 40 transfers of 6 windows each; windows of 10 segments.
  SimTime t = 0;
  SeqNo seq = 0;
  for (int transfer = 0; transfer < 40; ++transfer) {
    for (int window = 0; window < 6; ++window) {
      for (int i = 0; i < 10; ++i) {
        const SeqNo s = seq++;
        sim.at(t, [&receiver, s, t] {
          auto p = std::make_shared<Packet>();
          p->type = PacketType::kData;
          p->flow = 1;
          p->seq = s;
          p->sent_at = t;
          p->payload.assign(64, 0);
          receiver.handle_packet(p);
        });
        t += msec(1);
      }
      t += msec(190);  // Rest of the RTT: the window gap.
    }
    t += sec(2) + static_cast<SimDuration>(rng.uniform_int(0, msec(500)));
  }
  sim.run_until(t + sec(5));
  return dc.nacks;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jqos;
  const bool json = bench::want_json(argc, argv);
  if (!json) std::printf("== Ablation D3: two-state Markov timeout vs single timeout ==\n");

  const std::uint64_t markov_nacks = run_case(true, 1);
  const std::uint64_t single_nacks = run_case(false, 1);

  if (json) {
    const double ratio = markov_nacks == 0
                             ? static_cast<double>(single_nacks)
                             : static_cast<double>(single_nacks) /
                                   static_cast<double>(markov_nacks);
    bench::JsonRow("tcp_markov")
        .add("name", "spurious_nacks")
        .add("detector", "markov")
        .add("nacks", markov_nacks)
        .emit();
    bench::JsonRow("tcp_markov")
        .add("name", "spurious_nacks")
        .add("detector", "single_timeout")
        .add("nacks", single_nacks)
        .emit();
    bench::JsonRow("tcp_markov").add("name", "ratio").add("x_fewer_with_markov", ratio).emit();
    return 0;
  }

  exp::Table t({"loss detector", "NACKs sent (no losses present)"});
  t.add_row({"two-state Markov", std::to_string(markov_nacks)});
  t.add_row({"single 25 ms timeout", std::to_string(single_nacks)});
  t.print("spurious NACK traffic for a TCP-like windowed sender");

  const double ratio = markov_nacks == 0
                           ? static_cast<double>(single_nacks)
                           : static_cast<double>(single_nacks) /
                                 static_cast<double>(markov_nacks);
  exp::print_claim("Sec6.4 Markov model reduces overhead",
                   "5x fewer NACKs than a single timeout",
                   exp::Table::num(ratio, 1) + "x fewer NACKs with the Markov model");
  return 0;
}
