// BBR-lite (after FreeBSD's bbr.c / BBRv1, reduced to the pieces that
// matter at segment granularity): model the path by its bottleneck
// bandwidth (windowed-max delivery rate) and round-trip propagation delay
// (min RTT), pace sends at pacing_gain * btl_bw, and cap inflight at
// cwnd_gain * BDP. STARTUP doubles the rate each round until the bandwidth
// estimate plateaus, DRAIN empties the startup queue, then PROBE_BW cycles
// gains [1.25, 0.75, 1 x6]. Losses are repaired via a dup-ack hole scan
// but do not collapse the rate model; ECN marks are ignored (BBRv1
// semantics); an RTO resets to conservative bootstrap state.
//
// Loss detection is RACK-style (RFC 8985), matching how BBR actually ships
// in Linux and FreeBSD: a hole is declared lost when a segment transmitted
// after it has been delivered and a reorder window (srtt/4) has elapsed --
// no dup-ack counting. After an RTO the first ack triggers a go-back-N
// sweep of every remaining hole (classic post-timeout slow-start resend),
// so a burst of tail drops costs one timeout, not one timeout per hole.
#include <algorithm>
#include <deque>

#include "transport/congestion.h"

namespace jqos::transport {
namespace {

constexpr double kStartupGain = 2.885;  // 2/ln(2): fills the pipe in log2 rounds.
constexpr double kDrainGain = 1.0 / kStartupGain;
constexpr double kProbeBwGains[] = {1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
constexpr double kCwndGain = 2.0;
constexpr int kBwWindowRounds = 10;   // Max-filter horizon.
constexpr int kStartupPlateauRounds = 3;
constexpr std::size_t kMinCwnd = 4;   // Segments.

class BbrLiteCc final : public CongestionController {
 public:
  const char* name() const override { return "bbr"; }

  void on_transfer_start() override {
    mode_ = Mode::kStartup;
    pacing_gain_ = kStartupGain;
    bw_samples_.clear();
    min_rtt_ = -1;
    delivered_ = 0;
    last_ack_time_ = -1;
    last_sample_delivered_ = 0;
    round_ = 0;
    round_end_seq_ = 0;
    full_bw_ = 0.0;
    full_bw_rounds_ = 0;
    cycle_index_ = 0;
    rack_xmit_time_ = -1;
    go_back_n_ = false;
    recovery_until_ = 0;
  }

  void on_ack(const CcEvent& ev, const CcScoreboard& sb, CcActions& out) override {
    update_model(ev, sb);
    detect_losses(ev, sb, out);
  }

  void on_sack(const CcEvent& ev, const CcScoreboard& sb, CcActions& out) override {
    update_model(ev, sb);
    detect_losses(ev, sb, out);
  }

  void on_rto() override {
    // Back to bootstrap: trust nothing but the minimum window until acks
    // rebuild the model.
    bw_samples_.clear();
    full_bw_ = 0.0;
    full_bw_rounds_ = 0;
    mode_ = Mode::kStartup;
    pacing_gain_ = kStartupGain;
    rack_xmit_time_ = -1;  // Stale after the backoff; rebuild from fresh acks.
    go_back_n_ = true;
  }

  // Inflight is capped at cwnd_gain x BDP, or the initial window before
  // the first bandwidth and RTT samples.
  bool can_send(std::size_t inflight) const override {
    const double bdp = bdp_segments();
    const double cwnd = bdp <= 0.0 ? static_cast<double>(kTcpInitCwnd)
                                   : std::max(static_cast<double>(kMinCwnd), kCwndGain * bdp);
    return inflight < static_cast<std::size_t>(cwnd);
  }

  double pacing_rate_bps() const override {
    const double bw = btl_bw();  // Segments per microsecond.
    if (bw <= 0.0) return 0.0;   // Unpaced until the first rate sample.
    return bw * pacing_gain_ * static_cast<double>(kTcpMss) * 8.0 * 1e6;
  }

 private:
  enum class Mode { kStartup, kDrain, kProbeBw };

  double btl_bw() const {
    double best = 0.0;
    for (const auto& [round, bw] : bw_samples_) best = std::max(best, bw);
    return best;
  }

  double bdp_segments() const {
    const double bw = btl_bw();
    if (bw <= 0.0 || min_rtt_ <= 0) return 0.0;
    return bw * static_cast<double>(min_rtt_);
  }

  // RACK-style: a hole is lost once delivery evidence postdates it by a
  // reorder window. Repair the holes but keep the rate model -- BBR treats
  // loss as a signal about buffers, not bandwidth. After an RTO, sweep
  // every remaining hole instead: tail drops leave no later delivery to
  // supply RACK evidence, and repairing them one timeout at a time is the
  // exponential-backoff chain this sweep exists to break.
  void detect_losses(const CcEvent& ev, const CcScoreboard& sb, CcActions& out) {
    if (go_back_n_) {
      go_back_n_ = false;
      detail::collect_sack_holes(sb, sb.next_to_send, ev.now, ev.rto, out.retransmit);
    } else {
      detail::collect_rack_losses(sb, rack_xmit_time_, ev.srtt, out.retransmit);
    }
    if (out.retransmit.empty()) return;
    if (sb.highest_acked >= recovery_until_) {
      out.entered_recovery = true;
      recovery_until_ = sb.next_to_send;
    }
    out.rearm_rto = true;
  }

  void update_model(const CcEvent& ev, const CcScoreboard& sb) {
    rack_xmit_time_ = std::max(rack_xmit_time_, ev.delivered_xmit_time);
    delivered_ += ev.newly_acked + ev.newly_sacked;
    if (ev.rtt_sample > 0) {
      min_rtt_ = min_rtt_ < 0 ? ev.rtt_sample : std::min(min_rtt_, ev.rtt_sample);
    }

    // Round accounting: a round ends when the cumulative point passes the
    // highest sequence outstanding when the round began.
    const bool round_ended = sb.highest_acked >= round_end_seq_;
    if (round_ended) {
      ++round_;
      round_end_seq_ = sb.next_to_send;
    }

    // Delivery-rate sample: segments delivered since the last ack, over the
    // inter-ack time. Windowed max approximates the bottleneck bandwidth.
    if (last_ack_time_ >= 0 && ev.now > last_ack_time_) {
      const double rate = static_cast<double>(delivered_ - last_sample_delivered_) /
                          static_cast<double>(ev.now - last_ack_time_);
      bw_samples_.emplace_back(round_, rate);
    }
    last_ack_time_ = ev.now;
    last_sample_delivered_ = delivered_;
    while (!bw_samples_.empty() && bw_samples_.front().first + kBwWindowRounds < round_) {
      bw_samples_.pop_front();
    }

    if (round_ended) advance_state(sb);
  }

  void advance_state(const CcScoreboard& sb) {
    switch (mode_) {
      case Mode::kStartup: {
        // Exit when the bandwidth estimate stops growing 25% per round.
        const double bw = btl_bw();
        if (bw > full_bw_ * 1.25) {
          full_bw_ = bw;
          full_bw_rounds_ = 0;
        } else if (++full_bw_rounds_ >= kStartupPlateauRounds) {
          mode_ = Mode::kDrain;
          pacing_gain_ = kDrainGain;
        }
        break;
      }
      case Mode::kDrain:
        if (static_cast<double>(sb.inflight()) <= bdp_segments()) {
          mode_ = Mode::kProbeBw;
          cycle_index_ = 0;
          pacing_gain_ = kProbeBwGains[0];
        }
        break;
      case Mode::kProbeBw:
        cycle_index_ = (cycle_index_ + 1) % (sizeof(kProbeBwGains) / sizeof(double));
        pacing_gain_ = kProbeBwGains[cycle_index_];
        break;
    }
  }

  Mode mode_ = Mode::kStartup;
  double pacing_gain_ = kStartupGain;
  std::deque<std::pair<std::uint64_t, double>> bw_samples_;  // (round, segs/us).
  SimDuration min_rtt_ = -1;
  std::uint64_t delivered_ = 0;
  SimTime last_ack_time_ = -1;
  std::uint64_t last_sample_delivered_ = 0;
  std::uint64_t round_ = 0;
  std::uint32_t round_end_seq_ = 0;
  double full_bw_ = 0.0;
  int full_bw_rounds_ = 0;
  std::size_t cycle_index_ = 0;
  SimTime rack_xmit_time_ = -1;  // Latest delivered segment's xmit time.
  bool go_back_n_ = false;       // Armed by an RTO; next ack sweeps all holes.
  std::uint32_t recovery_until_ = 0;
};

}  // namespace

CcPtr make_bbr_lite_cc() { return std::make_unique<BbrLiteCc>(); }

}  // namespace jqos::transport
