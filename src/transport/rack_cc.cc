// RACK-style loss detection (after FreeBSD's tcp_stacks/rack.c and RFC
// 8985, heavily simplified for the segment-granularity model): a segment is
// declared lost when some segment sent *after* it has already been
// delivered and a reorder window (srtt/4) has passed — no dup-ack counting.
// Window growth stays Reno-shaped (slow start / congestion avoidance with
// one multiplicative cut per recovery episode), so the difference under
// test is purely the loss-detection clock.
#include <algorithm>

#include "transport/congestion.h"

namespace jqos::transport {
namespace {

class RackCc final : public CongestionController {
 public:
  const char* name() const override { return "rack"; }

  void on_transfer_start() override {
    cwnd_ = static_cast<double>(kTcpInitCwnd);
    ssthresh_ = static_cast<double>(kTcpInitSsthresh);
    rack_xmit_time_ = -1;
    recovery_until_ = 0;
    cwr_until_ = 0;
  }

  void on_ack(const CcEvent& ev, const CcScoreboard& sb, CcActions& out) override {
    advance_rack_clock(ev);
    const bool ecn_cut = ev.ecn_echo && maybe_backoff(sb, &cwr_until_);
    if (!ecn_cut) {
      if (cwnd_ < ssthresh_) {
        cwnd_ += ev.newly_acked;
      } else {
        cwnd_ += static_cast<double>(ev.newly_acked) / cwnd_;
      }
    }
    detect_losses(ev, sb, out);
  }

  void on_sack(const CcEvent& ev, const CcScoreboard& sb, CcActions& out) override {
    advance_rack_clock(ev);
    if (ev.ecn_echo) maybe_backoff(sb, &cwr_until_);
    detect_losses(ev, sb, out);
  }

  void on_rto() override {
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
    cwnd_ = 1.0;
    rack_xmit_time_ = -1;  // Stale after the backoff; rebuild from fresh acks.
  }

  bool can_send(std::size_t inflight) const override {
    return inflight < static_cast<std::size_t>(cwnd_);
  }

 private:
  void advance_rack_clock(const CcEvent& ev) {
    // The most recent transmission time among delivered segments: anything
    // sent a reorder-window before it and still missing is lost.
    rack_xmit_time_ = std::max(rack_xmit_time_, ev.delivered_xmit_time);
  }

  void detect_losses(const CcEvent& ev, const CcScoreboard& sb, CcActions& out) {
    detail::collect_rack_losses(sb, rack_xmit_time_, ev.srtt, out.retransmit);
    if (out.retransmit.empty()) return;
    if (maybe_backoff(sb, &recovery_until_)) out.entered_recovery = true;
    out.rearm_rto = true;
  }

  // One multiplicative cut per window of data, shared by loss recovery and
  // the ECN response; `*until` marks the episode boundary.
  bool maybe_backoff(const CcScoreboard& sb, std::uint32_t* until) {
    if (sb.highest_acked < *until) return false;
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
    cwnd_ = ssthresh_;
    *until = sb.next_to_send;
    return true;
  }

  double cwnd_ = 10.0;
  double ssthresh_ = 64.0;
  SimTime rack_xmit_time_ = -1;     // Latest delivered segment's xmit time.
  std::uint32_t recovery_until_ = 0;
  std::uint32_t cwr_until_ = 0;
};

}  // namespace

CcPtr make_rack_cc() { return std::make_unique<RackCc>(); }

}  // namespace jqos::transport
