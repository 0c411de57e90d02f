// Reno with SACK-hole fast retransmit: the policy that was hard-coded in
// TcpWorkload before the congestion-control split. Every decision here is a
// line-for-line transplant of the old code, and the differential test in
// tests/tcp_cc_test.cc pins the combination byte-identical to pre-refactor
// FCT traces. Change this file only together with that golden.
#include <algorithm>

#include "transport/congestion.h"

namespace jqos::transport {
namespace {

class RenoCc final : public CongestionController {
 public:
  const char* name() const override { return "reno"; }

  void on_transfer_start() override {
    cwnd_ = static_cast<double>(kTcpInitCwnd);
    ssthresh_ = static_cast<double>(kTcpInitSsthresh);
    dup_acks_ = 0;
    cwr_until_ = 0;
  }

  void on_ack(const CcEvent& ev, const CcScoreboard& sb, CcActions& out) override {
    (void)out;  // New data flows via the mechanism's unconditional window-open.
    dup_acks_ = 0;
    if (ev.ecn_echo && maybe_ecn_backoff(sb)) return;  // RFC 3168: no growth on ECE.
    if (cwnd_ < ssthresh_) {
      cwnd_ += ev.newly_acked;  // Slow start.
    } else {
      cwnd_ += static_cast<double>(ev.newly_acked) / cwnd_;  // Congestion avoidance.
    }
  }

  void on_sack(const CcEvent& ev, const CcScoreboard& sb, CcActions& out) override {
    if (ev.ecn_echo) maybe_ecn_backoff(sb);
    ++dup_acks_;
    if (dup_acks_ < kTcpDupackThreshold) return;
    dup_acks_ = 0;
    out.entered_recovery = true;
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
    cwnd_ = ssthresh_;
    // SACK-style: retransmit every hole below the highest SACKed segment,
    // unless it was retransmitted within the last RTO.
    detail::collect_sack_holes(sb, sb.above_highest_sacked(), ev.now, ev.rto, out.retransmit);
    out.rearm_rto = true;
  }

  void on_rto() override {
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
    cwnd_ = 1.0;
    dup_acks_ = 0;
  }

  bool can_send(std::size_t inflight) const override {
    return inflight < static_cast<std::size_t>(cwnd_);
  }

 private:
  // Classic ECN response: halve once per window of data, like a loss but
  // without a retransmission. Returns true if a cut was taken.
  bool maybe_ecn_backoff(const CcScoreboard& sb) {
    if (sb.highest_acked < cwr_until_) return false;
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
    cwnd_ = ssthresh_;
    cwr_until_ = sb.next_to_send;
    return true;
  }

  double cwnd_ = 10.0;
  double ssthresh_ = 64.0;
  int dup_acks_ = 0;
  std::uint32_t cwr_until_ = 0;  // Sequence ending the current ECN backoff window.
};

}  // namespace

CcPtr make_reno_cc() { return std::make_unique<RenoCc>(); }

}  // namespace jqos::transport
