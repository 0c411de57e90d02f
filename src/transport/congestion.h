// Pluggable congestion control for the TCP model: the policy half of the
// transport split. TcpWorkload owns the mechanism — handshake, scoreboard
// (send times, SACKs, cumulative ack), RFC 6298 RTT estimation, RTO timer
// arming/backoff, and the actual segment (re)transmission — and delegates
// every policy decision (window growth, loss detection, recovery, pacing)
// to a CongestionController.
//
// Implementations:
//   RenoCc     slow start / congestion avoidance with SACK-hole fast
//              retransmit on a dup-ack threshold. Byte-identical to the
//              pre-refactor hard-coded behavior (pinned by a differential
//              test in tests/tcp_cc_test.cc).
//   RackCc     time-ordered per-segment loss detection with a reorder
//              window (srtt/4) in place of dup-ack counting, after
//              FreeBSD's tcp_stacks/rack.c.
//   BbrLiteCc  delivery-rate estimation + pacing-gain cycling
//              (STARTUP/DRAIN/PROBE_BW) with paced sends via sim timers,
//              after FreeBSD's bbr.c. RACK-style loss detection plus a
//              post-RTO go-back-N sweep; losses are repaired without
//              collapsing the rate; ECN marks are ignored (BBRv1
//              semantics).
//
// See docs/TRANSPORT.md for the full interface contract.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/sim_time.h"

namespace jqos::transport {

enum class CcKind : std::uint8_t { kReno = 0, kRack = 1, kBbrLite = 2 };

const char* cc_kind_name(CcKind k);

class CongestionController;
using CcPtr = std::unique_ptr<CongestionController>;

// TCP constants shared by the mechanism (tcp_model.cc) and the controllers.
inline constexpr std::size_t kTcpMss = 1400;
inline constexpr std::size_t kTcpInitCwnd = 10;        // Segments.
inline constexpr std::size_t kTcpInitSsthresh = 64;    // Segments.
inline constexpr SimDuration kTcpInitialRto = sec(1);  // RFC 6298 pre-measurement RTO.
inline constexpr SimDuration kTcpMinRto = msec(200);
inline constexpr SimDuration kTcpMaxRto = sec(16);
inline constexpr int kTcpDupackThreshold = 3;
inline constexpr int kTcpMaxHandshakeRetries = 7;

struct TcpParams {
  CcKind cc = CcKind::kReno;  // The controller each connection runs.

  // Negotiate ECN: data segments carry ECT, the client echoes CE marks as
  // ECE on its acks, and ECN-aware controllers react. Harmless under the
  // default tail-drop network (nothing ever marks).
  bool ecn = true;
};

// Read-only view of the mechanism's per-segment bookkeeping, lent to the
// controller for the duration of one callback.
struct CcScoreboard {
  std::uint32_t total_segments = 0;
  std::uint32_t highest_acked = 0;  // Cumulative: next segment needed.
  std::uint32_t next_to_send = 0;   // Highest sequence sent + 1.
  const std::set<std::uint32_t>* sacked = nullptr;
  const std::map<std::uint32_t, SimTime>* send_times = nullptr;     // First tx.
  const std::map<std::uint32_t, SimTime>* retransmitted = nullptr;  // Last retx.

  // Unacked, unsacked segments currently outstanding.
  std::size_t inflight() const;
  // One past the highest SACKed segment, or highest_acked + 1 if none —
  // the upper bound of the fast-retransmit and RACK loss scans.
  std::uint32_t above_highest_sacked() const;
  // When `seq` last left the sender (retransmit time if retransmitted,
  // else first-transmission time); -1 if unknown.
  SimTime effective_xmit_time(std::uint32_t seq) const;
};

// One ack arrival, as seen by the controller.
struct CcEvent {
  SimTime now = 0;
  std::uint32_t newly_acked = 0;     // Cumulative advance (0 for a dup ack).
  std::uint32_t newly_sacked = 0;    // Segments newly covered by SACK ranges.
  bool ecn_echo = false;             // ECE flag on this ack.
  SimDuration rtt_sample = -1;       // Fresh RTT sample, or -1.
  SimDuration srtt = 0;              // Smoothed RTT after the update; 0 if unmeasured.
  SimDuration rto = 0;               // The mechanism's current RTO.
  // Max effective transmission time over the segments this ack newly
  // delivered (acked or sacked); -1 if none. RACK's per-ack clock.
  SimTime delivered_xmit_time = -1;
};

// What the controller asks the mechanism to do after an event.
struct CcActions {
  std::vector<std::uint32_t> retransmit;  // Segments to resend, in order.
  bool entered_recovery = false;          // Count a fast retransmit in stats.
  bool rearm_rto = false;
  bool open_window = false;               // Try sending new data afterwards.
};

class CongestionController {
 public:
  virtual ~CongestionController() = default;

  virtual const char* name() const = 0;

  // A fresh transfer begins (per-connection reset).
  virtual void on_transfer_start() = 0;

  // An ack advancing the cumulative point. The mechanism always rearms the
  // RTO and opens the window after this, matching classic behavior.
  virtual void on_ack(const CcEvent& ev, const CcScoreboard& sb, CcActions& out) = 0;

  // A duplicate cumulative ack (possibly with fresh SACK information).
  virtual void on_sack(const CcEvent& ev, const CcScoreboard& sb, CcActions& out) = 0;

  // The retransmission timer fired (the mechanism resends the first hole
  // and backs the RTO off; the controller adjusts its window).
  virtual void on_rto() = 0;

  // May another segment enter the network given `inflight` outstanding?
  virtual bool can_send(std::size_t inflight) const = 0;

  // Pacing rate in bits/s of segment payload; 0 disables pacing (sends are
  // ack-clocked bursts, the classic behavior).
  virtual double pacing_rate_bps() const { return 0.0; }
};

// Builds a controller of the given kind.
CcPtr make_congestion_controller(CcKind kind);

// Per-variant factories (one per implementation file).
CcPtr make_reno_cc();
CcPtr make_rack_cc();
CcPtr make_bbr_lite_cc();

namespace detail {
// The hole scan shared by Reno's fast retransmit (bounded by
// above_highest_sacked()) and BBR-lite's post-RTO go-back-N sweep (bounded
// by next_to_send): every unsacked segment in [highest_acked, high) not
// retransmitted within the last RTO, in sequence order.
void collect_sack_holes(const CcScoreboard& sb, std::uint32_t high, SimTime now,
                        SimDuration rto, std::vector<std::uint32_t>& out);

// RACK's loss scan, shared by RackCc and BbrLiteCc: every unsacked segment
// below the highest SACK that last left the sender at least a reorder
// window (max(srtt/4, 1 ms)) before `rack_xmit_time`, the latest
// transmission time among delivered segments. A negative clock (nothing
// delivered yet) flags nothing.
void collect_rack_losses(const CcScoreboard& sb, SimTime rack_xmit_time, SimDuration srtt,
                         std::vector<std::uint32_t>& out);
}  // namespace detail

}  // namespace jqos::transport
