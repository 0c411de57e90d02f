// Simplified-but-faithful TCP over the simulator, for the Section 6.4 case
// study (short web transfers under the Google study's bursty loss model).
//
// The model captures exactly the mechanisms that experiment is about:
//  * three-way-handshake losses (SYN / SYN-ACK retransmission with 1 s
//    initial RTO and exponential backoff -- the dominant tail contributor);
//  * sender-side congestion control and loss recovery, delegated to a
//    pluggable CongestionController (Reno / RACK / BBR-lite; see
//    transport/congestion.h), plus RTO with exponential backoff;
//  * ECN: data segments carry ECT, AQM queue discs may CE-mark them, the
//    client echoes marks back as ECE acks, and ECN-aware controllers back
//    off without a loss;
//  * the J-QoS interception trick: data segments travel through the J-QoS
//    reliability layer, so a packet recovered by J-QoS reaches the client's
//    TCP which ACKs it immediately, hiding the loss from the server and
//    avoiding the timeout.
//
// TcpWorkload is the mechanism shell: handshake, scoreboard bookkeeping,
// RFC 6298 RTT estimation, timer plumbing (RTO + pacing release), and the
// actual segment transmission. All policy -- window growth, when a segment
// is lost, what to retransmit, how fast to pace -- lives in the controller.
//
// One TcpWorkload object drives N sequential request/response transfers
// between a client host (a jqos::endpoint::Receiver) and a server host (a
// jqos::endpoint::Sender) and records flow completion times.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/stats.h"
#include "endpoint/receiver.h"
#include "endpoint/sender.h"
#include "endpoint/session.h"
#include "netsim/simulator.h"
#include "transport/congestion.h"

namespace jqos::transport {

// TCP segment header carried inside the J-QoS packet payload.
struct TcpSegment {
  std::uint32_t conn_id = 0;
  enum Flags : std::uint8_t {
    kSyn = 1 << 0,
    kAck = 1 << 1,
    kReq = 1 << 2,   // The client's application request.
    kData = 1 << 3,
    kFin = 1 << 4,
    kEce = 1 << 5,   // ECN echo: the segment this acks arrived CE-marked.
  };
  std::uint8_t flags = 0;
  std::uint32_t seq = 0;            // Segment index within the response.
  std::uint32_t ack = 0;            // Cumulative: next segment needed.
  std::uint32_t total_segments = 0; // Set by the server on data/SYN-ACK.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sacks;  // [lo, hi)

  std::vector<std::uint8_t> serialize(std::size_t pad_to = 0) const;
  static std::optional<TcpSegment> parse(std::span<const std::uint8_t> data);
};

struct TcpServerStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t synack_sent = 0;
  std::uint64_t synack_retransmits = 0;
  std::uint64_t ecn_echoes = 0;  // Acks received carrying ECE.
};

class TcpWorkload {
 public:
  // `session_template` supplies the J-QoS service configuration each
  // transfer's flow is registered with (force_service = std::nullopt plus
  // dc1 == kInvalidNode yields plain TCP with no J-QoS involvement).
  TcpWorkload(netsim::Network& net, endpoint::Sender& server, endpoint::Receiver& client,
              endpoint::SessionManager& sessions, endpoint::RegisterRequest session_template,
              const TcpParams& params);

  // Runs `n` sequential transfers of `response_bytes` each; `request_bytes`
  // models the tiny upstream request (12 B in the paper).
  void run(std::size_t n, std::size_t response_bytes, std::size_t request_bytes = 12,
           std::function<void()> on_all_done = {});

  const Samples& fct_ms() const { return fct_ms_; }
  const TcpServerStats& server_stats() const { return server_stats_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::size_t completed() const { return completed_; }
  const CongestionController& cc() const { return *cc_; }

 private:
  // ---- client side ----
  void start_next_transfer();
  void client_send_syn();
  void client_send_request();
  void client_send_ack();
  void client_on_segment(const TcpSegment& seg, bool ce_marked);
  void client_handshake_timer_fired();
  void client_stamp_and_send(std::vector<std::uint8_t> payload);

  // ---- server side ----
  void server_on_packet(const PacketPtr& pkt);
  void server_send_synack();
  void server_begin_response();
  void server_send_window();
  void server_send_segment(std::uint32_t seq, bool retransmit);
  void server_on_ack(const TcpSegment& seg);
  void server_arm_rto();
  void server_rto_fired();
  void server_update_rtt(SimDuration sample);
  void server_arm_pacing_timer();
  // Segment `seq`'s size on the wire: its share of the response body, at
  // least the fixed header.
  std::size_t segment_wire_bytes(std::uint32_t seq) const;
  // Moves the paced release time past segment `seq` sent now at `pace_bps`.
  void advance_pacing_release(std::uint32_t seq, double pace_bps);
  CcScoreboard scoreboard() const;
  void apply_cc_actions(const CcActions& actions);

  void transfer_complete();

  netsim::Network& net_;
  endpoint::Sender& server_;
  endpoint::Receiver& client_;
  endpoint::SessionManager& sessions_;
  endpoint::RegisterRequest session_template_;
  TcpParams params_;
  CcPtr cc_;

  // Workload progress.
  std::size_t remaining_ = 0;
  std::size_t completed_ = 0;
  std::size_t response_bytes_ = 0;
  std::size_t request_bytes_ = 12;
  std::function<void()> on_all_done_;
  Samples fct_ms_;

  // Per-transfer state (one active transfer at a time).
  std::uint32_t conn_id_ = 0;
  FlowId flow_ = 0;
  SimTime transfer_started_ = 0;
  bool transfer_done_ = true;

  // Client.
  bool syn_acked_ = false;
  int client_retries_ = 0;
  netsim::Timer client_timer_;  // SYN retransmit.
  std::uint32_t client_total_segments_ = 0;
  std::uint32_t client_cumulative_ = 0;  // Next segment needed.
  std::set<std::uint32_t> client_received_;
  bool client_ece_pending_ = false;  // Last data arrival was CE-marked.
  std::uint64_t acks_sent_ = 0;

  // Server scoreboard (mechanism state; the controller sees it read-only).
  bool server_conn_open_ = false;
  bool server_sending_ = false;
  std::uint32_t total_segments_ = 0;
  std::uint32_t next_to_send_ = 0;
  std::uint32_t highest_acked_ = 0;  // Cumulative from client.
  std::set<std::uint32_t> sacked_;
  SimDuration rto_ = sec(1);
  bool rtt_measured_ = false;
  double srtt_ = 0.0;
  double rttvar_ = 0.0;
  netsim::Timer server_timer_;  // SYN-ACK retransmit, then the RTO.
  int synack_retries_ = 0;
  std::map<std::uint32_t, SimTime> send_times_;     // First-transmission times.
  std::map<std::uint32_t, SimTime> retransmitted_;  // Last retransmit time.

  // Pacing (used only when the controller reports a nonzero rate). A
  // pacing controller smooths retransmissions too -- controller-requested
  // repairs queue here and leave at the paced rate ahead of new data,
  // instead of bursting a whole window of repairs into the bottleneck.
  SimTime pacing_release_ = 0;
  netsim::Timer pacing_timer_;
  std::deque<std::uint32_t> paced_retx_;

  TcpServerStats server_stats_;
};

}  // namespace jqos::transport
