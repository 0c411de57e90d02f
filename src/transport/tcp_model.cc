#include "transport/tcp_model.h"

#include <algorithm>

#include "common/wire.h"

namespace jqos::transport {

std::vector<std::uint8_t> TcpSegment::serialize(std::size_t pad_to) const {
  ByteWriter w;
  w.u32(conn_id);
  w.u8(flags);
  w.u32(seq);
  w.u32(ack);
  w.u32(total_segments);
  w.u8(static_cast<std::uint8_t>(sacks.size()));
  for (const auto& [lo, hi] : sacks) {
    w.u32(lo);
    w.u32(hi);
  }
  auto out = w.take();
  if (out.size() < pad_to) out.resize(pad_to, 0);  // Model segment body bytes.
  return out;
}

std::optional<TcpSegment> TcpSegment::parse(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  TcpSegment seg;
  seg.conn_id = r.u32();
  seg.flags = r.u8();
  seg.seq = r.u32();
  seg.ack = r.u32();
  seg.total_segments = r.u32();
  const std::uint8_t n = r.u8();
  for (std::uint8_t i = 0; i < n; ++i) {
    std::uint32_t lo = r.u32();
    std::uint32_t hi = r.u32();
    seg.sacks.emplace_back(lo, hi);
  }
  if (!r.ok()) return std::nullopt;
  return seg;
}

TcpWorkload::TcpWorkload(netsim::Network& net, endpoint::Sender& server,
                         endpoint::Receiver& client, endpoint::SessionManager& sessions,
                         endpoint::RegisterRequest session_template, const TcpParams& params)
    : net_(net),
      server_(server),
      client_(client),
      sessions_(sessions),
      session_template_(std::move(session_template)),
      params_(params),
      cc_(make_congestion_controller(params_.cc)) {
  server_.set_receive_handler([this](const PacketPtr& pkt) { server_on_packet(pkt); });
  client_.set_delivery_handler(
      [this](const endpoint::DeliveryRecord& rec, const PacketPtr& pkt) {
        if (rec.lost || pkt == nullptr || rec.flow != flow_) return;
        auto seg = TcpSegment::parse(pkt->payload);
        if (seg && seg->conn_id == conn_id_) {
          client_on_segment(*seg, rec.recovered, pkt->ecn_ce);
        }
      });
}

void TcpWorkload::run(std::size_t n, std::size_t response_bytes, std::size_t request_bytes,
                      std::function<void()> on_all_done) {
  remaining_ = n;
  response_bytes_ = response_bytes;
  request_bytes_ = request_bytes;
  on_all_done_ = std::move(on_all_done);
  start_next_transfer();
}

void TcpWorkload::start_next_transfer() {
  if (remaining_ == 0) {
    if (on_all_done_) on_all_done_();
    return;
  }
  --remaining_;
  ++conn_id_;
  transfer_done_ = false;

  // Fresh J-QoS flow per connection: clean sequence space end to end.
  endpoint::Session session = sessions_.register_flow(server_, client_, session_template_);
  flow_ = session.flow;
  server_.set_flow_ecn(flow_, params_.ecn);

  // Reset endpoint state.
  syn_acked_ = false;
  client_retries_ = 0;
  client_total_segments_ = 0;
  client_cumulative_ = 0;
  client_received_.clear();
  client_ece_pending_ = false;
  server_conn_open_ = false;
  server_sending_ = false;
  total_segments_ =
      static_cast<std::uint32_t>((response_bytes_ + params_.mss - 1) / params_.mss);
  next_to_send_ = 0;
  highest_acked_ = 0;
  sacked_.clear();
  rto_ = params_.initial_rto;
  rtt_measured_ = false;
  srtt_ = 0.0;
  rttvar_ = 0.0;
  synack_retries_ = 0;
  send_times_.clear();
  retransmitted_.clear();
  pacing_release_ = 0;
  cc_->on_transfer_start(params_, total_segments_, net_.sim().now());

  transfer_started_ = net_.sim().now();
  client_send_syn();
}

// --------------------------- client side ----------------------------

void TcpWorkload::client_stamp_and_send(std::vector<std::uint8_t> payload) {
  auto pkt = std::make_shared<Packet>();
  pkt->type = PacketType::kData;
  pkt->flow = flow_;
  pkt->src = client_.id();
  pkt->dst = server_.id();
  pkt->sent_at = net_.sim().now();
  pkt->payload = std::move(payload);
  net_.send(client_.id(), pkt);
}

void TcpWorkload::client_send_syn() {
  TcpSegment syn;
  syn.conn_id = conn_id_;
  syn.flags = TcpSegment::kSyn;
  client_stamp_and_send(syn.serialize(40));

  const std::uint64_t gen = ++client_timer_gen_;
  const SimDuration backoff = params_.initial_rto << std::min(client_retries_, 6);
  net_.sim().after(backoff, [this, gen] { client_handshake_timer_fired(gen); });
}

void TcpWorkload::client_handshake_timer_fired(std::uint64_t gen) {
  if (gen != client_timer_gen_ || transfer_done_ || syn_acked_) return;
  if (++client_retries_ > params_.max_handshake_retries) {
    // Connection abandoned; count the elapsed time as the completion time
    // (the user gave up -- an extreme tail event).
    transfer_complete();
    return;
  }
  client_send_syn();
}

void TcpWorkload::client_send_request() {
  TcpSegment req;
  req.conn_id = conn_id_;
  req.flags = TcpSegment::kReq | TcpSegment::kAck;
  client_stamp_and_send(req.serialize(request_bytes_));
}

void TcpWorkload::client_send_ack() {
  TcpSegment ack;
  ack.conn_id = conn_id_;
  ack.flags = TcpSegment::kAck;
  // DCTCP-style per-ack echo: ECE reflects the CE mark of the segment that
  // triggered this ack.
  if (params_.ecn && client_ece_pending_) ack.flags |= TcpSegment::kEce;
  ack.ack = client_cumulative_;
  // SACK ranges: contiguous runs from the out-of-order set, at most 4.
  std::uint32_t prev = 0;
  bool open = false;
  std::uint32_t lo = 0;
  for (auto it = client_received_.lower_bound(client_cumulative_);
       it != client_received_.end(); ++it) {
    if (!open) {
      lo = *it;
      open = true;
    } else if (*it != prev + 1) {
      ack.sacks.emplace_back(lo, prev + 1);
      lo = *it;
    }
    prev = *it;
    if (ack.sacks.size() >= 4) break;
  }
  if (open && ack.sacks.size() < 4) ack.sacks.emplace_back(lo, prev + 1);

  ++acks_sent_;
  client_stamp_and_send(ack.serialize(40));
}

void TcpWorkload::client_on_segment(const TcpSegment& seg, bool via_recovery,
                                    bool ce_marked) {
  (void)via_recovery;  // Recovered segments are ACKed exactly like direct ones.
  if (transfer_done_) return;
  if (seg.flags & TcpSegment::kSyn) {
    if (!syn_acked_) {
      syn_acked_ = true;
      ++client_timer_gen_;  // Cancel the SYN retransmit timer.
      client_send_request();
    } else {
      client_send_request();  // Duplicate SYN-ACK: our request was lost.
    }
    return;
  }
  if ((seg.flags & TcpSegment::kData) == 0) return;
  client_total_segments_ = seg.total_segments;
  client_received_.insert(seg.seq);
  client_ece_pending_ = ce_marked;
  while (client_received_.count(client_cumulative_) != 0) {
    client_received_.erase(client_cumulative_);
    ++client_cumulative_;
  }
  client_send_ack();
  if (client_total_segments_ > 0 && client_cumulative_ >= client_total_segments_) {
    transfer_complete();
  }
}

// --------------------------- server side ----------------------------

void TcpWorkload::server_on_packet(const PacketPtr& pkt) {
  auto seg = TcpSegment::parse(pkt->payload);
  if (!seg || seg->conn_id != conn_id_ || transfer_done_) return;
  if (seg->flags & TcpSegment::kSyn) {
    if (!server_conn_open_) {
      server_conn_open_ = true;
      server_send_synack();
    } else if (!server_sending_) {
      server_send_synack();  // Duplicate SYN: our SYN-ACK was likely lost.
    }
    return;
  }
  if (seg->flags & TcpSegment::kReq) {
    if (!server_sending_) server_begin_response();
    return;
  }
  if (seg->flags & TcpSegment::kAck) server_on_ack(*seg);
}

void TcpWorkload::server_send_synack() {
  TcpSegment synack;
  synack.conn_id = conn_id_;
  synack.flags = TcpSegment::kSyn | TcpSegment::kAck;
  synack.total_segments = total_segments_;
  ++server_stats_.synack_sent;
  server_.send_payload(flow_, synack.serialize(40));

  // Retransmit until the request arrives, with exponential backoff.
  const std::uint64_t gen = ++server_timer_gen_;
  const SimDuration backoff = params_.initial_rto << std::min(synack_retries_, 6);
  net_.sim().after(backoff, [this, gen] {
    if (gen != server_timer_gen_ || transfer_done_ || server_sending_) return;
    if (++synack_retries_ > params_.max_handshake_retries) return;
    ++server_stats_.synack_retransmits;
    server_send_synack();
  });
}

void TcpWorkload::server_begin_response() {
  server_sending_ = true;
  ++server_timer_gen_;  // Cancel SYN-ACK retransmission.
  server_send_window();
  server_arm_rto();
}

CcScoreboard TcpWorkload::scoreboard() const {
  CcScoreboard sb;
  sb.total_segments = total_segments_;
  sb.highest_acked = highest_acked_;
  sb.next_to_send = next_to_send_;
  sb.sacked = &sacked_;
  sb.send_times = &send_times_;
  sb.retransmitted = &retransmitted_;
  return sb;
}

void TcpWorkload::server_send_window() {
  const double pace = cc_->pacing_rate_bps();
  // Queued paced retransmissions leave first: they fill the oldest holes.
  while (pace > 0.0 && !paced_retx_.empty()) {
    const std::uint32_t s = paced_retx_.front();
    if (s < highest_acked_ || s >= total_segments_ || sacked_.count(s) != 0) {
      paced_retx_.pop_front();  // Repaired by other means while queued.
      continue;
    }
    if (net_.sim().now() < pacing_release_) {
      server_arm_pacing_timer();
      return;
    }
    advance_pacing_release(s, pace);
    paced_retx_.pop_front();
    server_send_segment(s, /*retransmit=*/true);
  }
  // Inflight: first-hole-based estimate (unacked, unsacked, already sent).
  while (next_to_send_ < total_segments_) {
    if (!cc_->can_send(scoreboard().inflight())) break;
    if (pace > 0.0) {
      // Paced send: respect the release time computed from the previous
      // segment; if it is in the future, come back on a sim timer.
      if (net_.sim().now() < pacing_release_) {
        server_arm_pacing_timer();
        break;
      }
      advance_pacing_release(next_to_send_, pace);
    }
    server_send_segment(next_to_send_, /*retransmit=*/false);
    ++next_to_send_;
  }
}

std::size_t TcpWorkload::segment_wire_bytes(std::uint32_t seq) const {
  const std::size_t body =
      std::min(params_.mss, response_bytes_ - static_cast<std::size_t>(seq) * params_.mss);
  return std::max<std::size_t>(body, 18);  // A body never undercuts the 18 B header.
}

void TcpWorkload::advance_pacing_release(std::uint32_t seq, double pace_bps) {
  const double wire_bits = static_cast<double>(segment_wire_bytes(seq)) * 8.0;
  pacing_release_ = std::max(pacing_release_, net_.sim().now()) +
                    static_cast<SimDuration>(wire_bits / pace_bps * 1e6);
}

void TcpWorkload::server_arm_pacing_timer() {
  if (pacing_timer_armed_) return;
  pacing_timer_armed_ = true;
  const std::uint32_t conn = conn_id_;
  net_.sim().at(std::max(pacing_release_, net_.sim().now()), [this, conn] {
    pacing_timer_armed_ = false;
    if (conn != conn_id_ || transfer_done_ || !server_sending_) return;
    server_send_window();
  });
}

void TcpWorkload::server_send_segment(std::uint32_t seq, bool retransmit) {
  TcpSegment seg;
  seg.conn_id = conn_id_;
  seg.flags = TcpSegment::kData;
  seg.seq = seq;
  seg.total_segments = total_segments_;
  ++server_stats_.segments_sent;
  if (retransmit) {
    ++server_stats_.retransmits;
    retransmitted_[seq] = net_.sim().now();
    cc_->on_loss(seq, net_.sim().now());
  } else {
    send_times_[seq] = net_.sim().now();
  }
  const std::size_t wire = segment_wire_bytes(seq);
  cc_->on_segment_sent(seq, wire, retransmit, net_.sim().now());
  server_.send_payload(flow_, seg.serialize(wire));
}

void TcpWorkload::server_update_rtt(SimDuration sample) {
  const double s = static_cast<double>(sample);
  if (!rtt_measured_) {
    srtt_ = s;
    rttvar_ = s / 2.0;
    rtt_measured_ = true;
  } else {
    rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - s);
    srtt_ = 0.875 * srtt_ + 0.125 * s;
  }
  const auto rto = static_cast<SimDuration>(srtt_ + 4.0 * rttvar_);
  rto_ = std::clamp(rto, params_.min_rto, params_.max_rto);
}

void TcpWorkload::apply_cc_actions(const CcActions& actions) {
  if (cc_->pacing_rate_bps() > 0.0) {
    // Don't burst the repairs: a pacing controller's whole point is never
    // handing the bottleneck more than it drains, and a window's worth of
    // back-to-back retransmissions would just re-overflow the queue that
    // dropped them. Queue the holes and let server_send_window() release
    // them at the paced rate.
    for (std::uint32_t s : actions.retransmit) {
      if (s >= total_segments_ || sacked_.count(s) != 0) continue;
      if (std::find(paced_retx_.begin(), paced_retx_.end(), s) != paced_retx_.end()) {
        continue;
      }
      paced_retx_.push_back(s);
    }
    if (!paced_retx_.empty()) server_send_window();
    return;
  }
  for (std::uint32_t s : actions.retransmit) {
    if (s >= total_segments_ || sacked_.count(s) != 0) continue;
    server_send_segment(s, /*retransmit=*/true);
  }
}

void TcpWorkload::server_on_ack(const TcpSegment& seg) {
  if (!server_sending_) return;
  CcEvent ev;
  ev.now = net_.sim().now();
  ev.ecn_echo = (seg.flags & TcpSegment::kEce) != 0;
  if (ev.ecn_echo) ++server_stats_.ecn_echoes;
  // Reads the send-time maps through pointers, so it sees the erases below.
  const CcScoreboard sent = scoreboard();
  for (const auto& [lo, hi] : seg.sacks) {
    for (std::uint32_t s = lo; s < hi && s < total_segments_; ++s) {
      if (sacked_.insert(s).second) {
        ++ev.newly_sacked;
        ev.delivered_xmit_time = std::max(ev.delivered_xmit_time, sent.effective_xmit_time(s));
      }
    }
  }
  if (seg.ack > highest_acked_) {
    ev.newly_acked = seg.ack - highest_acked_;
    // RTT sample from the highest newly-acked first-transmission segment.
    auto ts = send_times_.find(seg.ack - 1);
    if (ts != send_times_.end() && retransmitted_.count(seg.ack - 1) == 0) {
      const SimDuration sample = net_.sim().now() - ts->second;
      server_update_rtt(sample);
      ev.rtt_sample = sample;
    }
    for (std::uint32_t s = highest_acked_; s < seg.ack; ++s) {
      ev.delivered_xmit_time = std::max(ev.delivered_xmit_time, sent.effective_xmit_time(s));
      send_times_.erase(s);
      retransmitted_.erase(s);
      sacked_.erase(s);
    }
    highest_acked_ = seg.ack;
    ev.srtt = static_cast<SimDuration>(srtt_);
    ev.rto = rto_;
    CcActions actions;
    cc_->on_ack(ev, scoreboard(), actions);
    if (highest_acked_ >= total_segments_) {
      ++server_timer_gen_;  // All data acked; stop the RTO timer.
      return;
    }
    if (actions.entered_recovery) ++server_stats_.fast_retransmits;
    apply_cc_actions(actions);
    server_arm_rto();
    server_send_window();
    return;
  }
  // Duplicate cumulative ACK: hand the controller the (possibly new) SACK
  // evidence and do what it says.
  ev.srtt = static_cast<SimDuration>(srtt_);
  ev.rto = rto_;
  CcActions actions;
  cc_->on_sack(ev, scoreboard(), actions);
  if (actions.entered_recovery) ++server_stats_.fast_retransmits;
  apply_cc_actions(actions);
  if (actions.rearm_rto) server_arm_rto();
  if (actions.open_window) server_send_window();
}

void TcpWorkload::server_arm_rto() {
  const std::uint64_t gen = ++server_timer_gen_;
  net_.sim().after(rto_, [this, gen] { server_rto_fired(gen); });
}

void TcpWorkload::server_rto_fired(std::uint64_t gen) {
  if (gen != server_timer_gen_ || transfer_done_ || !server_sending_) return;
  if (highest_acked_ >= total_segments_) return;
  ++server_stats_.timeouts;
  cc_->on_rto(net_.sim().now());
  rto_ = std::min<SimDuration>(rto_ * 2, params_.max_rto);
  server_send_segment(highest_acked_, /*retransmit=*/true);
  server_arm_rto();
}

void TcpWorkload::transfer_complete() {
  if (transfer_done_) return;
  transfer_done_ = true;
  ++server_timer_gen_;
  ++client_timer_gen_;
  ++completed_;
  fct_ms_.add(to_ms(net_.sim().now() - transfer_started_));
  // Start the next transfer on a fresh event so current callbacks unwind.
  net_.sim().after(msec(10), [this] { start_next_transfer(); });
}

}  // namespace jqos::transport
