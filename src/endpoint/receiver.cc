#include "endpoint/receiver.h"

#include <algorithm>

#include "common/logging.h"
#include "fec/coded_batch.h"

namespace jqos::endpoint {

namespace {

// History depth: the last this-many delivered packets of each flow.
constexpr std::size_t kHistoryPackets = 1024;
// In-stream coded batches held per flow awaiting a decode.
constexpr std::size_t kInCodedBatches = 64;
// Ablation D3 (use_markov = false): the single fixed timeout that replaces
// the two-state model.
constexpr SimDuration kSingleTimeout = msec(25);
// Timer management: stop the per-flow timer after this much inactivity.
constexpr SimDuration kIdleStop = sec(2);
// How long a cooperative request for a not-yet-received packet is held
// before being dropped (covers direct-path delay spread across peers).
constexpr SimDuration kCoopDeferWindow = msec(150);
// Delay range of a straggling cooperative response (coop_slow_prob).
constexpr SimDuration kCoopSlowMin = msec(120);
constexpr SimDuration kCoopSlowMax = msec(450);
// Declare the overlay dead after this many consecutive unanswered NACKs.
constexpr int kMaxUnansweredNacks = 3;
// The NACK counter alone is not enough: a loss burst can emit several
// NACKs within one RTT, before the first recovery reply has had time to
// return. The counter therefore only declares death once the overlay has
// also been signal-silent (no DC2-originated packet, and no overlay data
// for path-switching flows) for at least this long.
constexpr SimDuration kNackSilence = msec(200);
// Probe backoff while down: base, doubling to cap.
constexpr SimDuration kProbeBase = msec(200);
constexpr SimDuration kProbeCap = sec(2);

}  // namespace

void Receiver::SeqWindow::extend(std::uint64_t end) {
  if (end <= hi_) return;
  if (end - lo_ > ring_.size()) {
    std::size_t size = ring_.empty() ? 16 : ring_.size();
    while (size < end - lo_) size *= 2;
    std::vector<SeqSlot> grown(size);
    for (std::uint64_t s = lo_; s < hi_; ++s) grown[s & (size - 1)] = std::move((*this)[s]);
    ring_ = std::move(grown);
  }
  // A reused slot last held a seq below lo: arrived, and without a packet.
  for (; hi_ < end; ++hi_) (*this)[hi_].state = SeqSlot::State::kUnseen;
}

void Receiver::SeqWindow::trim(std::uint64_t edge) {
  while (lo_ < edge && !(*this)[lo_].pkt) ++lo_;
}

void Receiver::SeqWindow::remember(const PacketPtr& pkt) {
  if (history_size_ == kHistoryPackets) {
    SeqSlot& oldest = (*this)[history_head_];
    history_head_ = oldest.history_next;
    oldest.pkt.reset();
    --history_size_;
  }
  (*this)[pkt->seq].pkt = pkt;
  if (history_size_++ == 0) {
    history_head_ = pkt->seq;
  } else {
    (*this)[history_tail_].history_next = pkt->seq;
  }
  history_tail_ = pkt->seq;
}

Receiver::Receiver(netsim::Network& net, const ReceiverConfig& config, DeliverFn on_delivery)
    : net_(net),
      node_id_(net.allocate_id()),
      config_(config),
      on_delivery_(std::move(on_delivery)),
      // The seed is used exactly as given: node ids are allocation-order
      // artifacts, and mixing them in would make the straggler stream depend
      // on how many nodes happen to precede this receiver in its Network --
      // breaking the sharded runner's composition-invariance. Callers that
      // want uncorrelated receivers pass distinct seeds (the scenario layer
      // derives one per path via Rng::derive).
      rng_(config.rng_seed),
      probe_timer_(net.sim()) {
  net_.attach(*this);
}

void Receiver::expect_flow(FlowId flow) {
  auto [it, inserted] = flows_.try_emplace(
      flow, MarkovDetector(config_.markov, config_.rtt_estimate), net_.sim());
  if (inserted && config_.dc2 != kInvalidNode) {
    // "Initially, the receiver starts off with the long timeout value"
    // (Section 3.4): the flow is expected, so even the very first packet
    // (e.g. a SYN-ACK) is protected by the timer.
    arm_timer(flow, it->second, it->second.detector.long_timeout());
  }
}

void Receiver::forget_flow(FlowId flow) { flows_.erase(flow); }

void Receiver::handle_packet(const PacketPtr& pkt) {
  if (config_.failover.enabled) {
    // Any DC2-originated packet is proof of overlay life: recoveries,
    // in-stream coded packets, cooperative solicitations, NackChecks. For
    // path-switching receivers, data packets are overlay traffic too --
    // but only while up; once failed over, kData rides the direct path and
    // says nothing about the overlay.
    switch (pkt->type) {
      case PacketType::kRecovered:
      case PacketType::kInCoded:
      case PacketType::kCoopRequest:
      case PacketType::kNackCheck:
        note_overlay_evidence();
        break;
      case PacketType::kData:
        if (config_.failover.overlay_carries_data && overlay_up_) {
          note_overlay_evidence();
        }
        break;
      default:
        break;
    }
  }
  switch (pkt->type) {
    case PacketType::kData:
      on_data(pkt, /*recovered=*/false);
      return;
    case PacketType::kRecovered:
      on_data(pkt, /*recovered=*/true);
      return;
    case PacketType::kInCoded:
      on_in_coded(pkt);
      return;
    case PacketType::kCoopRequest:
      on_coop_request(pkt);
      return;
    case PacketType::kNackCheck:
      on_nack_check(pkt);
      return;
    default:
      return;  // Cross-coded packets etc. are DC-side only.
  }
}

void Receiver::on_data(const PacketPtr& pkt, bool recovered) {
  auto it = flows_.find(pkt->flow);
  if (it == flows_.end()) return;  // Not a flow of ours.
  FlowState& fs = it->second;
  const SimTime now = net_.sim().now();
  const SeqNo seq = pkt->seq;
  if (std::uint64_t{seq} >= std::uint64_t{fs.next_expected} + kMaxSeqGap) {
    ++stats_.far_ahead_dropped;
    return;
  }

  const SeqNo horizon = fs.evidence_horizon;
  if (seq >= fs.evidence_horizon) fs.evidence_horizon = seq + 1;
  const SeqSlot::State state = fs.window.state(seq);
  if (seq < fs.next_expected || state == SeqSlot::State::kArrived) {
    // Already delivered (e.g. both the direct copy and the recovered copy
    // arrived, or a multicast duplicate).
    ++stats_.duplicates;
    if (!recovered && on_delivery_) {
      // Tell the upper layer the direct copy did arrive eventually: a
      // recovery that raced a delay spike was not a real path loss.
      DeliveryRecord rec;
      rec.flow = pkt->flow;
      rec.seq = seq;
      rec.sent_at = pkt->sent_at;
      rec.delivered_at = now;
      rec.late_direct = true;
      on_delivery_(rec, pkt);
    }
    return;
  }
  SimTime detected = 0;
  if (state == SeqSlot::State::kMissing) {
    // Fills a known hole: either the J-QoS recovery or a straggler direct
    // arrival that outlived the gap detection.
    detected = fs.window[seq].detected_at;
    --fs.missing;
  } else {
    // Only the holes this arrival reveals need a scan: no seq in
    // [next_expected, evidence_horizon) is unseen. A tail suspicion at
    // next_expected can sit at or above the horizon, hence the state check.
    fs.window.extend(std::uint64_t{seq} + 1);
    note_missing(fs, pkt->flow, std::max(fs.next_expected, horizon), seq);
  }
  fs.window[seq].state = SeqSlot::State::kArrived;
  deliver(pkt->flow, seq, pkt, recovered, detected);
  remember(fs, pkt);
  advance_contiguity(fs);

  // Direct-path arrivals feed the Markov detector and (re)arm the timer;
  // recovered packets say nothing about the direct path, but they do keep
  // the flow (and its timer) alive so outage recovery continues.
  fs.last_activity = now;
  if (config_.failover.enabled && !overlay_up_ && !probe_timer_.armed()) {
    // Traffic-driven probe restart: the probe chain stops when all flows go
    // idle (so the event queue can drain); fresh arrivals revive it.
    arm_probe();
  }
  if (!recovered) {
    fs.last_arrival = now;
    const SimDuration timeout =
        config_.use_markov ? fs.detector.on_arrival(now) : kSingleTimeout;
    arm_timer(pkt->flow, fs, timeout);
  } else if (!fs.timer.armed()) {
    arm_timer(pkt->flow, fs,
              config_.use_markov ? fs.detector.current_timeout() : kSingleTimeout);
  }
}

void Receiver::note_missing(FlowState& fs, FlowId flow, std::uint64_t from,
                            std::uint64_t to_exclusive, bool tail) {
  const SimTime now = net_.sim().now();
  gap_scratch_.clear();
  for (std::uint64_t s = from; s < to_exclusive; ++s) {
    SeqSlot& slot = fs.window[s];
    if (slot.state != SeqSlot::State::kUnseen) continue;
    slot.state = SeqSlot::State::kMissing;
    slot.detected_at = slot.last_nack_at = now;
    ++fs.missing;
    gap_scratch_.push_back(static_cast<SeqNo>(s));
    ++stats_.losses_detected;
  }
  if (!gap_scratch_.empty()) send_nack(flow, fs, gap_scratch_, tail);
}

void Receiver::send_nack(FlowId flow, FlowState& fs, const std::vector<SeqNo>& missing,
                         bool tail, bool probe) {
  if (config_.dc2 == kInvalidNode) return;
  if (!overlay_up_ && !probe) {
    // Overlay declared dead: regular NACKs would just feed a black hole.
    // The probe path (backed-off, one flow) is the only NACK traffic.
    ++stats_.nacks_suppressed;
    return;
  }
  nack_scratch_.tail = tail;
  // Tail probes ask DC2 to scan forward from the frontier of what this
  // receiver has evidence for; everything below it is tracked explicitly.
  nack_scratch_.expected = tail ? fs.evidence_horizon : fs.next_expected;
  nack_scratch_.missing.assign(missing.begin(), missing.end());
  // Probes always address the coding service: even when the flow's recovery
  // runs elsewhere (or nowhere -- path switching), a live RecoveryService
  // answers an uncovered-key NACK with a kNackCheck, which is evidence.
  auto nack = make_packet(net_.pool(), PacketType::kNack,
                          probe ? ServiceType::kCode : config_.recovery_service,
                          flow, missing.empty() ? fs.next_expected : missing.front(),
                          node_id_, config_.dc2, net_.sim().now());
  nack_scratch_.serialize_into(nack->payload);
  ++stats_.nacks_sent;
  if (tail) ++stats_.tail_nacks_sent;
  net_.send(node_id_, nack);
  if (config_.failover.enabled && !probe && overlay_up_) {
    ++unanswered_nacks_;
    // First NACK ever starts the expectation clock: from here on the
    // overlay owes us a reply, so prolonged silence becomes meaningful
    // even if DC2 never showed a sign of life.
    if (last_overlay_signal_ < 0) last_overlay_signal_ = net_.sim().now();
    const bool silent = net_.sim().now() - last_overlay_signal_ >= kNackSilence;
    if (silent && unanswered_nacks_ >= kMaxUnansweredNacks) {
      declare_overlay_down();
    }
  }
}

void Receiver::deliver(FlowId flow, SeqNo seq, const PacketPtr& pkt, bool recovered,
                       SimTime detected_at) {
  const SimTime now = net_.sim().now();
  DeliveryRecord rec;
  rec.flow = flow;
  rec.seq = seq;
  rec.sent_at = pkt->sent_at;
  rec.delivered_at = now;
  rec.recovered = recovered;
  rec.detected_missing_at = detected_at;
  if (recovered) {
    ++stats_.delivered_recovered;
  } else {
    ++stats_.delivered_direct;
  }
  if (on_delivery_) on_delivery_(rec, pkt);
}

void Receiver::advance_contiguity(FlowState& fs) {
  while (fs.window.state(fs.next_expected) == SeqSlot::State::kArrived) ++fs.next_expected;
  fs.window.trim(fs.next_expected);
}

void Receiver::remember(FlowState& fs, const PacketPtr& pkt) {
  // A deferred cooperative request may have been waiting for this packet.
  auto dit = fs.deferred_coop.find(pkt->seq);
  if (dit != fs.deferred_coop.end()) {
    const PacketPtr request = dit->second.first;
    const SimTime deadline = dit->second.second;
    fs.deferred_coop.erase(dit);
    if (net_.sim().now() <= deadline) {
      ++stats_.coop_deferred;
      auto resp = make_packet(net_.pool(), PacketType::kCoopResponse, ServiceType::kCode,
                              request->flow, request->seq, node_id_, request->src,
                              net_.sim().now());
      resp->meta = request->meta;
      resp->payload = pkt->payload;
      ++stats_.coop_responses_sent;
      net_.send(node_id_, resp);
    }
  }
  // Opportunistic pruning of expired deferred requests.
  if (fs.deferred_coop.size() > 64) {
    for (auto itd = fs.deferred_coop.begin(); itd != fs.deferred_coop.end();) {
      if (itd->second.second < net_.sim().now()) {
        ++stats_.coop_misses;
        itd = fs.deferred_coop.erase(itd);
      } else {
        ++itd;
      }
    }
  }
  fs.window.remember(pkt);
}

void Receiver::on_in_coded(const PacketPtr& pkt) {
  // The shape rule also holds an in-stream batch to one flow: self-decode
  // matches keys by seq alone, so a batch spanning flows would fill this
  // flow's holes with another flow's bytes.
  if (!coded_shape_valid(*pkt)) {
    ++stats_.malformed_coded;
    return;
  }
  const FlowId flow = pkt->meta->covered.front().flow;
  auto it = flows_.find(flow);
  if (it == flows_.end()) return;
  FlowState& fs = it->second;
  const std::uint32_t batch_id = pkt->meta->batch_id;
  auto batch = std::find_if(fs.in_coded.begin(), fs.in_coded.end(),
                            [batch_id](const InCodedBatch& b) { return b.batch_id == batch_id; });
  if (batch == fs.in_coded.end()) {
    if (fs.in_coded.size() == kInCodedBatches) fs.in_coded.erase(fs.in_coded.begin());
    batch = fs.in_coded.insert(fs.in_coded.end(), InCodedBatch{batch_id, {}});
  }
  batch->coded.push_back(pkt);
  try_self_decode(flow, fs, batch);
}

void Receiver::try_self_decode(FlowId flow, FlowState& fs, InCodedIt batch) {
  const CodedMeta& meta = *batch->coded.front()->meta;

  present_scratch_.clear();
  wanted_scratch_.clear();
  for (std::size_t pos = 0; pos < meta.covered.size(); ++pos) {
    const PacketKey& key = meta.covered[pos];
    if (const Packet* held = fs.window.packet(key.seq)) {
      present_scratch_.emplace_back(pos, std::span<const std::uint8_t>(held->payload));
    } else if (fs.window.state(key.seq) == SeqSlot::State::kMissing) {
      wanted_scratch_.push_back(pos);
    }
  }
  if (wanted_scratch_.empty()) return;  // Nothing we still need from this batch.

  recovered_scratch_.resize(wanted_scratch_.size());
  if (!fec::decode_batch(decode_arena_, meta, present_scratch_, batch->coded, wanted_scratch_,
                         recovered_scratch_)) {
    return;  // Not enough symbols yet; keep the coded packets.
  }

  for (std::size_t i = 0; i < wanted_scratch_.size(); ++i) {
    const PacketKey key = meta.covered[wanted_scratch_[i]];
    if (fs.window.state(key.seq) != SeqSlot::State::kMissing) continue;
    const SimTime detected = fs.window[key.seq].detected_at;
    fs.window[key.seq].state = SeqSlot::State::kArrived;
    --fs.missing;
    ++stats_.self_decoded;
    auto packet = alloc_packet(net_.pool());
    packet->type = PacketType::kRecovered;
    packet->flow = key.flow;
    packet->seq = key.seq;
    packet->payload.assign(recovered_scratch_[i].begin(), recovered_scratch_[i].end());
    deliver(flow, key.seq, packet, /*recovered=*/true, detected);
    remember(fs, packet);
  }
  advance_contiguity(fs);
  fs.in_coded.erase(batch);
}

void Receiver::on_coop_request(const PacketPtr& pkt) {
  auto it = flows_.find(pkt->flow);
  if (it == flows_.end()) {
    ++stats_.coop_misses;
    return;
  }
  FlowState& fs = it->second;
  const Packet* held = fs.window.packet(pkt->seq);
  if (held == nullptr) {
    if (pkt->seq >= fs.evidence_horizon) {
      // Not lost -- just not here yet (the requester's path is faster).
      // Hold the request and answer on arrival.
      fs.deferred_coop[pkt->seq] = {pkt, net_.sim().now() + kCoopDeferWindow};
      return;
    }
    ++stats_.coop_misses;  // We lost it too; the coded packets must cover.
    return;
  }
  auto resp = make_packet(net_.pool(), PacketType::kCoopResponse, ServiceType::kCode,
                          pkt->flow, pkt->seq, node_id_, pkt->src, net_.sim().now());
  resp->meta = pkt->meta;  // Echo the batch id back.
  resp->payload = held->payload;
  ++stats_.coop_responses_sent;
  if (config_.coop_slow_prob > 0.0 && rng_.bernoulli(config_.coop_slow_prob)) {
    // Straggler: the host is busy; the response leaves late.
    const SimDuration delay = rng_.uniform_int(kCoopSlowMin, kCoopSlowMax);
    net_.sim().after(delay, [this, resp] { net_.send(node_id_, resp); });
    return;
  }
  net_.send(node_id_, resp);
}

void Receiver::on_nack_check(const PacketPtr& pkt) {
  auto it = flows_.find(pkt->flow);
  if (it == flows_.end()) return;
  FlowState& fs = it->second;
  // Spurious unless the seq is a hole or not seen yet: stay silent.
  if (pkt->seq < fs.next_expected) return;
  if (fs.window.state(pkt->seq) == SeqSlot::State::kArrived) return;
  nack_scratch_.tail = false;
  nack_scratch_.expected = fs.next_expected;
  nack_scratch_.missing.assign(1, pkt->seq);
  auto confirm = make_packet(net_.pool(), PacketType::kNackConfirm, config_.recovery_service,
                             pkt->flow, pkt->seq, node_id_, pkt->src, net_.sim().now());
  nack_scratch_.serialize_into(confirm->payload);
  ++stats_.nack_confirms_sent;
  net_.send(node_id_, confirm);
}

void Receiver::give_up_stale(FlowId flow, FlowState& fs) {
  const SimTime now = net_.sim().now();
  const SimDuration span =
      config_.recovery_give_up > 0 ? config_.recovery_give_up : config_.rtt_estimate;
  std::size_t left = fs.missing;
  for (std::uint64_t s = fs.next_expected; left > 0; ++s) {
    SeqSlot& slot = fs.window[s];
    if (slot.state != SeqSlot::State::kMissing) continue;
    --left;
    if (now - slot.detected_at < span) continue;
    --fs.missing;
    if (s >= fs.evidence_horizon) {
      // A timer suspicion with no later delivery confirming the packet
      // ever existed (the stream simply paused): drop silently. The
      // sequence number stays claimable -- if the stream resumes with it,
      // it must be delivered normally, not treated as a duplicate.
      ++stats_.suspected_tail_dropped;
      slot.state = SeqSlot::State::kUnseen;
      continue;
    }
    ++stats_.losses_given_up;
    slot.state = SeqSlot::State::kArrived;
    DeliveryRecord rec;
    rec.flow = flow;
    rec.seq = static_cast<SeqNo>(s);
    rec.delivered_at = now;
    rec.lost = true;
    rec.detected_missing_at = slot.detected_at;
    if (on_delivery_) on_delivery_(rec, nullptr);
  }
  advance_contiguity(fs);
}

void Receiver::arm_timer(FlowId flow, FlowState& fs, SimDuration timeout) {
  fs.timer.after(timeout, [this, flow] { on_timer(flow); });
}

void Receiver::on_timer(FlowId flow) {
  FlowState& fs = flows_.at(flow);  // The timer dies with its flow.
  const SimTime now = net_.sim().now();
  if (config_.failover.enabled && config_.failover.overlay_carries_data && overlay_up_ &&
      last_overlay_signal_ >= 0 &&
      now - last_overlay_signal_ >= config_.failover.data_silence) {
    // All data rides the overlay and NOTHING -- no data on any flow, no DC2
    // control traffic -- has been heard for the silence window, yet this
    // flow's timer is still live (there is demand): the overlay is gone.
    declare_overlay_down();
  }
  const bool was_short =
      config_.use_markov && fs.detector.state() == MarkovDetector::State::kShort;
  const SimDuration next_timeout =
      config_.use_markov ? fs.detector.on_timeout() : kSingleTimeout;

  // A SHORT-state expiry means the stream went quiet mid-burst: the next
  // expected packet is presumed lost (tail loss). The DC-side NackCheck
  // handshake guards against the burst simply having ended. During an
  // outage the direct path is silent but recoveries keep arriving
  // (last_activity > last_arrival): keep probing so cooperative recovery
  // is applied repeatedly, wave after wave (Section 4.4).
  const bool outage_mode = fs.last_arrival >= 0 && fs.last_activity > fs.last_arrival &&
                           now - fs.last_activity < kIdleStop;
  // A registered flow that has never delivered anything and timed out: the
  // opening packet itself may be lost (e.g. a SYN-ACK, Section 6.4).
  const bool nothing_yet = fs.last_arrival < 0 && fs.evidence_horizon == 0;
  if (was_short || !config_.use_markov || outage_mode || nothing_yet) {
    const std::uint64_t edge = fs.next_expected;
    if (fs.window.state(edge) == SeqSlot::State::kUnseen) {
      fs.window.extend(edge + 1);
      note_missing(fs, flow, edge, edge + 1, /*tail=*/true);
    } else if (outage_mode) {
      // The hole at next_expected is already tracked, but the stream is
      // being carried by recovery alone: keep probing past the evidence
      // frontier so the next wave of cooperative recovery starts.
      send_nack(flow, fs, {}, /*tail=*/true);
    } else {
      ++stats_.spurious_timeouts;
    }
  }

  // Re-NACK holes whose last attempt is stale (lost NACK or lost recovery).
  // This walk and give_up_stale's visit the missing slots in seq order.
  stale_scratch_.clear();
  std::size_t left = fs.missing;
  for (std::uint64_t s = fs.next_expected; left > 0; ++s) {
    SeqSlot& slot = fs.window[s];
    if (slot.state != SeqSlot::State::kMissing) continue;
    --left;
    if (now - slot.last_nack_at >= config_.renack_interval) {
      slot.last_nack_at = now;
      stale_scratch_.push_back(static_cast<SeqNo>(s));
    }
  }
  if (!stale_scratch_.empty()) send_nack(flow, fs, stale_scratch_, /*tail=*/false);

  give_up_stale(flow, fs);

  // Keep the timer running while the flow is live or holes remain. Flows
  // being carried by recovery alone (outages) stay live via last_activity.
  const bool active =
      (fs.last_activity >= 0 && now - fs.last_activity < kIdleStop) || fs.missing > 0;
  if (active) arm_timer(flow, fs, next_timeout);
}

void Receiver::note_overlay_evidence() {
  last_overlay_signal_ = net_.sim().now();
  unanswered_nacks_ = 0;
  if (!overlay_up_) declare_overlay_up();
}

void Receiver::declare_overlay_down() {
  if (!overlay_up_) return;
  overlay_up_ = false;
  ++stats_.failovers;
  unanswered_nacks_ = 0;
  probe_backoff_ = 0;
  arm_probe();
  if (on_overlay_) on_overlay_(false, net_.sim().now());
}

void Receiver::declare_overlay_up() {
  if (overlay_up_) return;
  overlay_up_ = true;
  ++stats_.reengages;
  probe_timer_.cancel();
  probe_backoff_ = 0;
  if (on_overlay_) on_overlay_(true, net_.sim().now());
}

void Receiver::arm_probe() {
  probe_backoff_ =
      probe_backoff_ == 0 ? kProbeBase : std::min(probe_backoff_ * 2, kProbeCap);
  probe_timer_.after(probe_backoff_, [this] { on_probe(); });
}

void Receiver::on_probe() {
  send_probe();
  // Re-arm only while some flow is live: once the workload drains the probe
  // chain must stop, or Simulator::run() would never see an empty queue.
  if (any_active_flow()) arm_probe();
}

void Receiver::send_probe() {
  if (config_.dc2 == kInvalidNode) return;
  // Probe on the lowest live flow id (a stable identity across runs and
  // thread counts, unlike unordered_map iteration order).
  FlowState* fs = nullptr;
  FlowId flow = 0;
  for (auto& [id, state] : flows_) {
    if (fs == nullptr || id < flow) {
      fs = &state;
      flow = id;
    }
  }
  if (fs == nullptr) return;
  ++stats_.probes_sent;
  send_nack(flow, *fs, {fs->next_expected}, /*tail=*/false, /*probe=*/true);
}

bool Receiver::any_active_flow() const {
  const SimTime now = net_.sim().now();
  for (const auto& [flow, fs] : flows_) {
    if (fs.last_activity >= 0 && now - fs.last_activity < kIdleStop) return true;
  }
  return false;
}

}  // namespace jqos::endpoint
