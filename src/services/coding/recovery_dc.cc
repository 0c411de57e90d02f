#include "services/coding/recovery_dc.h"

#include "common/logging.h"
#include "fec/coded_batch.h"

namespace jqos::services {

namespace {

// Confirmation window for NACKs that arrive before their coded packets.
constexpr SimDuration kPendingNackTtl = sec(2);
// Cap on batches recovered per tail NACK, bounding outage-recovery cost.
constexpr std::size_t kMaxTailBatches = 64;
// Tail probes only recover from batches at least this old: younger
// batches cover packets whose direct copies are likely still in flight,
// and recovering those is spurious work that races the Internet path.
constexpr SimDuration kTailMinBatchAge = msec(100);

}  // namespace

RecoveryService::RecoveryService(overlay::DataCenter& dc, const RecoveryParams& params,
                                 FlowRegistryPtr registry)
    : dc_(dc),
      params_(params),
      registry_(std::move(registry)),
      sweep_timer_(dc.network().sim()) {}

std::uint32_t RecoveryService::store_batch(const Packet& pkt) {
  Store& s = store_;
  if (s.free_slots.empty()) {
    s.free_slots.push_back(static_cast<std::uint32_t>(s.slab.size()));
    s.slab.emplace_back();
  }
  const std::uint32_t slot = s.free_slots.back();
  s.free_slots.pop_back();
  BatchState& batch = s.slab[slot];
  batch.first_seen = dc_.now();
  batch.is_cross = pkt.type == PacketType::kCrossCoded;
  ++stats_.batches_stored;
  s.slot_of[pkt.meta->batch_id] = slot;
  s.arrivals.push_back(Arrival{batch.first_seen, slot});
  for (const PacketKey& key : pkt.meta->covered) {
    KeySlots& e = s.key_index[key];
    if (e.n < 2) {
      e.slot[e.n] = slot;
    } else {
      s.key_spill[key].push_back(slot);
    }
    ++e.n;
  }
  return slot;
}

void RecoveryService::expire(std::uint32_t slot) {
  Store& s = store_;
  BatchState& batch = s.slab[slot];
  const CodedMeta& meta = batch.meta();
  for (const PacketKey& key : meta.covered) {
    KeySlots* e = s.key_index.find(key);
    if (e == nullptr) continue;  // Listed twice: unindexed on its first visit.
    // Drop every occurrence of `slot`, keeping the rest in store order.
    std::vector<std::uint32_t>* spill = e->n > 2 ? &s.key_spill.at(key) : nullptr;
    auto at = [&](std::uint32_t i) -> std::uint32_t& {
      return i < 2 ? e->slot[i] : (*spill)[i - 2];
    };
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < e->n; ++i) {
      if (at(i) != slot) at(kept++) = at(i);
    }
    if (spill != nullptr) {
      if (kept > 2) {
        spill->resize(kept - 2);
      } else {
        s.key_spill.erase(key);
      }
    }
    e->n = kept;
    if (kept == 0) s.key_index.erase(key);
  }
  s.slot_of.erase(meta.batch_id);
  batch.coded.clear();  // Last: `meta` lives in coded.front().
  s.free_slots.push_back(slot);
  ++stats_.batches_expired;
}

RecoveryService::BatchState* RecoveryService::batch_by_id(std::uint32_t batch_id) {
  const std::uint32_t* slot = store_.slot_of.find(batch_id);
  return slot != nullptr ? &store_.slab[*slot] : nullptr;
}

template <typename Pred>
RecoveryService::BatchState* RecoveryService::first_batch(const PacketKey& key, Pred pred) {
  const KeySlots* e = store_.key_index.find(key);
  if (e == nullptr) return nullptr;
  const std::vector<std::uint32_t>* spill = e->n > 2 ? &store_.key_spill.at(key) : nullptr;
  for (std::uint32_t i = 0; i < e->n; ++i) {
    BatchState& b = store_.slab[i < 2 ? e->slot[i] : (*spill)[i - 2]];
    if (pred(b)) return &b;
  }
  return nullptr;
}

bool RecoveryService::handle(overlay::DataCenter& dc, const PacketPtr& pkt) {
  (void)dc;
  switch (pkt->type) {
    case PacketType::kInCoded:
    case PacketType::kCrossCoded:
      if (pkt->service != ServiceType::kCode) return false;
      on_coded(pkt);
      return true;
    case PacketType::kNack:
      if (pkt->service != ServiceType::kCode) return false;
      on_nack(pkt, /*confirm=*/false);
      return true;
    case PacketType::kNackConfirm:
      if (pkt->service != ServiceType::kCode) return false;
      ++stats_.nack_confirms;
      on_nack(pkt, /*confirm=*/true);
      return true;
    case PacketType::kCoopResponse:
      if (pkt->service != ServiceType::kCode) return false;
      on_coop_response(pkt);
      return true;
    default:
      return false;
  }
}

void RecoveryService::on_coded(const PacketPtr& pkt) {
  // Store no batch that no codec can decode: a NACK for its keys would
  // otherwise open a cooperative op that can only wait out its deadline.
  if (!coded_shape_valid(*pkt)) {
    ++stats_.malformed_coded;
    return;
  }
  const CodedMeta& meta = *pkt->meta;
  const std::uint32_t batch_id = meta.batch_id;
  const std::uint32_t* found = store_.slot_of.find(batch_id);
  if (found != nullptr) {
    // Decoding takes k, r and the covered keys from the batch's first
    // packet, so a later packet that disagrees with them is refused.
    const CodedMeta& batch = store_.slab[*found].meta();
    if (meta.k != batch.k || meta.r != batch.r || meta.covered != batch.covered) {
      ++stats_.inconsistent_coded;
      return;
    }
  }
  const std::uint32_t slot = found != nullptr ? *found : store_batch(*pkt);
  store_.slab[slot].coded.push_back(pkt);
  arm_sweep();

  // A coded packet may unblock recoveries waiting on it. The pending NACK
  // predates this coverage, so re-verify with the receiver first: at burst
  // or session boundaries the "missing" packet may be the stream resuming,
  // and recovering it would race the direct copy (Section 3.4's guard).
  for (const PacketKey& key : meta.covered) {
    auto it = pending_.find(key);
    if (it != pending_.end() && it->second.expires_at > dc_.now()) {
      ++stats_.recheck_probes;
      ++stats_.nack_checks_sent;
      auto check = make_packet(dc_.pool(), PacketType::kNackCheck, ServiceType::kCode,
                               key.flow, key.seq, dc_.id(), it->second.receiver,
                               dc_.now());
      dc_.send(check);
    }
  }
  auto op_it = ops_.find(batch_id);
  if (op_it != ops_.end()) maybe_finish_op(op_it->second);
}

void RecoveryService::on_nack(const PacketPtr& pkt, bool confirm) {
  if (!confirm) ++stats_.nacks;
  if (!NackInfo::parse_into(pkt->payload, nack_scratch_)) return;
  const NackInfo& info = nack_scratch_;
  const NodeId receiver = pkt->src;

  std::vector<PacketKey>& keys = keys_scratch_;
  keys.clear();
  keys.reserve(info.missing.size());
  for (SeqNo s : info.missing) keys.push_back(PacketKey{pkt->flow, s});

  // Tail NACK: the receiver saw nothing after `expected`; recover every
  // covered packet of this flow from `expected` onward. Bursty losses favor
  // cooperative recovery, so prefer_coop is set below for multi-loss NACKs.
  if (info.tail) {
    // Recover every covered sequence number from `expected` onward. Holes
    // in coverage (packets the encoder evicted, batches still in flight)
    // are skipped rather than ending the run; a long uncovered stretch
    // marks the true frontier of what DC1 has seen.
    std::size_t batches_used = 0;
    std::size_t uncovered_run = 0;
    for (SeqNo s = info.expected;
         batches_used < kMaxTailBatches && uncovered_run < 64; ++s) {
      const PacketKey key{pkt->flow, s};
      // Skip batches so fresh their direct copies may still be in flight.
      const BatchState* old_enough = first_batch(key, [&](const BatchState& b) {
        return batch_fresh(b) && dc_.now() - b.first_seen >= kTailMinBatchAge;
      });
      if (old_enough == nullptr) {
        ++uncovered_run;
        continue;
      }
      uncovered_run = 0;
      keys.push_back(key);
      ++batches_used;
    }
  }

  // Heuristic from Section 4.2: in-stream protects random (single) losses;
  // two or more missing keys in one NACK imply a burst, where the in-stream
  // block is likely damaged beyond its own protection.
  const bool prefer_coop = info.tail || keys.size() >= 2;

  for (const PacketKey& key : keys) {
    ++stats_.nack_keys;
    if (recover_key(key, receiver, prefer_coop)) {
      pending_.erase(key);
      continue;
    }
    // No coverage yet: the coded packet may still be in flight (the NACK
    // outran it), or the loss predates the session. Check with the receiver
    // before recovering later (Section 3.4).
    ++stats_.uncovered_keys;
    PendingNack& pending = pending_[key];
    pending.receiver = receiver;
    pending.expires_at = dc_.now() + kPendingNackTtl;
    arm_sweep();
    if (confirm) {
      // Confirmed but still no coverage: keep waiting for coded packets
      // (their arrival triggers a fresh check).
      pending.confirmed = true;
    } else if (!pending.check_sent) {
      pending.check_sent = true;
      ++stats_.nack_checks_sent;
      auto check = make_packet(dc_.pool(), PacketType::kNackCheck, ServiceType::kCode,
                               key.flow, key.seq, dc_.id(), receiver, dc_.now());
      dc_.send(check);
    }
  }
}

bool RecoveryService::recover_key(const PacketKey& key, NodeId receiver, bool prefer_coop) {
  if (!prefer_coop && serve_in_stream(key, receiver)) return true;
  if (start_coop(key, receiver)) return true;
  // Fall back to the other strategy if the preferred one lacks coverage.
  if (prefer_coop && serve_in_stream(key, receiver)) return true;
  return false;
}

RecoveryService::BatchState* RecoveryService::cross_batch_for(const PacketKey& key) {
  return first_batch(key, [&](const BatchState& b) { return b.is_cross && batch_fresh(b); });
}

RecoveryService::BatchState* RecoveryService::in_batch_for(const PacketKey& key) {
  return first_batch(key, [&](const BatchState& b) { return !b.is_cross && batch_fresh(b); });
}

bool RecoveryService::serve_in_stream(const PacketKey& key, NodeId receiver) {
  BatchState* batch = in_batch_for(key);
  if (batch == nullptr) return false;
  // Ship the in-stream coded packets; the receiver decodes against its own
  // buffered packets of the same flow (half-RTT-to-DC recovery).
  for (const PacketPtr& coded : batch->coded) {
    auto out = alloc_packet_copy(dc_.pool(), *coded);
    out->dst = receiver;
    out->final_dst = receiver;
    dc_.send(out);
  }
  ++stats_.in_stream_served;
  return true;
}

bool RecoveryService::start_coop(const PacketKey& key, NodeId receiver) {
  BatchState* batch = cross_batch_for(key);
  if (batch == nullptr) return false;
  const CodedMeta& meta = batch->meta();
  const std::uint32_t batch_id = meta.batch_id;

  auto [it, inserted] = ops_.try_emplace(batch_id, dc_.network().sim());
  CoopOp& op = it->second;
  if (inserted) {
    op.responses.resize(meta.covered.size());
    op.requesters.assign(meta.covered.size(), kInvalidNode);
  }
  for (std::size_t pos = 0; pos < meta.covered.size(); ++pos) {
    if (meta.covered[pos] == key) op.requesters[pos] = receiver;
  }
  if (!inserted) return true;  // Join the already-running operation.

  ++stats_.coop_ops;
  op.batch_id = batch_id;

  // Solicit every *other* receiver in the batch for its data packet. The
  // requester's own packet is the one being recovered, so it is skipped.
  for (const PacketKey& covered : meta.covered) {
    if (covered == key) continue;
    const FlowInfo* info = registry_->find(covered.flow);
    if (info == nullptr || info->receiver == kInvalidNode) continue;
    auto req = make_packet(dc_.pool(), PacketType::kCoopRequest, ServiceType::kCode,
                           covered.flow, covered.seq, dc_.id(), info->receiver,
                           dc_.now());
    // Carry only the batch id; responses echo it back.
    engage_meta(dc_.pool(), *req);
    req->meta->batch_id = batch_id;
    req->meta->k = meta.k;
    req->meta->r = meta.r;
    ++stats_.coop_requests_sent;
    dc_.send(req);
  }

  op.deadline.after(params_.coop_deadline,
                    [this, batch_id, epoch = epoch_] { finish_op_failure(batch_id, epoch); });
  // Small or coded-rich batches may be decodable with zero responses (the
  // stored coded packets alone suffice); finish immediately in that case.
  maybe_finish_op(op);
  return true;
}

void RecoveryService::on_coop_response(const PacketPtr& pkt) {
  if (!pkt->meta) return;
  auto it = ops_.find(pkt->meta->batch_id);
  if (it == ops_.end()) {
    ++stats_.straggler_responses;  // Arrived after success or deadline.
    return;
  }
  CoopOp& op = it->second;
  const BatchState* batch = batch_by_id(op.batch_id);
  if (batch == nullptr) return;
  const CodedMeta& meta = batch->meta();
  // Locate the codeword position of the responding packet.
  const PacketKey key = pkt->key();
  for (std::size_t pos = 0; pos < meta.covered.size(); ++pos) {
    if (meta.covered[pos] == key) {
      ++stats_.coop_responses;
      if (!op.responses[pos]) {  // The first response per position is kept.
        op.responses[pos] = pkt;
        ++op.answered;
      }
      break;
    }
  }
  maybe_finish_op(op);
}

void RecoveryService::maybe_finish_op(CoopOp& op) {
  const BatchState* found = batch_by_id(op.batch_id);
  if (found == nullptr) return;
  const BatchState& batch = *found;
  const CodedMeta& meta = batch.meta();
  if (op.answered + batch.coded.size() < meta.k) return;  // Not yet decodable.

  // Rebuild only what a receiver asked for and no peer answered.
  auto& present = present_scratch_;
  auto& wanted = wanted_scratch_;
  present.clear();
  wanted.clear();
  for (std::size_t pos = 0; pos < op.responses.size(); ++pos) {
    if (op.responses[pos]) {
      present.emplace_back(pos, std::span<const std::uint8_t>(op.responses[pos]->payload));
    } else if (op.requesters[pos] != kInvalidNode) {
      wanted.push_back(pos);
    }
  }
  recovered_scratch_.resize(wanted.size());
  if (!fec::decode_batch(decode_arena_, meta, present, batch.coded, wanted,
                         recovered_scratch_)) {
    return;  // Still insufficient (duplicate positions etc).
  }

  ++stats_.coop_success;
  for (std::size_t i = 0; i < wanted.size(); ++i) {
    const PacketKey& key = meta.covered[wanted[i]];
    const NodeId requester = op.requesters[wanted[i]];
    auto out = make_packet(dc_.pool(), PacketType::kRecovered, ServiceType::kCode, key.flow,
                           key.seq, dc_.id(), requester, dc_.now());
    out->final_dst = requester;
    out->payload.assign(recovered_scratch_[i].begin(), recovered_scratch_[i].end());
    ++stats_.recovered_sent;
    dc_.send(out);
  }
  // Erasing the op cancels its deadline. The key is copied: op dies with it.
  const std::uint32_t finished_id = op.batch_id;
  ops_.erase(finished_id);
}

void RecoveryService::finish_op_failure(std::uint32_t batch_id, std::uint64_t epoch) {
  if (epoch != epoch_) {
    // Armed before a crash wipe: the op it referred to is gone, and batch_id
    // may even have been reused by a post-restart op. Counted no-op.
    ++stats_.stale_timers;
    return;
  }
  auto it = ops_.find(batch_id);
  if (it == ops_.end()) return;
  ++stats_.coop_deadline_failures;
  JQOS_DEBUG(dc_.name() << ": cooperative recovery deadline for batch " << batch_id);
  ops_.erase(it);  // Fails silently (Section 4.4).
}

void RecoveryService::arm_sweep() {
  if (sweep_timer_.armed()) return;
  // Fire at the NEXT whole simulated second. Aligning sweeps to an absolute
  // grid (rather than "one second after whatever arrived first") keeps
  // reclamation timing -- and the batches_expired counter -- a pure function
  // of store times, independent of unrelated traffic sharing this DC.
  const SimTime next_tick = (dc_.now() / sec(1) + 1) * sec(1);
  sweep_timer_.at(next_tick, [this, epoch = epoch_] {
    if (epoch != epoch_) {
      // Armed before a crash wipe (which also cancels; this guards the race
      // where the sweep fires at the same instant the cancel lands).
      ++stats_.stale_timers;
      return;
    }
    sweep_batches();
    if (store_.slot_of.size() != 0 || !pending_.empty()) arm_sweep();
  });
}

void RecoveryService::on_dc_crash() {
  ++stats_.crash_wipes;
  ++epoch_;  // Every timer armed before this instant is now stale.
  ops_.clear();  // Cancels every op's deadline.
  store_ = Store{};
  pending_.clear();
  sweep_timer_.cancel();
}

void RecoveryService::sweep_batches() {
  Store& s = store_;
  auto op_holds = [&](std::uint32_t slot) { return ops_.contains(s.slab[slot].meta().batch_id); };
  // Held batches are past the TTL already; they wait only for their op.
  std::size_t still_held = 0;
  for (std::uint32_t slot : s.held) {
    if (op_holds(slot)) {
      s.held[still_held++] = slot;
    } else {
      expire(slot);
    }
  }
  s.held.resize(still_held);
  const SimTime cutoff = dc_.now() - params_.batch_ttl;
  auto end = s.arrivals.begin();
  for (; end != s.arrivals.end() && end->first_seen < cutoff; ++end) {
    if (op_holds(end->slot)) {
      s.held.push_back(end->slot);
    } else {
      expire(end->slot);
    }
  }
  s.arrivals.erase(s.arrivals.begin(), end);
  // Drained: hand the slab and tables back, so a DC that idles mid-run
  // while the rest of its shard runs on holds no store.
  if (s.slot_of.size() == 0) store_ = Store{};
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.expires_at <= dc_.now()) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace jqos::services
