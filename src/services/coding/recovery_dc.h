// CR-WAN recovery at the egress DC (DC2) -- Sections 3.4 and 4.4.
//
// DC2 stores arriving coded packets (indexed by the data-packet keys they
// cover) and drives recovery when receivers NACK:
//
//  * Random single losses covered by an in-stream batch are served by
//    sending the in-stream coded packet(s) to the receiver, which decodes
//    locally against the packets it already holds -- the cheap first line
//    of defense.
//  * Bursty losses / outages trigger cooperative recovery: DC2 solicits the
//    other receivers of the batch for their data packets (incoming traffic
//    is free), decodes once enough symbols arrive (responses + coded >= k,
//    so up to `cross_coded` stragglers are tolerated), and sends the
//    reconstructed packets to the requesters. The operation fails silently
//    at a deadline (Section 4.4).
//  * A NACK that precedes its coded packet (burst/session boundary) makes
//    DC2 check back with the receiver (kNackCheck / kNackConfirm) before
//    recovering, avoiding spurious recoveries (Section 3.4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fec/coded_batch.h"
#include "overlay/datacenter.h"
#include "services/coding/coding_plan.h"

namespace jqos::services {

namespace detail {

// Open-addressed hash map for the recovery DC's batch store: linear probing
// over a power-of-two bucket array kept at most three-quarters full, erase
// by backward shift (no tombstones). Only grow() allocates, so once a
// workload has reached its peak population, inserts and erases allocate
// nothing.
template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
 public:
  std::size_t size() const { return size_; }

  V* find(const K& key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = next(i)) {
      if (!buckets_[i].used) return nullptr;
      if (buckets_[i].key == key) return &buckets_[i].value;
    }
  }

  // The value for `key`, value-initialized if `key` was absent.
  V& operator[](const K& key) {
    if (4 * (size_ + 1) > 3 * buckets_.size()) grow();
    std::size_t i = home(key);
    for (; buckets_[i].used; i = next(i)) {
      if (buckets_[i].key == key) return buckets_[i].value;
    }
    buckets_[i] = Bucket{key, V{}, true};
    ++size_;
    return buckets_[i].value;
  }

  void erase(const K& key) {
    if (size_ == 0) return;
    std::size_t hole = home(key);
    for (; buckets_[hole].used; hole = next(hole)) {
      if (buckets_[hole].key == key) break;
    }
    if (!buckets_[hole].used) return;
    // Pull each later member of the probe run into the hole unless its home
    // lies between the hole and itself.
    for (std::size_t j = next(hole); buckets_[j].used; j = next(j)) {
      if (((j - home(buckets_[j].key)) & mask()) >= ((j - hole) & mask())) {
        buckets_[hole] = buckets_[j];
        hole = j;
      }
    }
    buckets_[hole].used = false;
    --size_;
  }

 private:
  struct Bucket {
    K key{};
    V value{};
    bool used = false;
  };

  std::size_t mask() const { return buckets_.size() - 1; }
  std::size_t home(const K& key) const { return Hash{}(key) & mask(); }
  std::size_t next(std::size_t i) const { return (i + 1) & mask(); }

  void grow() {
    std::vector<Bucket> old =
        std::exchange(buckets_, std::vector<Bucket>(buckets_.empty() ? 16 : 2 * buckets_.size()));
    size_ = 0;
    for (const Bucket& b : old) {
      if (b.used) (*this)[b.key] = b.value;
    }
  }

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
};

}  // namespace detail

struct RecoveryParams {
  // Deadline for a cooperative recovery round; "since recovery is time
  // sensitive, the protocol fails silently if not enough ... cooperative
  // recovery responses are received within a set deadline".
  SimDuration coop_deadline = msec(200);
  // How long coded packets stay useful at DC2.
  SimDuration batch_ttl = sec(10);
};

struct RecoveryStatsDc {
  std::uint64_t nacks = 0;
  std::uint64_t nack_keys = 0;
  std::uint64_t in_stream_served = 0;
  std::uint64_t coop_ops = 0;
  std::uint64_t coop_requests_sent = 0;
  std::uint64_t coop_responses = 0;
  std::uint64_t coop_success = 0;
  std::uint64_t coop_deadline_failures = 0;
  std::uint64_t recovered_sent = 0;
  std::uint64_t nack_checks_sent = 0;
  std::uint64_t nack_confirms = 0;
  std::uint64_t uncovered_keys = 0;
  std::uint64_t straggler_responses = 0;  // Responses after the op finished.
  std::uint64_t batches_stored = 0;
  std::uint64_t batches_expired = 0;
  std::uint64_t recheck_probes = 0;  // Coverage arrived for a pending NACK.
  std::uint64_t crash_wipes = 0;     // DC crashes that wiped recovery state.
  std::uint64_t stale_timers = 0;    // Pre-crash timers neutered by the epoch guard.
  // Coded packets refused because their k, r or covered keys disagree with
  // the stored batch of the same id.
  std::uint64_t inconsistent_coded = 0;
  // Coded packets refused because they fail coded_shape_valid: no codec
  // could decode their batch.
  std::uint64_t malformed_coded = 0;

  // The one merge definition every totals path (per-shard and cross-shard)
  // uses; a new field added here is summed everywhere or nowhere.
  RecoveryStatsDc& operator+=(const RecoveryStatsDc& o) {
    nacks += o.nacks;
    nack_keys += o.nack_keys;
    in_stream_served += o.in_stream_served;
    coop_ops += o.coop_ops;
    coop_requests_sent += o.coop_requests_sent;
    coop_responses += o.coop_responses;
    coop_success += o.coop_success;
    coop_deadline_failures += o.coop_deadline_failures;
    recovered_sent += o.recovered_sent;
    nack_checks_sent += o.nack_checks_sent;
    nack_confirms += o.nack_confirms;
    uncovered_keys += o.uncovered_keys;
    straggler_responses += o.straggler_responses;
    batches_stored += o.batches_stored;
    batches_expired += o.batches_expired;
    recheck_probes += o.recheck_probes;
    crash_wipes += o.crash_wipes;
    stale_timers += o.stale_timers;
    inconsistent_coded += o.inconsistent_coded;
    malformed_coded += o.malformed_coded;
    return *this;
  }
};

class RecoveryService final : public overlay::DcService {
 public:
  RecoveryService(overlay::DataCenter& dc, const RecoveryParams& params,
                  FlowRegistryPtr registry);

  const char* name() const override { return "cr-wan-recovery"; }

  bool handle(overlay::DataCenter& dc, const PacketPtr& pkt) override;

  // Fault layer: a crash loses everything a process restart would lose --
  // stored batches, the key index, in-flight cooperative ops (their deadline
  // timers die with them AND are epoch-guarded), pending NACKs, and the
  // sweep timer. The service then rebuilds from newly arriving coded packets;
  // receivers re-NACK on their own timers.
  void on_dc_crash() override;

  const RecoveryStatsDc& stats() const { return stats_; }

  // Number of coded batches currently held.
  std::size_t batches_held() const { return store_.slot_of.size(); }

  // Test hook (stale-timer regression): invokes the coop-deadline callback
  // exactly as a timer armed in epoch `epoch` would -- a stale epoch must be
  // a counted no-op even when batch_id has been reused since.
  void debug_fire_deadline(std::uint32_t batch_id, std::uint64_t epoch) {
    finish_op_failure(batch_id, epoch);
  }
  std::uint64_t epoch() const { return epoch_; }

 private:
  // A stored batch's meta is its first coded packet's, which `coded` keeps
  // alive for the batch's whole life.
  struct BatchState {
    std::vector<PacketPtr> coded;
    SimTime first_seen = 0;
    bool is_cross = false;

    const CodedMeta& meta() const { return *coded.front()->meta; }
  };

  // The slab slots of the batches covering one key, in store order: the
  // first two inline (the encoder covers each key with one in-stream and
  // one cross-stream batch), any further ones in Store::key_spill.
  struct KeySlots {
    std::uint32_t n = 0;
    std::uint32_t slot[2] = {};
  };

  struct Arrival {
    SimTime first_seen = 0;
    std::uint32_t slot = 0;
  };

  // One encoder numbers its batches consecutively; mix ids before masking.
  struct BatchIdHash {
    std::size_t operator()(std::uint32_t id) const {
      const std::uint64_t v = id * 0x9E3779B97F4A7C15ULL;
      return static_cast<std::size_t>(v ^ (v >> 32));
    }
  };

  // The coded batches held for recovery. A batch lives in one slab slot
  // from its first coded packet until a sweep expires it; the slot then
  // joins free_slots and keeps its `coded` capacity for the next batch.
  // Slots are internal to the store: ops and timers name batches by id,
  // and no slot or BatchState* outlives the event that looked it up.
  struct Store {
    std::vector<BatchState> slab;
    std::vector<std::uint32_t> free_slots;
    detail::FlatMap<std::uint32_t, std::uint32_t, BatchIdHash> slot_of;  // batch id -> slot
    detail::FlatMap<PacketKey, KeySlots> key_index;
    std::unordered_map<PacketKey, std::vector<std::uint32_t>> key_spill;  // Third slot on.
    // Each batch no sweep has yet found past its TTL, in store order:
    // first_seen is nondecreasing along it.
    std::vector<Arrival> arrivals;
    // Batches past their TTL that a cooperative op held at a sweep.
    std::vector<std::uint32_t> held;
  };

  // One cooperative recovery operation per cross-stream batch. Both vectors
  // are indexed by codeword position.
  struct CoopOp {
    explicit CoopOp(netsim::Simulator& sim) : deadline(sim) {}
    std::uint32_t batch_id = 0;
    std::uint32_t answered = 0;  // Non-null entries of `responses`.
    // The first peer response at each position, whose payload the decode
    // reads in place; null until one arrives.
    std::vector<PacketPtr> responses;
    // The receiver that asked for the packet at each position (the latest
    // NACK wins), or kInvalidNode.
    std::vector<NodeId> requesters;
    netsim::Timer deadline;  // Fails the op; erasing the op cancels it.
  };

  struct PendingNack {
    NodeId receiver = kInvalidNode;
    SimTime expires_at = 0;
    bool confirmed = false;
    bool check_sent = false;
  };

  void on_coded(const PacketPtr& pkt);
  void on_nack(const PacketPtr& pkt, bool confirm);
  void on_coop_response(const PacketPtr& pkt);

  // Attempts recovery of `key` for `receiver`; returns true if some path
  // (in-stream serve or cooperative op) was started or already underway.
  bool recover_key(const PacketKey& key, NodeId receiver, bool prefer_coop);

  // Serves the in-stream coded packets covering `key` to the receiver.
  bool serve_in_stream(const PacketKey& key, NodeId receiver);

  // Starts (or joins) the cooperative op for the cross batch covering key.
  bool start_coop(const PacketKey& key, NodeId receiver);

  void maybe_finish_op(CoopOp& op);
  // Deadline callback. `epoch` is the service epoch the timer was armed in;
  // a timer scheduled before a crash wipe finds epoch != epoch_ and is a
  // counted no-op. The wipe already cancels every deadline with its op, so
  // this guard is a second check.
  void finish_op_failure(std::uint32_t batch_id, std::uint64_t epoch);

  // Reclaims expired batches / pending NACKs. Freshness is enforced lazily
  // at lookup time (batch_fresh), so the sweep only frees memory and bumps
  // batches_expired -- its timing can never change recovery behavior. The
  // sweep itself runs on a timer aligned to the whole-second simulated-time
  // grid: the set of (batch, sweep-tick) expiry decisions is then a pure
  // function of store times, not of which flow's packet happened to arrive
  // first -- the property the sharded runner's merge-determinism relies on
  // when unrelated path groups share one recovery DC.
  //
  // A batch expires at the first sweep that finds it older than the TTL
  // and not held by a cooperative op. first_seen is nondecreasing in store
  // order (Store::arrivals), so the sweep pops only the expired prefix; a
  // batch an op still holds moves to Store::held and is retried at every
  // later sweep. A sweep that leaves the store empty releases its memory.
  void sweep_batches();
  void arm_sweep();

  // TTL filter applied on every lookup; see sweep_batches().
  bool batch_fresh(const BatchState& b) const {
    return dc_.now() - b.first_seen <= params_.batch_ttl;
  }

  // Opens a batch for `pkt`, its first coded packet, in a free slot and
  // indexes the keys `pkt` covers; returns the slot.
  std::uint32_t store_batch(const Packet& pkt);
  // Unindexes the batch in `slot` and returns the slot to the free list.
  void expire(std::uint32_t slot);

  BatchState* batch_by_id(std::uint32_t batch_id);
  // The first batch covering `key`, in store order, that `pred` accepts.
  template <typename Pred>
  BatchState* first_batch(const PacketKey& key, Pred pred);
  BatchState* cross_batch_for(const PacketKey& key);
  BatchState* in_batch_for(const PacketKey& key);

  overlay::DataCenter& dc_;
  RecoveryParams params_;
  FlowRegistryPtr registry_;

  Store store_;
  std::unordered_map<std::uint32_t, CoopOp> ops_;
  std::unordered_map<PacketKey, PendingNack> pending_;
  netsim::Timer sweep_timer_;
  // Bumped on every crash wipe; every deadline timer carries the epoch it
  // was armed in so stale ones are no-ops.
  std::uint64_t epoch_ = 0;

  // Scratch for fec::decode_batch: grows to the largest batch shape once
  // and keeps a codec per shape, then every decode frames and reconstructs
  // in place.
  fec::ShardArena decode_arena_;

  // Per-call scratch recycled across packets (services run on their shard's
  // single event loop, so handlers never run reentrantly).
  NackInfo nack_scratch_;
  std::vector<PacketKey> keys_scratch_;
  std::vector<std::pair<std::size_t, std::span<const std::uint8_t>>> present_scratch_;
  std::vector<std::size_t> wanted_scratch_;
  std::vector<std::span<const std::uint8_t>> recovered_scratch_;

  RecoveryStatsDc stats_;
};

}  // namespace jqos::services
