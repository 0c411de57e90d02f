// The J-QoS receiver: the end-point half of the reliability layer that
// logically sits between transport and network (Section 3.4, Section 5).
//
// Responsibilities:
//  * deliver direct-path packets up the stack and track per-flow sequence
//    state (gap detection);
//  * run the two-state Markov timeout to catch tail losses with no
//    subsequent packet to reveal the gap;
//  * issue NACKs to the nearby DC (DC2) and stamp each recovered delivery
//    with the time its loss was detected;
//  * buffer recent data packets so it can (a) answer cooperative-recovery
//    requests for other receivers' losses and (b) locally decode in-stream
//    coded packets sent by DC2;
//  * answer DC2's NackCheck probes (spurious-recovery guard).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/packet.h"
#include "common/rng.h"
#include "endpoint/markov_detector.h"
#include "fec/coded_batch.h"
#include "netsim/network.h"

namespace jqos::endpoint {

// Overlay-death detection and direct-path failover (receiver side).
//
// DC2 answers every NACK one way or another -- with recovered packets,
// in-stream coded packets, or a kNackCheck when it has no coverage -- so a
// run of NACKs with no DC2-originated packet in between is a death signal.
// Path-switching flows (no direct copies) additionally watch for outright
// data silence, since all their traffic rides the overlay. Once the overlay
// is declared down the receiver notifies its overlay handler (the scenario
// wires this to the sender's direct-path override), suppresses regular
// NACKs, and probes DC2 with capped exponential backoff; any
// overlay-originated arrival re-engages immediately (constants: receiver.cc).
struct FailoverParams {
  bool enabled = false;
  // Path-switching flows: data itself rides the overlay, so every arriving
  // data packet (while up) counts as an overlay life sign, and the overlay
  // is declared dead when NO sign at all -- data or DC2 control traffic --
  // has been heard for `data_silence` while some flow is live. Receiver-wide
  // on purpose: a single finished flow going quiet is normal; total silence
  // across every concurrent flow is not.
  bool overlay_carries_data = false;
  SimDuration data_silence = msec(500);
};

struct ReceiverConfig {
  // DC the receiver recovers through (its nearby DC2); kInvalidNode
  // disables recovery entirely (plain Internet receiver).
  NodeId dc2 = kInvalidNode;
  // Service NACKs are addressed to at DC2 (kCode -> CR-WAN recovery,
  // kCache -> cache pulls); set by the service-selection decision.
  ServiceType recovery_service = ServiceType::kCode;
  // Initial direct-path RTT estimate for the long timeout.
  SimDuration rtt_estimate = msec(100);
  MarkovParams markov;
  // Ablation D3: false replaces the two-state model with a single fixed
  // timeout of kSingleTimeout (receiver.cc; Section 6.4 reports 5x more
  // NACKs).
  bool use_markov = true;
  // A missing packet not recovered within this span is declared lost (the
  // paper counts recovery beyond one RTT as a loss); 0 means one RTT.
  SimDuration recovery_give_up = 0;
  // Re-NACK interval for still-missing packets (retries lost NACKs).
  SimDuration renack_interval = msec(100);
  // Straggler model for cooperative-recovery responses: with probability
  // `coop_slow_prob` a response is delayed by a uniform draw from
  // [kCoopSlowMin, kCoopSlowMax] (receiver.cc) -- loaded hosts, scheduling
  // jitter, the behaviour the extra cross-coded packets protect against.
  double coop_slow_prob = 0.0;
  std::uint64_t rng_seed = 1;
  // Overlay-death detection; disabled by default (zero events, zero extra
  // RNG draws, bit-identical traces when off).
  FailoverParams failover;
};

// One record per packet the application layer learns about.
struct DeliveryRecord {
  FlowId flow = 0;
  SeqNo seq = 0;
  SimTime sent_at = 0;       // 0 when unknown (recovered packets).
  SimTime delivered_at = 0;
  bool recovered = false;    // Arrived via J-QoS recovery, not direct path.
  bool lost = false;         // Gave up: never delivered.
  // The direct-path copy arrived after the packet had already been
  // delivered (usually after a recovery raced a delay spike): the packet
  // was late, not lost. Consumers use this to reclassify.
  bool late_direct = false;
  SimTime detected_missing_at = 0;  // When the gap/timer fired (if ever).
};

struct ReceiverStats {
  std::uint64_t delivered_direct = 0;
  std::uint64_t delivered_recovered = 0;
  std::uint64_t self_decoded = 0;       // In-stream decodes at the receiver.
  std::uint64_t duplicates = 0;
  std::uint64_t losses_detected = 0;
  std::uint64_t losses_given_up = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t tail_nacks_sent = 0;
  std::uint64_t nack_confirms_sent = 0;
  std::uint64_t coop_responses_sent = 0;
  std::uint64_t coop_misses = 0;        // Asked for a packet we also lack.
  std::uint64_t coop_deferred = 0;      // Answered once the packet arrived.
  std::uint64_t spurious_timeouts = 0;  // Timer fired, nothing was missing.
  std::uint64_t suspected_tail_dropped = 0;  // Timer suspicions never confirmed.
  std::uint64_t failovers = 0;          // Overlay declared dead.
  std::uint64_t reengages = 0;          // Overlay declared back up.
  std::uint64_t probes_sent = 0;        // Backed-off overlay probes.
  std::uint64_t nacks_suppressed = 0;   // NACKs skipped while the overlay was down.
  std::uint64_t far_ahead_dropped = 0;  // Arrivals kMaxSeqGap or more past the edge.
  std::uint64_t malformed_coded = 0;    // In-stream packets failing coded_shape_valid.
};

class Receiver final : public netsim::Node {
 public:
  // `pkt` is the delivered packet (payload for the upper layer); nullptr
  // for records that report a given-up loss.
  using DeliverFn = std::function<void(const DeliveryRecord&, const PacketPtr& pkt)>;

  Receiver(netsim::Network& net, const ReceiverConfig& config, DeliverFn on_delivery = {});

  NodeId id() const override { return node_id_; }

  // Replaces the delivery upcall (used when the upper layer is constructed
  // after the receiver, e.g. the TCP model).
  void set_delivery_handler(DeliverFn fn) { on_delivery_ = std::move(fn); }

  // Starts tracking a flow (first expected sequence number is 0).
  void expect_flow(FlowId flow);

  // Stops tracking a flow and reclaims ALL of its state (sequence window
  // and history, deferred coop requests, in-stream coded batches,
  // detector, timer). Packets of the flow that are still in
  // flight arrive as unknown-flow packets, which every handler already
  // ignores; a cooperative request for a forgotten flow counts as a miss.
  // Session churn depends on this being a complete teardown: per-flow
  // memory must be O(live flows), not O(flows ever seen).
  void forget_flow(FlowId flow);

  void handle_packet(const PacketPtr& pkt) override;

  const ReceiverStats& stats() const { return stats_; }

  // Overlay up/down transitions (failover layer). The scenario wires this
  // to the sender's set_overlay_down via a modeled control-channel delay.
  using OverlayEventFn = std::function<void(bool up, SimTime at)>;
  void set_overlay_handler(OverlayEventFn fn) { on_overlay_ = std::move(fn); }

 private:
  // One sequence number of a flow's SeqWindow.
  struct SeqSlot {
    enum class State : std::uint8_t {
      kUnseen,   // No evidence yet, like every seq at or above hi.
      kMissing,  // A detected hole, at or above the contiguity edge.
      kArrived,  // Delivered, recovered or given up; every slot below the edge.
    };
    State state = State::kUnseen;
    SeqNo history_next = 0;    // The next newer history packet's seq.
    SimTime detected_at = 0;   // kMissing: when the hole was detected
    SimTime last_nack_at = 0;  // and when it was last NACKed.
    PacketPtr pkt;             // Set while this packet is in the history.
  };

  // A flow's sequence space: a power-of-two ring of slots over [lo, hi). The
  // history -- the last 1,024 delivered packets, for cooperative responses
  // and self-decode -- is linked oldest to newest through the slots. lo never
  // passes the receiver's contiguity edge (lo <= next_expected) and advances
  // only past slots that hold no packet, so the history stays in the window.
  // lo and hi are 64-bit so that seq 2^32-1 does not wrap.
  class SeqWindow {
   public:
    // The slot of a seq in [lo, hi).
    SeqSlot& operator[](std::uint64_t seq) { return ring_[seq & (ring_.size() - 1)]; }
    // Seqs outside [lo, hi) read as unseen: callers test the edge first.
    SeqSlot::State state(std::uint64_t seq) const {
      return seq >= lo_ && seq < hi_ ? ring_[seq & (ring_.size() - 1)].state
                                     : SeqSlot::State::kUnseen;
    }
    // The history packet of `seq`, or null.
    const Packet* packet(std::uint64_t seq) const {
      return seq >= lo_ && seq < hi_ ? ring_[seq & (ring_.size() - 1)].pkt.get() : nullptr;
    }
    // Raises hi to `end` with unseen slots. Growing may reallocate the ring,
    // so no slot reference survives this call.
    void extend(std::uint64_t end);
    // Advances lo toward `edge` past slots that hold no packet.
    void trim(std::uint64_t edge);
    // Appends a delivered packet (its seq in the window) as the newest
    // history packet, first dropping the oldest when the history is full.
    void remember(const PacketPtr& pkt);

   private:
    std::vector<SeqSlot> ring_;
    std::uint64_t lo_ = 0;
    std::uint64_t hi_ = 0;
    SeqNo history_head_ = 0;  // Oldest history packet.
    SeqNo history_tail_ = 0;  // Newest history packet.
    std::size_t history_size_ = 0;
  };

  // The in-stream coded packets of one batch, kept until decode or eviction.
  struct InCodedBatch {
    std::uint32_t batch_id = 0;
    std::vector<PacketPtr> coded;
  };
  using InCodedIt = std::vector<InCodedBatch>::iterator;

  struct FlowState {
    // Contiguity edge: all seq < next_expected are delivered, recovered, or
    // given up. `window` holds each seq's state from lo <= next_expected
    // up; `missing` counts its kMissing slots, all at or above the edge.
    SeqNo next_expected = 0;
    SeqWindow window;
    std::size_t missing = 0;
    // Cooperative requests for packets that have not arrived yet (the
    // requester's detection raced our slower direct path): answered as
    // soon as the packet lands, dropped after a short window.
    std::map<SeqNo, std::pair<PacketPtr, SimTime>> deferred_coop;
    // In-stream coded batches in order of first arrival, at most
    // kInCodedBatches (receiver.cc); the oldest is dropped first.
    std::vector<InCodedBatch> in_coded;
    MarkovDetector detector;
    netsim::Timer timer;
    SimTime last_arrival = -1;   // Last direct-path arrival (Markov input).
    SimTime last_activity = -1;  // Any delivery, incl. recoveries: keeps the
                                 // timer alive through outages so tail
                                 // recovery continues wave after wave.
    // One past the highest sequence number with delivery evidence; holes at
    // or above this may be timer suspicions about packets that were never
    // sent (burst boundary), so they are dropped silently on give-up.
    SeqNo evidence_horizon = 0;

    FlowState(const MarkovDetector& d, netsim::Simulator& sim) : detector(d), timer(sim) {}
  };

  void on_data(const PacketPtr& pkt, bool recovered);
  void on_in_coded(const PacketPtr& pkt);
  void on_coop_request(const PacketPtr& pkt);
  void on_nack_check(const PacketPtr& pkt);
  void on_timer(FlowId flow);

  // Failover machinery; all no-ops unless config_.failover.enabled.
  void note_overlay_evidence();
  void declare_overlay_down();
  void declare_overlay_up();
  void arm_probe();
  void on_probe();
  void send_probe();
  bool any_active_flow() const;

  // Marks the unseen seqs of [from, to_exclusive) missing and NACKs them.
  void note_missing(FlowState& fs, FlowId flow, std::uint64_t from, std::uint64_t to_exclusive,
                    bool tail = false);
  void send_nack(FlowId flow, FlowState& fs, const std::vector<SeqNo>& missing, bool tail,
                 bool probe = false);
  void deliver(FlowId flow, SeqNo seq, const PacketPtr& pkt, bool recovered,
               SimTime detected_at);
  void advance_contiguity(FlowState& fs);
  void remember(FlowState& fs, const PacketPtr& pkt);
  // Decodes the flow's missing packets from `batch` once enough symbols are
  // at hand, then drops the batch.
  void try_self_decode(FlowId flow, FlowState& fs, InCodedIt batch);
  void give_up_stale(FlowId flow, FlowState& fs);
  void arm_timer(FlowId flow, FlowState& fs, SimDuration timeout);

  netsim::Network& net_;
  NodeId node_id_;
  ReceiverConfig config_;
  DeliverFn on_delivery_;
  Rng rng_;
  // Failover state (see FailoverParams).
  OverlayEventFn on_overlay_;
  bool overlay_up_ = true;
  // Latest overlay life sign: DC2-originated control traffic, or (for
  // path-switching receivers, while up) any data arrival. -1 = never.
  SimTime last_overlay_signal_ = -1;
  int unanswered_nacks_ = 0;
  netsim::Timer probe_timer_;
  SimDuration probe_backoff_ = 0;
  std::unordered_map<FlowId, FlowState> flows_;
  ReceiverStats stats_;
  // Reused scratch for in-stream self-decodes (fec::decode_batch): sized by
  // the largest batch seen, recycled across decodes, and holding the codecs
  // of the shapes decoded so far.
  fec::ShardArena decode_arena_;
  // Per-call scratch recycled across packets (handlers run one at a time on
  // the shard's event loop, never reentrantly). nack_scratch_ keeps the
  // missing vector and serialization capacity warm; the others replace
  // per-call locals.
  NackInfo nack_scratch_;
  std::vector<SeqNo> gap_scratch_;    // note_missing: freshly detected holes
  std::vector<SeqNo> stale_scratch_;  // on_timer: holes due for re-NACK
  std::vector<std::pair<std::size_t, std::span<const std::uint8_t>>> present_scratch_;
  std::vector<std::size_t> wanted_scratch_;
  std::vector<std::span<const std::uint8_t>> recovered_scratch_;
};

}  // namespace jqos::endpoint
