// The J-QoS packet: the single message type exchanged between end points and
// data-center services, in both the discrete-event simulator and the live
// UDP runtime.
//
// The paper's prototype encapsulates transport segments in a "J-QoS header"
// (Section 5). We model that header explicitly: a packet carries its type,
// the flow it belongs to, a per-flow sequence number (the cache/recovery
// identifier, Section 3.2), routing endpoints, and - for coded packets - the
// metadata CR-WAN needs for cooperative recovery: which flows and sequence
// numbers are represented in the batch (Section 4.2: "DC1 must also include
// information in the coded packets about which flows and sequence numbers
// are represented").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"

namespace jqos {

enum class PacketType : std::uint8_t {
  kData = 0,          // Application payload (direct path, duplicate, or forwarded).
  kInCoded = 1,       // In-stream FEC packet (protects one flow).
  kCrossCoded = 2,    // Cross-stream coded packet (protects a batch of flows).
  kNack = 3,          // Receiver -> DC2: a packet was declared lost.
  kNackCheck = 4,     // DC2 -> receiver: confirm loss before recovery (burst
                      // boundary guard, Section 3.4).
  kNackConfirm = 5,   // Receiver -> DC2: yes, still missing.
  kPull = 6,          // Receiver -> DC2 cache: retrieve a stored packet.
  kCoopRequest = 7,   // DC2 -> peer receiver: send back your data packet.
  kCoopResponse = 8,  // Peer receiver -> DC2: here is my data packet.
  kRecovered = 9,     // DC2 -> receiver: the decoded / cached packet.
  kControl = 10,      // Control channel (registration, ON-interval sync).
};

const char* to_string(PacketType t);

// Which J-QoS service should process a packet when it reaches a data
// center. Set by the sender according to the service-selection decision
// (Section 3.5); carried in the J-QoS header.
enum class ServiceType : std::uint8_t {
  kNone = 0,     // Plain Internet delivery; DCs never see these.
  kForward = 1,  // Forwarding service (Section 3.1).
  kCache = 2,    // Caching service (Section 3.2).
  kCode = 3,     // Coding service / CR-WAN (Sections 3.3, 4).
};

const char* to_string(ServiceType s);

// Metadata attached to kCrossCoded (and kInCoded) packets: enough for DC2 to
// know which data packets the coded symbol spans and which receivers to
// solicit during cooperative recovery.
struct CodedMeta {
  std::uint32_t batch_id = 0;  // Unique per (encoding DC, batch).
  std::uint8_t index = 0;      // Index of this coded symbol within the batch
                               // (0..k+r-1 in RS codeword space; coded symbols
                               // use indices >= k).
  std::uint8_t k = 0;          // Number of data packets in the batch.
  std::uint8_t r = 0;          // Number of coded packets generated.
  std::vector<PacketKey> covered;  // The k data packets, in codeword order.

  friend bool operator==(const CodedMeta&, const CodedMeta&) = default;
};

struct Packet {
  PacketType type = PacketType::kData;
  ServiceType service = ServiceType::kNone;
  FlowId flow = 0;
  SeqNo seq = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  // Final destination when the packet is being relayed through the overlay
  // (dst is then the next hop). kInvalidNode means dst is final. The
  // forwarding service routes on this field (Section 3.1).
  NodeId final_dst = kInvalidNode;
  // Origin timestamp (set by the first sender); used for one-way-delay and
  // recovery-latency accounting, mirroring the probe timestamps the paper's
  // deployment logged.
  SimTime sent_at = 0;
  // ECN codepoints. ecn_capable (ECT) says the sending transport understands
  // congestion marks; an AQM queue disc may then set ecn_ce (CE) instead of
  // dropping. Both travel in spare bits of the wire header's flags byte, so
  // wire_size() — and therefore every bandwidth/egress charge — is unchanged.
  bool ecn_capable = false;
  bool ecn_ce = false;
  std::optional<CodedMeta> meta;
  std::vector<std::uint8_t> payload;

  // Size this packet would occupy on the wire (header + metadata + payload);
  // the simulator charges bandwidth and the cost model charges egress by
  // this size.
  std::size_t wire_size() const;

  // Wire encoding (used verbatim by the live runtime; the simulator
  // round-trips packets through it in debug tests to keep the two paths in
  // sync). parse returns nullopt on a malformed datagram, including a coded
  // one that fails coded_shape_valid.
  std::vector<std::uint8_t> serialize() const;
  static std::optional<Packet> parse(std::span<const std::uint8_t> data);

  PacketKey key() const { return PacketKey{flow, seq}; }
  bool is_coded() const {
    return type == PacketType::kInCoded || type == PacketType::kCrossCoded;
  }
};

// The one shape rule for coded packets: true when `p` is a kInCoded or
// kCrossCoded packet describing a batch an encoder can build -- meta
// present, 1 <= k, k + r <= 255, k <= index < k + r, covered.size() == k,
// and, for kInCoded (which protects one flow), every covered key in one
// flow. False for every other type. Packet::parse refuses a coded datagram
// that fails it; handlers of coded packets call it on in-process arrivals.
bool coded_shape_valid(const Packet& p);

// Packets are passed by shared const pointer inside the simulator, so a
// packet can be queued, stored and forwarded without copying its payload.
// The sender's duplication is a copy per path: Sender::transmit fills one
// base packet and sends a (pooled) copy of it to the Internet path and
// another to the cloud path.
using PacketPtr = std::shared_ptr<const Packet>;

// Convenience factories -------------------------------------------------
//
// Every factory takes an optional PacketPool (see common/packet_pool.h).
// With a pool, storage and the shared_ptr control block are recycled and
// steady state touches the global allocator zero times per packet; with
// nullptr the factories are plain make_shared. The returned values are
// identical either way, so pooling can never perturb simulation results.

class PacketPool;

PacketPtr make_data_packet(FlowId flow, SeqNo seq, NodeId src, NodeId dst,
                           SimTime now, std::size_t payload_bytes,
                           PacketPool* pool = nullptr);

// The choke points the ad-hoc builders (NACK/response/confirm/copy sites in
// endpoint and services) go through, so header fields start uniformly
// initialized and pooling covers every hot allocation:

// A blank mutable packet (all fields default-initialized).
std::shared_ptr<Packet> alloc_packet(PacketPool* pool);

// A mutable deep copy of `src`.
std::shared_ptr<Packet> alloc_packet_copy(PacketPool* pool, const Packet& src);

// A blank packet with the J-QoS header fields set in one call; payload and
// meta are left for the caller.
std::shared_ptr<Packet> make_packet(PacketPool* pool, PacketType type,
                                    ServiceType service, FlowId flow,
                                    SeqNo seq, NodeId src, NodeId dst,
                                    SimTime now);

// Engages pkt.meta scrubbed (batch/index/k/r zeroed, covered cleared); with
// a pool the covered vector gets salvaged capacity from recycled coded
// packets.
CodedMeta& engage_meta(PacketPool* pool, Packet& pkt);

// Fixed per-packet header overhead in bytes (version, type, ids, timestamp,
// lengths). Exposed so tests and the cost model can reason about overhead.
std::size_t packet_header_bytes();

// Payload of kNack / kNackConfirm packets: the explicitly detected missing
// sequence numbers plus, when `tail` is set, a request to recover everything
// the DC holds for the flow from `expected` onward (timer-driven tail-loss
// NACKs during bursts/outages, Section 3.4).
struct NackInfo {
  bool tail = false;
  SeqNo expected = 0;
  std::vector<SeqNo> missing;

  std::vector<std::uint8_t> serialize() const;
  // Serializes into `out` (cleared first, capacity reused) so pooled packet
  // payloads don't reallocate per NACK in steady state.
  void serialize_into(std::vector<std::uint8_t>& out) const;
  // Parses into `out` (missing cleared, capacity reused); false on malformed
  // input, with `out` left in an unspecified-but-valid state.
  static bool parse_into(std::span<const std::uint8_t> data, NackInfo& out);

  friend bool operator==(const NackInfo&, const NackInfo&) = default;
};

}  // namespace jqos
