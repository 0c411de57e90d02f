// Core identifier and scalar types shared by every J-QoS module.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace jqos {

// Identifies one application flow (one sender->receiver stream) end to end.
// Flow ids are assigned by the framework at register() time and carried in
// every J-QoS header so data centers can group flows for cross-stream coding.
using FlowId = std::uint32_t;

// Per-flow packet sequence number. The paper's prototype uses unique packet
// sequence numbers as the cache/retrieval identifier (Section 3.2); we do the
// same. Sequence numbers start at 0 for the first packet of a flow.
using SeqNo = std::uint32_t;

// The farthest one arrival may land past a receiver's next expected
// sequence number. Every number in between becomes a tracked hole and a
// NACK, so one hostile or corrupt packet with a far-ahead seq would cost
// memory and traffic in proportion to the gap (up to 2^32). The receiver
// drops such an arrival, counts it, and touches no flow state. Real traffic
// stays far below the bound: over every perfbench sub-seed of seeds 1 and
// 7919, no arrival landed more than 2,061 past its receiver's edge.
inline constexpr SeqNo kMaxSeqGap = SeqNo{1} << 16;

// Identifies a node (end host or data center) in either the simulator or the
// live runtime. NodeId 0 is reserved as "invalid / unset".
using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = 0;

// Identifies a data center within the overlay.
using DcId = std::uint16_t;

inline constexpr DcId kInvalidDc = 0xffff;

// A (flow, seq) pair uniquely names a data packet across the whole system;
// it is the retrieval key for the caching service and the unit the coding
// service tracks through encode / NACK / cooperative recovery.
struct PacketKey {
  FlowId flow = 0;
  SeqNo seq = 0;

  friend bool operator==(const PacketKey&, const PacketKey&) = default;
  friend auto operator<=>(const PacketKey&, const PacketKey&) = default;
};

std::string to_string(const PacketKey& key);

}  // namespace jqos

template <>
struct std::hash<jqos::PacketKey> {
  std::size_t operator()(const jqos::PacketKey& k) const noexcept {
    // Flow and seq are both 32-bit; pack into one 64-bit value and mix.
    std::uint64_t v =
        (static_cast<std::uint64_t>(k.flow) << 32) | static_cast<std::uint64_t>(k.seq);
    v ^= v >> 33;
    v *= 0xff51afd7ed558ccdULL;
    v ^= v >> 33;
    return static_cast<std::size_t>(v);
  }
};
