#include "common/packet.h"

#include <algorithm>
#include <sstream>

#include "common/packet_pool.h"
#include "common/wire.h"

namespace jqos {

namespace {
constexpr std::uint8_t kWireVersion = 1;
// version(1) + type(1) + service(1) + flow(4) + seq(4) + src(4) + dst(4)
// + final_dst(4) + sent_at(8) + flags(1) + payload length prefix(4)
constexpr std::size_t kHeaderBytes = 1 + 1 + 1 + 4 + 4 + 4 + 4 + 4 + 8 + 1 + 4;

// The flags byte: bit 0 = coded metadata follows, bits 1-2 = ECN codepoint.
constexpr std::uint8_t kFlagHasMeta = 1 << 0;
constexpr std::uint8_t kFlagEcnCapable = 1 << 1;
constexpr std::uint8_t kFlagEcnCe = 1 << 2;
}  // namespace

const char* to_string(ServiceType s) {
  switch (s) {
    case ServiceType::kNone: return "none";
    case ServiceType::kForward: return "forward";
    case ServiceType::kCache: return "cache";
    case ServiceType::kCode: return "code";
  }
  return "?";
}

std::string to_string(const PacketKey& key) {
  std::ostringstream os;
  os << "flow=" << key.flow << "/seq=" << key.seq;
  return os.str();
}

std::string format_duration(SimDuration d) {
  std::ostringstream os;
  if (d < 0) {
    os << "-";
    d = -d;
  }
  if (d < 1000) {
    os << d << "us";
  } else if (d < 1000 * 1000) {
    os << to_ms(d) << "ms";
  } else {
    os << to_sec(d) << "s";
  }
  return os.str();
}

const char* to_string(PacketType t) {
  switch (t) {
    case PacketType::kData: return "DATA";
    case PacketType::kInCoded: return "IN_CODED";
    case PacketType::kCrossCoded: return "CROSS_CODED";
    case PacketType::kNack: return "NACK";
    case PacketType::kNackCheck: return "NACK_CHECK";
    case PacketType::kNackConfirm: return "NACK_CONFIRM";
    case PacketType::kPull: return "PULL";
    case PacketType::kCoopRequest: return "COOP_REQUEST";
    case PacketType::kCoopResponse: return "COOP_RESPONSE";
    case PacketType::kRecovered: return "RECOVERED";
    case PacketType::kControl: return "CONTROL";
  }
  return "UNKNOWN";
}

std::size_t packet_header_bytes() { return kHeaderBytes; }

std::size_t Packet::wire_size() const {
  std::size_t n = kHeaderBytes + payload.size();
  if (meta) {
    // batch_id(4) + index(1) + k(1) + r(1) + count(4) + 8 bytes per key
    n += 4 + 1 + 1 + 1 + 4 + meta->covered.size() * 8;
  }
  return n;
}

std::vector<std::uint8_t> Packet::serialize() const {
  ByteWriter w(wire_size());
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(static_cast<std::uint8_t>(service));
  w.u32(flow);
  w.u32(seq);
  w.u32(src);
  w.u32(dst);
  w.u32(final_dst);
  w.i64(sent_at);
  w.u8(static_cast<std::uint8_t>((meta ? kFlagHasMeta : 0) |
                                 (ecn_capable ? kFlagEcnCapable : 0) |
                                 (ecn_ce ? kFlagEcnCe : 0)));
  if (meta) {
    w.u32(meta->batch_id);
    w.u8(meta->index);
    w.u8(meta->k);
    w.u8(meta->r);
    w.u32(static_cast<std::uint32_t>(meta->covered.size()));
    for (const PacketKey& key : meta->covered) {
      w.u32(key.flow);
      w.u32(key.seq);
    }
  }
  w.var_bytes(payload);
  return w.take();
}

std::optional<Packet> Packet::parse(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  if (r.u8() != kWireVersion) return std::nullopt;
  Packet p;
  std::uint8_t type_raw = r.u8();
  if (type_raw > static_cast<std::uint8_t>(PacketType::kControl)) return std::nullopt;
  p.type = static_cast<PacketType>(type_raw);
  std::uint8_t service_raw = r.u8();
  if (service_raw > static_cast<std::uint8_t>(ServiceType::kCode)) return std::nullopt;
  p.service = static_cast<ServiceType>(service_raw);
  p.flow = r.u32();
  p.seq = r.u32();
  p.src = r.u32();
  p.dst = r.u32();
  p.final_dst = r.u32();
  p.sent_at = r.i64();
  const std::uint8_t flags = r.u8();
  p.ecn_capable = (flags & kFlagEcnCapable) != 0;
  p.ecn_ce = (flags & kFlagEcnCe) != 0;
  if ((flags & kFlagHasMeta) != 0) {
    CodedMeta m;
    m.batch_id = r.u32();
    m.index = r.u8();
    m.k = r.u8();
    m.r = r.u8();
    std::uint32_t n = r.u32();
    // A coded batch never spans more than 255 packets (k and r are u8).
    if (n > 255 + 255u) return std::nullopt;
    m.covered.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      PacketKey key;
      key.flow = r.u32();
      key.seq = r.u32();
      m.covered.push_back(key);
    }
    p.meta = std::move(m);
  }
  p.payload = r.var_bytes();
  if (!r.ok()) return std::nullopt;
  if (p.is_coded() && !coded_shape_valid(p)) return std::nullopt;
  return p;
}

bool coded_shape_valid(const Packet& p) {
  if (!p.is_coded() || !p.meta) return false;
  const CodedMeta& m = *p.meta;
  const std::size_t k = m.k;
  const std::size_t n = k + m.r;
  if (k == 0 || n > 255 || m.index < k || m.index >= n || m.covered.size() != k) return false;
  if (p.type == PacketType::kCrossCoded) return true;
  const FlowId flow = m.covered.front().flow;
  return std::all_of(m.covered.begin(), m.covered.end(),
                     [flow](const PacketKey& key) { return key.flow == flow; });
}

std::shared_ptr<Packet> alloc_packet(PacketPool* pool) {
  return pool ? pool->acquire() : std::make_shared<Packet>();
}

std::shared_ptr<Packet> alloc_packet_copy(PacketPool* pool, const Packet& src) {
  return pool ? pool->acquire_copy(src) : std::make_shared<Packet>(src);
}

std::shared_ptr<Packet> make_packet(PacketPool* pool, PacketType type,
                                    ServiceType service, FlowId flow,
                                    SeqNo seq, NodeId src, NodeId dst,
                                    SimTime now) {
  auto p = alloc_packet(pool);
  p->type = type;
  p->service = service;
  p->flow = flow;
  p->seq = seq;
  p->src = src;
  p->dst = dst;
  p->sent_at = now;
  return p;
}

CodedMeta& engage_meta(PacketPool* pool, Packet& pkt) {
  if (pool) return pool->engage_meta(pkt);
  if (!pkt.meta) pkt.meta.emplace();
  CodedMeta& m = *pkt.meta;
  m.covered.clear();
  m.batch_id = 0;
  m.index = 0;
  m.k = 0;
  m.r = 0;
  return m;
}

PacketPtr make_data_packet(FlowId flow, SeqNo seq, NodeId src, NodeId dst,
                           SimTime now, std::size_t payload_bytes,
                           PacketPool* pool) {
  auto p = make_packet(pool, PacketType::kData, ServiceType::kNone, flow, seq,
                       src, dst, now);
  p->payload.assign(payload_bytes, 0);
  return p;
}

std::vector<std::uint8_t> NackInfo::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(1 + 4 + 4 + missing.size() * 4);
  serialize_into(out);
  return out;
}

void NackInfo::serialize_into(std::vector<std::uint8_t>& out) const {
  ByteWriter w(std::move(out));
  w.u8(tail ? 1 : 0);
  w.u32(expected);
  w.u32(static_cast<std::uint32_t>(missing.size()));
  for (SeqNo s : missing) w.u32(s);
  out = w.take();
}

bool NackInfo::parse_into(std::span<const std::uint8_t> data, NackInfo& out) {
  ByteReader r(data);
  out.tail = r.u8() != 0;
  out.expected = r.u32();
  out.missing.clear();
  const std::uint32_t count = r.u32();
  if (count > r.remaining() / 4) return false;
  out.missing.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) out.missing.push_back(r.u32());
  return r.ok();
}

}  // namespace jqos
