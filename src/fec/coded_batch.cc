#include "fec/coded_batch.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/packet_pool.h"

namespace jqos::fec {
namespace {

// Shard framing: 2-byte original length prefix.
constexpr std::size_t kLenPrefix = 2;

// The payload a framed shard holds; empty when the length prefix is corrupt.
std::span<const std::uint8_t> framed_payload(const std::uint8_t* shard, std::size_t shard_len) {
  if (shard_len < kLenPrefix) return {};
  const std::size_t len = (static_cast<std::size_t>(shard[0]) << 8) | shard[1];
  if (len > shard_len - kLenPrefix) return {};
  return {shard + kLenPrefix, len};
}

}  // namespace

std::size_t shard_length(std::size_t max_payload) { return max_payload + kLenPrefix; }

void ShardArena::layout(std::size_t count, std::size_t shard_len) {
  stride_ = (shard_len + kAlignment - 1) / kAlignment * kAlignment;
  shard_len_ = shard_len;
  padded_len_ = std::min(stride_, (shard_len + kKernelStep - 1) / kKernelStep * kKernelStep);
  count_ = count;
  const std::size_t need = count * stride_ + kAlignment;
  if (buf_.size() < need) buf_.resize(need);
  const auto addr = reinterpret_cast<std::uintptr_t>(buf_.data());
  const std::uintptr_t aligned = (addr + kAlignment - 1) / kAlignment * kAlignment;
  base_ = buf_.data() + (aligned - addr);
}

void ShardArena::frame_shard_into(std::size_t i, std::span<const std::uint8_t> payload) {
  std::uint8_t* shard_ptr = shard(i);
  shard_ptr[0] = static_cast<std::uint8_t>(payload.size() >> 8);
  shard_ptr[1] = static_cast<std::uint8_t>(payload.size() & 0xff);
  if (!payload.empty()) std::memcpy(shard_ptr + kLenPrefix, payload.data(), payload.size());
  // Zero only the pad (through padded_len, so kernels can run tail-free):
  // the arena is recycled across batches, so bytes past the payload may
  // hold the previous batch's data.
  const std::size_t used = kLenPrefix + payload.size();
  if (used < padded_len_) std::memset(shard_ptr + used, 0, padded_len_ - used);
}

const ReedSolomon& ShardArena::codec(std::size_t k, std::size_t r) {
  for (const ReedSolomon& c : codecs_) {
    if (c.k() == k && c.r() == r) return c;
  }
  if (codecs_.size() == kMaxCodecs) codecs_.clear();
  return codecs_.emplace_back(k, r);
}

void BatchEncoder::encode_into(std::span<const PacketPtr> data, std::size_t num_coded,
                               PacketType coded_type, std::uint32_t batch_id, NodeId src,
                               NodeId dst, SimTime now, std::vector<PacketPtr>& out,
                               PacketPool* pool) {
  if (data.empty()) throw std::invalid_argument("BatchEncoder::encode_into: empty batch");
  if (data.size() + num_coded > 255) {
    throw std::invalid_argument("BatchEncoder::encode_into: batch too large for GF(256)");
  }
  const std::size_t k = data.size();
  std::size_t max_payload = 0;
  for (const PacketPtr& p : data) max_payload = std::max(max_payload, p->payload.size());
  if (max_payload > 0xffff) {
    // The u16 length prefix cannot frame it; truncating would corrupt
    // every recovery of the batch.
    throw std::invalid_argument("BatchEncoder::encode_into: payload exceeds 65535 bytes");
  }
  const std::size_t len = shard_length(max_payload);

  // Frame all k shards into the reused arena: one memcpy per payload, zero
  // pad only, no allocation once the arena reaches its high-water size.
  arena_.layout(k, len);
  for (std::size_t i = 0; i < k; ++i) arena_.frame_shard_into(i, data[i]->payload);

  if (num_coded == 0) return;
  const ReedSolomon& rs = arena_.codec(k, num_coded);

  // Create the coded packets up front so parity is computed directly into
  // their payload buffers, with no arena-to-packet copy. With a pool each
  // packet is recycled from the owning shard's PacketPool, reusing payload
  // capacity and covered-key capacity from earlier batches — zero allocator
  // traffic in steady state. Every packet the pool builds from here on, data
  // or not, fits a coded payload.
  if (pool != nullptr) pool->reserve_payloads(arena_.padded_len());
  out.reserve(out.size() + num_coded);
  parity_ptrs_.clear();
  coded_pkts_.clear();
  for (std::size_t i = 0; i < num_coded; ++i) {
    auto pp = alloc_packet(pool);
    Packet& pkt = *pp;
    out.push_back(std::move(pp));
    coded_pkts_.push_back(&pkt);
    pkt.type = coded_type;
    // The recovery DC claims coded packets by the coding service tag.
    pkt.service = ServiceType::kCode;
    // Coded packets belong to no single flow; flow/seq identify the batch
    // and codeword index instead so logs stay greppable.
    pkt.flow = 0;
    pkt.seq = batch_id;
    pkt.src = src;
    pkt.dst = dst;
    pkt.final_dst = dst;
    pkt.sent_at = now;
    CodedMeta& m = engage_meta(pool, pkt);
    m.batch_id = batch_id;
    m.index = static_cast<std::uint8_t>(k + i);
    m.k = static_cast<std::uint8_t>(k);
    m.r = static_cast<std::uint8_t>(num_coded);
    m.covered.reserve(k);
    for (const PacketPtr& p : data) m.covered.push_back(p->key());
    pkt.payload.resize(arena_.padded_len());
    parity_ptrs_.push_back(pkt.payload.data());
  }
  // Run the kernels over the zero-padded length — whole SIMD steps, no
  // scalar tails — then trim each payload to the true shard length (the
  // trimmed bytes are parity over zeros, i.e. zero).
  rs.encode_into(arena_.data(), arena_.stride(), arena_.padded_len(), parity_ptrs_.data());
  for (Packet* pkt : coded_pkts_) pkt->payload.resize(len);
}

bool decode_batch(
    ShardArena& arena, const CodedMeta& meta,
    std::span<const std::pair<std::size_t, std::span<const std::uint8_t>>> present,
    std::span<const PacketPtr> coded, std::span<const std::size_t> wanted,
    std::span<std::span<const std::uint8_t>> out) {
  if (out.size() != wanted.size()) {
    throw std::invalid_argument("decode_batch: need one out entry per wanted position");
  }
  const std::size_t k = meta.k;
  // Shapes no encoder produces are refused before the arena builds a codec
  // for them: ReedSolomon's constructor would throw.
  if (k == 0 || meta.covered.size() != k || k + meta.r > 255) return false;
  if (present.size() + coded.size() < k) return false;

  // Shard length is dictated by the coded payloads (parity shards are
  // exactly shard-length long).
  std::size_t len = 0;
  for (const PacketPtr& c : coded) len = std::max(len, c->payload.size());
  if (len == 0) return false;

  // Arena plan: framed present shards first, then one output slot per wanted
  // position. Both are distinct positions of [0, k), so k slots cover them.
  // Coded payloads are read in place from the stored packets.
  arena.layout(k, len);

  std::vector<std::pair<std::size_t, const std::uint8_t*>> inputs;
  inputs.reserve(k);
  std::vector<bool> have(k, false);
  std::size_t framed = 0;
  for (const auto& [pos, payload] : present) {
    if (pos >= k || have[pos]) continue;
    if (payload.size() + kLenPrefix > len) return false;  // Inconsistent batch.
    arena.frame_shard_into(framed, payload);
    inputs.emplace_back(pos, arena.shard(framed));
    ++framed;
    have[pos] = true;
  }
  std::vector<std::uint8_t*> outs;
  outs.reserve(wanted.size());
  for (const std::size_t pos : wanted) {
    if (pos >= k || have[pos]) {
      throw std::invalid_argument("decode_batch: wanted positions must be distinct and absent");
    }
    have[pos] = true;
    outs.push_back(arena.shard(framed + outs.size()));
  }
  std::vector<bool> have_coded(k + meta.r, false);
  for (const PacketPtr& c : coded) {
    if (inputs.size() >= k) break;
    if (!c->meta || c->meta->batch_id != meta.batch_id) continue;
    if (c->meta->index < k || c->meta->index >= k + meta.r) continue;
    if (c->payload.size() != len) continue;
    if (have_coded[c->meta->index]) continue;  // Duplicate delivery.
    have_coded[c->meta->index] = true;
    inputs.emplace_back(c->meta->index, c->payload.data());
  }
  if (inputs.size() < k) return false;

  if (!arena.codec(k, meta.r).decode_into(inputs, len, wanted, outs.data())) return false;
  for (std::size_t i = 0; i < wanted.size(); ++i) out[i] = framed_payload(outs[i], len);
  return true;
}

}  // namespace jqos::fec
