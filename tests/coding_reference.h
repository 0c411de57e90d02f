// Test-side reference encoder for the coding pipeline.
//
// fec::BatchEncoder (arena framing, the dispatched SIMD row kernel) is the
// one encoder in src/. Tests that need coded packets or parity shards --
// as a factory, or as the oracle a differential test holds BatchEncoder
// to -- build them here instead: each shard is framed into its own vector
// and parity is computed byte by byte from ReedSolomon::encode_row with
// scalar gf_mul, so nothing here shares arena or kernel code with the
// production encoder.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/packet.h"
#include "fec/gf256.h"
#include "fec/reed_solomon.h"

namespace jqos::testing {

using Shard = std::vector<std::uint8_t>;

// The r parity shards of `data` (k equal-length shards) under `rs`:
// parity[p][i] = XOR over j of encode_row(k + p)[j] * data[j][i].
inline std::vector<Shard> reference_parity(const fec::ReedSolomon& rs,
                                           std::span<const Shard> data) {
  if (data.size() != rs.k()) throw std::invalid_argument("reference_parity: need k shards");
  const std::size_t len = data[0].size();
  std::vector<Shard> parity(rs.r(), Shard(len, 0));
  for (std::size_t p = 0; p < rs.r(); ++p) {
    const std::vector<fec::Gf> row = rs.encode_row(rs.k() + p);
    for (std::size_t j = 0; j < rs.k(); ++j) {
      if (data[j].size() != len) throw std::invalid_argument("reference_parity: unequal shards");
      for (std::size_t i = 0; i < len; ++i) parity[p][i] ^= fec::gf_mul(row[j], data[j][i]);
    }
  }
  return parity;
}

// The coded packets of a batch of k data packets, as the production encoder
// defines them: each member framed as [u16 length | payload | zero pad] to
// the longest payload plus the prefix; coded packet i has service kCode,
// flow 0, seq = batch_id, final_dst = dst and codeword index k + i, and
// carries the batch's CodedMeta.
// Throws std::invalid_argument where BatchEncoder does: an empty batch,
// k + num_coded > 255, or a payload past 65535 bytes.
inline std::vector<PacketPtr> reference_encode(std::span<const PacketPtr> data,
                                               std::size_t num_coded, PacketType coded_type,
                                               std::uint32_t batch_id, NodeId src, NodeId dst,
                                               SimTime now) {
  if (data.empty() || data.size() + num_coded > 255) {
    throw std::invalid_argument("reference_encode: no GF(256) code has this shape");
  }
  std::size_t max_payload = 0;
  for (const PacketPtr& p : data) max_payload = std::max(max_payload, p->payload.size());
  if (max_payload > 0xffff) throw std::invalid_argument("reference_encode: payload too long");

  CodedMeta meta;
  meta.batch_id = batch_id;
  meta.k = static_cast<std::uint8_t>(data.size());
  meta.r = static_cast<std::uint8_t>(num_coded);
  std::vector<Shard> shards;
  for (const PacketPtr& p : data) {
    Shard shard(max_payload + 2, 0);
    shard[0] = static_cast<std::uint8_t>(p->payload.size() >> 8);
    shard[1] = static_cast<std::uint8_t>(p->payload.size() & 0xff);
    std::copy(p->payload.begin(), p->payload.end(), shard.begin() + 2);
    shards.push_back(std::move(shard));
    meta.covered.push_back(p->key());
  }
  std::vector<Shard> parity = reference_parity(fec::ReedSolomon(data.size(), num_coded), shards);

  std::vector<PacketPtr> out;
  for (std::size_t i = 0; i < num_coded; ++i) {
    auto pkt = std::make_shared<Packet>();
    pkt->type = coded_type;
    pkt->service = ServiceType::kCode;
    pkt->flow = 0;
    pkt->seq = batch_id;
    pkt->src = src;
    pkt->dst = dst;
    pkt->final_dst = dst;
    pkt->sent_at = now;
    pkt->meta = meta;
    pkt->meta->index = static_cast<std::uint8_t>(data.size() + i);
    pkt->payload = std::move(parity[i]);
    out.push_back(std::move(pkt));
  }
  return out;
}

}  // namespace jqos::testing
