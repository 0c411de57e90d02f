// Systematic Reed-Solomon erasure code over GF(2^8), zfec-compatible in
// spirit: k data shards are left untouched and r parity shards are appended;
// any k of the k+r shards reconstruct the data.
//
// Construction: start from a (k+r) x k Vandermonde matrix over distinct
// evaluation points, then right-multiply by the inverse of its top k x k
// block. The top block becomes the identity (systematic), and every square
// submatrix built from distinct rows remains invertible, which is exactly
// the any-k-of-n property.
//
// A ReedSolomon instance is immutable after construction; each coder's
// ShardArena (coded_batch.h) builds one per (k, r) shape it meets and keeps
// it. Every parity row and every rebuilt shard is one gf_rs_row call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fec/matrix.h"

namespace jqos::fec {

class ReedSolomon {
 public:
  // k data shards, r parity shards; k >= 1, r >= 0, k + r <= 255.
  // Construction inverts a k x k block: O(k^3) field operations. Keep and
  // reuse instances (ShardArena::codec) instead of building one per batch.
  ReedSolomon(std::size_t k, std::size_t r);

  std::size_t k() const { return k_; }
  std::size_t r() const { return r_; }
  std::size_t n() const { return k_ + r_; }

  // The encoder: computes the r parity shards of k equal-length data shards
  // laid out at a fixed stride (BatchEncoder's arena): shard j lives at
  // data + j * stride, stride >= shard_len, and is read in place.
  // parity[i] must point at shard_len writable bytes; parity buffers are
  // fully overwritten (no need to pre-zero) and must not alias any data
  // shard or each other. Throws std::invalid_argument when
  // stride < shard_len. O(k * r * shard_len), no allocation.
  void encode_into(const std::uint8_t* data, std::size_t stride, std::size_t shard_len,
                   std::uint8_t* const* parity) const;

  // The decoder: reconstructs the data shards named in `targets` (codeword
  // positions 0..k-1) from any >= k shards, writing target i's shard into
  // out[i], which must point at shard_len writable bytes. `shards` pairs row
  // indices (0..k-1 for data shards, k..n-1 for parity) with shard pointers,
  // each shard_len long; the first k entries are used and their indices must
  // be distinct. out buffers must not alias any input shard. Returns false
  // when fewer than k shards are supplied. Throws std::out_of_range on a row
  // index >= n or a target >= k, std::invalid_argument on a duplicate row
  // index. Cost: one O(k^3) inversion, made only if some target was not
  // received directly, plus O(k * len) per such target; no allocation
  // proportional to len.
  bool decode_into(
      std::span<const std::pair<std::size_t, const std::uint8_t*>> shards,
      std::size_t shard_len, std::span<const std::size_t> targets,
      std::uint8_t* const* out) const;

  // Row `i` of the full (systematic) encoding matrix; exposed for tests.
  std::vector<Gf> encode_row(std::size_t i) const;

 private:
  std::size_t k_;
  std::size_t r_;
  Matrix enc_;  // (k + r) x k systematic encoding matrix.
};

}  // namespace jqos::fec
