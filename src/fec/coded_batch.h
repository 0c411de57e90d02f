// Packet-level batch coding on top of ReedSolomon.
//
// CR-WAN batches are sets of *packets* of different sizes (different flows,
// different applications), while Reed-Solomon wants equal-length shards.
// This module owns the shard framing: each data packet becomes the shard
//
//     [u16 original_length | payload bytes | zero padding]
//
// padded to the longest member of the batch, so a recovered shard yields the
// exact original payload. It also builds the CodedMeta carried in coded
// packets (batch id, codeword index, covered (flow, seq) keys) that DC2 and
// the cooperative-recovery protocol consume.
//
// BatchEncoder::encode_into is the one batch encoder: all k shards are
// framed into one reusable stride-aligned arena allocation and the row
// kernel writes parity straight into the coded packets' payload buffers;
// steady state performs no allocation beyond the output packets
// themselves. decode_batch is the one batch decoder. See
// docs/CODING_PIPELINE.md for the full contract.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/packet.h"
#include "fec/reed_solomon.h"

namespace jqos::fec {

// A coder's reusable state: the scratch storage that frames a batch's shards
// into one contiguous allocation, each shard starting on a kAlignment
// boundary (stride = shard_len rounded up to kAlignment) so the SIMD
// GF(256) kernels read and write aligned lines, and the Reed-Solomon codecs
// of the (k, r) shapes the coder has met. Every coder owns one (each
// BatchEncoder, RecoveryService and Receiver), so coders share no mutable
// state.
//
// Ownership/lifetime: the arena owns its buffer and its codecs; pointers
// returned by shard()/data() are valid until the next layout() call that
// grows the buffer, and are invalidated by move/destruction. The buffer only
// ever grows, so a long-lived arena reaches its high-water size once and
// then recycles it for every later batch. Not thread-safe; one owner at a
// time.
class ShardArena {
 public:
  ShardArena() = default;
  // Copying would leave the copy's base pointer aimed at the source's
  // buffer (corruption, or use-after-free once the source dies). Moves are
  // safe: vector move preserves the data pointer base_ was derived from.
  ShardArena(const ShardArena&) = delete;
  ShardArena& operator=(const ShardArena&) = delete;
  ShardArena(ShardArena&&) = default;
  ShardArena& operator=(ShardArena&&) = default;

  // Alignment of every shard start. 64 covers the AVX2 kernels' 32-byte
  // step and keeps each shard cache-line aligned.
  static constexpr std::size_t kAlignment = 64;

  // Shards are zero-padded past shard_len up to padded_len() — shard_len
  // rounded up to one SIMD step — so kernels can run whole 32-byte steps
  // with no scalar tail; the extra parity bytes come out zero and are
  // trimmed by the caller.
  static constexpr std::size_t kKernelStep = 32;

  // Lays the arena out for `count` shards of `shard_len` bytes. Reuses the
  // existing allocation when it is large enough (the steady-state case);
  // otherwise reallocates, invalidating previously returned pointers.
  // Shard contents are NOT cleared — frame_shard_into overwrites prefix,
  // payload, and pad explicitly. O(1) when no growth is needed.
  void layout(std::size_t count, std::size_t shard_len);

  // Start of shard `i` (i < count of the last layout()); shard_len() bytes
  // are readable/writable, the slack up to stride() is never read by the
  // coding kernels.
  std::uint8_t* shard(std::size_t i) { return base_ + i * stride_; }
  const std::uint8_t* shard(std::size_t i) const { return base_ + i * stride_; }

  // Base pointer of shard 0; shard j lives at data() + j * stride().
  const std::uint8_t* data() const { return base_; }

  std::size_t stride() const { return stride_; }
  std::size_t shard_len() const { return shard_len_; }
  // Tail-free kernel length: shard_len rounded up to kKernelStep (never
  // exceeds stride). frame_shard_into zeroes shards up to this length.
  std::size_t padded_len() const { return padded_len_; }
  std::size_t count() const { return count_; }

  // Bytes currently owned (the high-water mark); exposed so tests can pin
  // the no-realloc steady-state property.
  std::size_t capacity_bytes() const { return buf_.size(); }

  // Writes the framed form of `payload` ([u16 len | payload | zero pad]) to
  // shard `i`, padding to the layout's padded_len. payload.size() + 2 must
  // be <= shard_len(). `payload` must not alias the arena.
  void frame_shard_into(std::size_t i, std::span<const std::uint8_t> payload);

  // The most codecs an arena keeps. The busiest coder of the benchmark
  // workloads and benches meets 16 shapes (an in-stream block of 16 allows
  // 22), so a run never rebuilds a codec; a peer cycling through shapes
  // empties the table instead of growing it.
  static constexpr std::size_t kMaxCodecs = 32;

  // The (k, r) codec, built on first use (O(k^3), a few allocations) and
  // found by a linear scan afterwards. The reference stays valid until the
  // next codec() call or until the arena moves. Requires 1 <= k and
  // k + r <= 255: ReedSolomon's constructor throws std::invalid_argument
  // otherwise.
  const ReedSolomon& codec(std::size_t k, std::size_t r);

 private:
  std::vector<std::uint8_t> buf_;  // Oversized by kAlignment for the aligned base.
  std::uint8_t* base_ = nullptr;
  std::size_t stride_ = 0;
  std::size_t shard_len_ = 0;
  std::size_t padded_len_ = 0;
  std::size_t count_ = 0;
  std::vector<ReedSolomon> codecs_;  // In first-use order; emptied at kMaxCodecs.
};

// The zero-copy production encoder. Owns a ShardArena, which frames the
// shards and keeps the encoder's codecs, one per (k, r) shape it has
// encoded. Per batch a service instance performs one framing pass over the
// data payloads into the arena, the SIMD parity computation directly into
// the output packets' payloads, and nothing else — no per-shard vectors, no
// intermediate parity buffers.
//
// Not thread-safe (the arena is mutable state); keep one instance per
// encoding service. Output packets are independently owned shared_ptrs,
// safe to retain beyond the encoder's lifetime.
class BatchEncoder {
 public:
  // Encodes a batch of k data packets into `num_coded` coded packets of type
  // `coded_type` (kInCoded for in-stream batches, kCrossCoded for
  // cross-stream batches) addressed `src` -> `dst` (DC1 -> DC2), appending
  // them to `out`. Each carries the batch's CodedMeta: batch id, codeword
  // index k + i, k, r and the k covered (flow, seq) keys in codeword order;
  // its service is kCode, its flow 0, its seq the batch id, its final_dst
  // `dst`, and its sent_at `now`. `out` is appended to, not cleared, so a
  // caller-reused vector amortizes its allocation too.
  //
  // With a non-null `pool`, the coded packets come from the pool (recycled
  // storage, payload/covered capacity reused, zero allocator traffic in
  // steady state), and the pool's payload reserve is first raised to the
  // padded shard length, so packets the pool builds later fit a coded
  // payload; otherwise each is a fresh heap packet. Either way the
  // bytes and metadata are identical — the RS kernels fully overwrite the
  // parity buffers, so recycled payloads need no re-zeroing.
  //
  // Preconditions: packets non-null. Throws std::invalid_argument on an
  // empty batch, k + num_coded > 255, or a payload longer than the u16
  // length prefix can frame (65535 bytes). Complexity:
  // O(k * shard_len) framing + O(k * num_coded * shard_len) field ops.
  void encode_into(std::span<const PacketPtr> data, std::size_t num_coded,
                   PacketType coded_type, std::uint32_t batch_id, NodeId src,
                   NodeId dst, SimTime now, std::vector<PacketPtr>& out,
                   PacketPool* pool = nullptr);

  // The scratch arena, exposed for tests (capacity high-water assertions).
  const ShardArena& arena() const { return arena_; }

 private:
  ShardArena arena_;
  std::vector<std::uint8_t*> parity_ptrs_;  // Reused per batch.
  std::vector<Packet*> coded_pkts_;         // Reused per batch.
};

// The one batch decoder: reconstructs the payloads of the batch members at
// the codeword positions named in `wanted`, and only those.
//
// `meta` comes from any coded packet of the batch; `present` pairs codeword
// positions (0..k-1) with the original payloads that are available (from
// peer receivers during cooperative recovery, or from the receiver's own
// history for in-stream recovery); `coded` holds the coded packets available
// for this batch. Returns true iff at least k usable symbols survive --
// distinct present positions plus distinct coded packets of this batch --
// even when `wanted` is empty. Otherwise returns false, the "fails
// silently" case of Section 4.4, as it does for metadata no encoder
// produces (k == 0, covered.size() != k, k + r > 255).
//
// `wanted` must name distinct positions below k that `present` lacks, and
// `out` must have one entry per wanted position (std::invalid_argument
// otherwise). The present payloads are framed and the wanted shards rebuilt
// inside `arena` (grow-only, reusable across calls -- each decoding service
// keeps one), whose codec for (k, r) does the decode; coded payloads are
// read in place. On success out[i] views the payload of position wanted[i]
// inside the arena, valid until the arena is next laid out; a corrupt
// length prefix gives an empty view. Per call, a few small bookkeeping
// vectors and the sub-matrix inverse are heap-allocated.
// Not thread-safe with respect to `arena`.
bool decode_batch(
    ShardArena& arena, const CodedMeta& meta,
    std::span<const std::pair<std::size_t, std::span<const std::uint8_t>>> present,
    std::span<const PacketPtr> coded, std::span<const std::size_t> wanted,
    std::span<std::span<const std::uint8_t>> out);

// The shard length used for a batch whose largest payload is `max_payload`
// (payload plus the u16 length prefix).
std::size_t shard_length(std::size_t max_payload);

}  // namespace jqos::fec
