// Differential coverage for the zero-copy coding pipeline (fec::BatchEncoder
// / ShardArena / decode_batch): the test-side reference encoder in
// coding_reference.h (per-shard vectors, scalar gf_mul parity) is the
// behavioral oracle, and every encode test here proves BatchEncoder
// byte-identical to it -- payloads, metadata, and field conventions alike;
// decodes are checked against the original payloads. The arena-reuse tests
// run the same encoder across growing/shrinking batch shapes so the ASan CI
// job exercises recycled-arena framing for stale-byte and out-of-bounds bugs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "fec/coded_batch.h"
#include "fec/gf256_simd.h"
#include "fec/reed_solomon.h"
#include "coding_reference.h"
#include "test_guards.h"

namespace jqos::fec {
namespace {

using jqos::testing::reference_encode;
using jqos::testing::reference_parity;
using jqos::testing::Shard;

PacketPtr make_pkt(FlowId flow, SeqNo seq, std::vector<std::uint8_t> payload) {
  auto p = std::make_shared<Packet>();
  p->flow = flow;
  p->seq = seq;
  p->payload = std::move(payload);
  return p;
}

std::vector<PacketPtr> random_batch(std::size_t k, std::size_t min_payload,
                                    std::size_t max_payload, Rng& rng) {
  std::vector<PacketPtr> pkts;
  pkts.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t len = static_cast<std::size_t>(
        rng.uniform_int(static_cast<int>(min_payload), static_cast<int>(max_payload)));
    std::vector<std::uint8_t> payload(len);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    pkts.push_back(make_pkt(static_cast<FlowId>(i + 1), static_cast<SeqNo>(1000 + i),
                            std::move(payload)));
  }
  return pkts;
}

void expect_identical(const std::vector<PacketPtr>& reference,
                      const std::vector<PacketPtr>& zero_copy) {
  ASSERT_EQ(reference.size(), zero_copy.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const Packet& a = *reference[i];
    const Packet& b = *zero_copy[i];
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.service, b.service);
    EXPECT_EQ(a.flow, b.flow);
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.final_dst, b.final_dst);
    EXPECT_EQ(a.sent_at, b.sent_at);
    ASSERT_TRUE(a.meta.has_value());
    ASSERT_TRUE(b.meta.has_value());
    EXPECT_EQ(*a.meta, *b.meta);
    EXPECT_EQ(a.payload, b.payload) << "coded payload differs at index " << i;
  }
}

TEST(BatchEncoderDifferential, RandomShapesMatchLegacyByteForByte) {
  Rng rng(0x5eed);
  BatchEncoder enc;
  std::vector<PacketPtr> out;
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(1, 30));
    const std::size_t r = static_cast<std::size_t>(rng.uniform_int(0, 5));
    auto pkts = random_batch(k, 0, 700, rng);
    const auto batch_id = static_cast<std::uint32_t>(iter);
    auto reference = reference_encode(pkts, r, PacketType::kCrossCoded, batch_id, 7, 9,
                                      static_cast<SimTime>(iter) * 10);
    out.clear();
    enc.encode_into(pkts, r, PacketType::kCrossCoded, batch_id, 7, 9,
                    static_cast<SimTime>(iter) * 10, out);
    expect_identical(reference, out);
  }
}

TEST(BatchEncoderDifferential, SingleBytePayloadEdge) {
  Rng rng(11);
  BatchEncoder enc;
  // Every payload exactly one byte (shard = prefix + 1), plus a mix with an
  // empty payload — the smallest frames the pipeline can see.
  auto tiny = random_batch(5, 1, 1, rng);
  auto reference = reference_encode(tiny, 2, PacketType::kInCoded, 1, 1, 2, 0);
  std::vector<PacketPtr> out;
  enc.encode_into(tiny, 2, PacketType::kInCoded, 1, 1, 2, 0, out);
  expect_identical(reference, out);

  auto mixed = random_batch(4, 0, 1, rng);
  reference = reference_encode(mixed, 1, PacketType::kCrossCoded, 2, 1, 2, 0);
  out.clear();
  enc.encode_into(mixed, 1, PacketType::kCrossCoded, 2, 1, 2, 0, out);
  expect_identical(reference, out);
}

TEST(BatchEncoderDifferential, MaxSizePacketEdge) {
  // The u16 length prefix caps payloads at 65535 bytes; the zero-copy path
  // must frame that exactly, including the pad of the smaller members.
  Rng rng(12);
  std::vector<PacketPtr> pkts;
  std::vector<std::uint8_t> big(65535);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  pkts.push_back(make_pkt(1, 1, std::move(big)));
  pkts.push_back(make_pkt(2, 2, {0xaa, 0xbb}));
  pkts.push_back(make_pkt(3, 3, {}));
  auto reference = reference_encode(pkts, 2, PacketType::kCrossCoded, 77, 3, 4, 5);
  BatchEncoder enc;
  std::vector<PacketPtr> out;
  enc.encode_into(pkts, 2, PacketType::kCrossCoded, 77, 3, 4, 5, out);
  expect_identical(reference, out);
}

TEST(BatchEncoder, ArenaIsRecycledAcrossShapes) {
  Rng rng(13);
  BatchEncoder enc;
  std::vector<PacketPtr> out;
  // Grow to the high-water shape first.
  auto big = random_batch(20, 1400, 1500, rng);
  out.clear();
  enc.encode_into(big, 3, PacketType::kCrossCoded, 1, 1, 2, 0, out);
  const std::size_t high_water = enc.arena().capacity_bytes();
  EXPECT_GT(high_water, 0u);

  // Smaller and equal shapes must reuse the allocation (capacity pinned),
  // and recycled shards must still pad with zeros, not the previous batch's
  // bytes — checked by the differential comparison.
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(1, 20));
    auto pkts = random_batch(k, 0, 1500, rng);
    auto reference = reference_encode(pkts, 2, PacketType::kCrossCoded,
                                      static_cast<std::uint32_t>(100 + iter), 1, 2, 0);
    out.clear();
    enc.encode_into(pkts, 2, PacketType::kCrossCoded,
                    static_cast<std::uint32_t>(100 + iter), 1, 2, 0, out);
    expect_identical(reference, out);
    EXPECT_EQ(enc.arena().capacity_bytes(), high_water)
        << "arena reallocated for a batch no larger than the high-water shape";
  }
}

TEST(BatchEncoder, AppendsWithoutClearingOut) {
  Rng rng(14);
  BatchEncoder enc;
  auto pkts = random_batch(3, 10, 20, rng);
  std::vector<PacketPtr> out;
  enc.encode_into(pkts, 2, PacketType::kCrossCoded, 1, 1, 2, 0, out);
  ASSERT_EQ(out.size(), 2u);
  enc.encode_into(pkts, 1, PacketType::kCrossCoded, 2, 1, 2, 0, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2]->meta->batch_id, 2u);
}

TEST(BatchEncoder, RejectsSameShapesAsLegacy) {
  BatchEncoder enc;
  std::vector<PacketPtr> out;
  EXPECT_THROW(enc.encode_into({}, 2, PacketType::kCrossCoded, 1, 1, 2, 0, out),
               std::invalid_argument);
  Rng rng(15);
  auto too_big = random_batch(254, 1, 4, rng);
  EXPECT_THROW(enc.encode_into(too_big, 2, PacketType::kCrossCoded, 1, 1, 2, 0, out),
               std::invalid_argument);

  // A payload past the u16 length prefix must be refused, not silently
  // truncated into a corrupt frame — by the reference and the encoder alike.
  std::vector<PacketPtr> oversized = {make_pkt(1, 1, std::vector<std::uint8_t>(65536))};
  EXPECT_THROW(reference_encode(oversized, 1, PacketType::kCrossCoded, 1, 1, 2, 0),
               std::invalid_argument);
  EXPECT_THROW(enc.encode_into(oversized, 1, PacketType::kCrossCoded, 1, 1, 2, 0, out),
               std::invalid_argument);
}

TEST(ShardArena, ShardsAreAlignedAndStrided) {
  ShardArena arena;
  arena.layout(7, 514);
  EXPECT_EQ(arena.shard_len(), 514u);
  EXPECT_EQ(arena.stride() % ShardArena::kAlignment, 0u);
  EXPECT_GE(arena.stride(), arena.shard_len());
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arena.shard(i)) % ShardArena::kAlignment,
              0u);
    EXPECT_EQ(arena.shard(i), arena.data() + i * arena.stride());
  }
}

// ----------------------------- decode side --------------------------------

TEST(DecodeBatchArena, RebuildsWantedPositionsUnderRandomErasures) {
  Rng rng(0xdec0);
  BatchEncoder enc;
  ShardArena decode_arena;
  std::vector<PacketPtr> coded;
  std::vector<std::size_t> lost_positions;
  std::vector<std::span<const std::uint8_t>> out;
  for (int iter = 0; iter < 100; ++iter) {
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(2, 12));
    const std::size_t r = static_cast<std::size_t>(rng.uniform_int(1, 3));
    auto pkts = random_batch(k, 0, 300, rng);
    coded.clear();
    enc.encode_into(pkts, r, PacketType::kCrossCoded, static_cast<std::uint32_t>(iter),
                    1, 2, 0, coded);
    const CodedMeta& meta = *coded[0]->meta;

    // Drop up to r data packets at random positions.
    const std::size_t losses =
        static_cast<std::size_t>(rng.uniform_int(1, static_cast<int>(std::min(r, k))));
    std::vector<bool> lost(k, false);
    for (std::size_t dropped = 0; dropped < losses;) {
      const auto pos = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(k) - 1));
      if (lost[pos]) continue;
      lost[pos] = true;
      ++dropped;
    }
    std::vector<std::pair<std::size_t, std::span<const std::uint8_t>>> present;
    lost_positions.clear();
    for (std::size_t i = 0; i < k; ++i) {
      if (lost[i]) {
        lost_positions.push_back(i);
      } else {
        present.emplace_back(i, std::span<const std::uint8_t>(pkts[i]->payload));
      }
    }

    // Every lost position, then just one of them, through the same arena.
    out.assign(lost_positions.size(), {});
    ASSERT_TRUE(decode_batch(decode_arena, meta, present, coded, lost_positions, out));
    for (std::size_t i = 0; i < lost_positions.size(); ++i) {
      EXPECT_TRUE(std::ranges::equal(out[i], pkts[lost_positions[i]]->payload))
          << "iter " << iter << " position " << lost_positions[i];
    }
    const std::size_t one = lost_positions[static_cast<std::size_t>(iter) % losses];
    std::span<const std::uint8_t> single;
    ASSERT_TRUE(decode_batch(decode_arena, meta, present, coded, std::span(&one, 1),
                             std::span(&single, 1)));
    EXPECT_TRUE(std::ranges::equal(single, pkts[one]->payload))
        << "iter " << iter << " position " << one;
  }
}

TEST(DecodeBatchArena, RefusesTwoLossesWithOneCodedSymbol) {
  Rng rng(16);
  BatchEncoder enc;
  ShardArena decode_arena;
  auto pkts = random_batch(6, 10, 50, rng);
  std::vector<PacketPtr> coded;
  enc.encode_into(pkts, 1, PacketType::kCrossCoded, 9, 1, 2, 0, coded);
  const CodedMeta& meta = *coded[0]->meta;
  // Two missing, one coded symbol: refused.
  std::vector<std::pair<std::size_t, std::span<const std::uint8_t>>> present;
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    if (i == 0 || i == 3) continue;
    present.emplace_back(i, std::span<const std::uint8_t>(pkts[i]->payload));
  }
  const std::vector<std::size_t> wanted = {0, 3};
  std::vector<std::span<const std::uint8_t>> out(wanted.size());
  EXPECT_FALSE(decode_batch(decode_arena, meta, present, coded, wanted, out));
}

TEST(DecodeBatchArena, OneArenaDecodesMoreShapesThanItKeepsCodecs) {
  // One arena meets more distinct (k, r) shapes than it keeps codecs, then
  // the first shape again, so its codec table empties and refills.
  Rng rng(18);
  ShardArena decode_arena;
  const std::size_t shapes = ShardArena::kMaxCodecs + 3;
  for (std::size_t s = 0; s <= shapes; ++s) {
    const std::size_t k = s % shapes + 1;  // The last round repeats shape 0.
    const std::size_t r = 1 + k % 3;
    auto pkts = random_batch(k, 1, 64, rng);
    const auto coded = reference_encode(pkts, r, PacketType::kCrossCoded,
                                        static_cast<std::uint32_t>(s), 1, 2, 0);
    // The first min(k, r) positions are lost, the rest present.
    std::vector<std::size_t> wanted;
    std::vector<std::pair<std::size_t, std::span<const std::uint8_t>>> present;
    for (std::size_t i = 0; i < k; ++i) {
      if (i < std::min(k, r)) {
        wanted.push_back(i);
      } else {
        present.emplace_back(i, std::span<const std::uint8_t>(pkts[i]->payload));
      }
    }
    std::vector<std::span<const std::uint8_t>> out(wanted.size());
    ASSERT_TRUE(decode_batch(decode_arena, *coded[0]->meta, present, coded, wanted, out))
        << "round " << s << " (k " << k << ", r " << r << ")";
    for (std::size_t i = 0; i < wanted.size(); ++i) {
      EXPECT_TRUE(std::ranges::equal(out[i], pkts[wanted[i]]->payload))
          << "round " << s << " position " << wanted[i];
    }
  }
}

// ------------------------- ReedSolomon zero-copy --------------------------

TEST(ReedSolomonStrided, StridedEncodeMatchesPointerArray) {
  // The reference side holds each shard in its own vector; the strided
  // encoder reads the same bytes from one arena at a padded stride.
  Rng rng(17);
  for (const std::size_t stride_pad : {0u, 13u, 64u}) {
    const std::size_t k = 5, r = 3, len = 129;
    const std::size_t stride = len + stride_pad;
    const ReedSolomon rs(k, r);
    std::vector<std::uint8_t> arena(k * stride);
    for (auto& b : arena) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));

    std::vector<Shard> shards;
    for (std::size_t i = 0; i < k; ++i) {
      shards.emplace_back(arena.begin() + static_cast<std::ptrdiff_t>(i * stride),
                          arena.begin() + static_cast<std::ptrdiff_t>(i * stride + len));
    }
    const std::vector<Shard> expected = reference_parity(rs, shards);

    std::vector<std::vector<std::uint8_t>> got(r, std::vector<std::uint8_t>(len));
    std::vector<std::uint8_t*> got_ptrs;
    for (auto& p : got) got_ptrs.push_back(p.data());
    rs.encode_into(arena.data(), stride, len, got_ptrs.data());
    EXPECT_EQ(got, expected);
  }
  const ReedSolomon rs(2, 1);
  std::uint8_t buf[8] = {};
  std::uint8_t* parity[1] = {buf};
  EXPECT_THROW(rs.encode_into(buf, 2, 4, parity), std::invalid_argument);
}

// The fused row kernel (gf_rs_row) vs the per-source composition of the
// scalar gf_mul_buf/gf_addmul kernels, on every backend available on this
// machine: random coefficient vectors salted with 0s and 1s, lengths that
// exercise the 32-byte SIMD step and the scalar tail, misaligned sources, and
// guard bytes after dst to catch overwrites.
TEST(GfRsRow, MatchesPerSourceCompositionOnEveryBackend) {
  const jqos::testing::GfBackendGuard guard;
  Rng rng(0xf00d);
  for (fec::GfBackend backend : gf_available_backends()) {
    ASSERT_TRUE(gf_set_backend(backend));
    for (int iter = 0; iter < 60; ++iter) {
      const std::size_t k = static_cast<std::size_t>(rng.uniform_int(1, 12));
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 200));
      const std::size_t misalign = static_cast<std::size_t>(rng.uniform_int(0, 3));
      std::vector<std::vector<std::uint8_t>> srcs(
          k, std::vector<std::uint8_t>(n + misalign));
      std::vector<const std::uint8_t*> ptrs;
      std::vector<Gf> coeffs;
      for (auto& s : srcs) {
        for (auto& b : s) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        ptrs.push_back(s.data() + misalign);
        // Bias toward the 0 / 1 special values the wrapper and tables must
        // both get right.
        const int roll = rng.uniform_int(0, 9);
        coeffs.push_back(roll == 0 ? 0
                         : roll == 1 ? 1
                                     : static_cast<Gf>(rng.uniform_int(0, 255)));
      }

      std::vector<std::uint8_t> expected(n + 8, 0xcd);  // Guard tail.
      for (std::size_t j = 0; j < k; ++j) {
        if (j == 0) {
          gf_mul_buf(expected.data(), ptrs[0], coeffs[0], n);
        } else {
          gf_addmul(expected.data(), ptrs[j], coeffs[j], n);
        }
      }
      std::vector<std::uint8_t> got(n + 8, 0xcd);
      gf_rs_row(got.data(), ptrs.data(), coeffs.data(), k, n);
      EXPECT_EQ(got, expected) << "backend=" << gf_backend_name(backend) << " k=" << k
                               << " n=" << n << " misalign=" << misalign;
    }
  }
}

// The strided overload must agree with the pointer-array overload when the
// pointers describe the same strided layout.
TEST(GfRsRow, StridedOverloadMatchesPointerOverload) {
  Rng rng(0xf00e);
  const std::size_t k = 7, n = 97, stride = 128;
  std::vector<std::uint8_t> arena(k * stride);
  for (auto& b : arena) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  std::vector<const std::uint8_t*> ptrs;
  std::vector<Gf> coeffs;
  for (std::size_t j = 0; j < k; ++j) {
    ptrs.push_back(arena.data() + j * stride);
    coeffs.push_back(static_cast<Gf>(rng.uniform_int(0, 255)));
  }
  std::vector<std::uint8_t> a(n), b(n);
  gf_rs_row(a.data(), ptrs.data(), coeffs.data(), k, n);
  gf_rs_row(b.data(), arena.data(), stride, coeffs.data(), k, n);
  EXPECT_EQ(a, b);

  // All-zero coefficients must zero dst (m == 0 path).
  std::vector<Gf> zeros(k, 0);
  std::vector<std::uint8_t> z(n, 0xff);
  gf_rs_row(z.data(), ptrs.data(), zeros.data(), k, n);
  EXPECT_EQ(z, std::vector<std::uint8_t>(n, 0));
}

TEST(ReedSolomonDecodeInto, TargetedRowsMatchFullDecode) {
  Rng rng(18);
  const std::size_t k = 6, r = 3, len = 200;
  const ReedSolomon rs(k, r);
  std::vector<std::vector<std::uint8_t>> data(k, std::vector<std::uint8_t>(len));
  for (auto& s : data) {
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const std::vector<Shard> parity = reference_parity(rs, data);

  // Survivors: data 0, 2, 5 + all three parity shards. Missing: 1, 3, 4.
  std::vector<std::pair<std::size_t, const std::uint8_t*>> shards = {
      {0, data[0].data()}, {2, data[2].data()},   {5, data[5].data()},
      {6, parity[0].data()}, {7, parity[1].data()}, {8, parity[2].data()}};
  const std::vector<std::size_t> targets = {1, 3, 4, 0};  // Incl. one direct row.
  std::vector<std::vector<std::uint8_t>> out(targets.size(),
                                             std::vector<std::uint8_t>(len));
  std::vector<std::uint8_t*> out_ptrs;
  for (auto& o : out) out_ptrs.push_back(o.data());
  ASSERT_TRUE(rs.decode_into(shards, len, targets, out_ptrs.data()));
  for (std::size_t t = 0; t < targets.size(); ++t) {
    EXPECT_EQ(out[t], data[targets[t]]) << "target " << targets[t];
  }

  // Fewer than k shards: refuse.
  std::vector<std::pair<std::size_t, const std::uint8_t*>> few(shards.begin(),
                                                               shards.begin() + 3);
  EXPECT_FALSE(rs.decode_into(few, len, targets, out_ptrs.data()));
}

}  // namespace
}  // namespace jqos::fec
