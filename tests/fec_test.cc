// Tests for the erasure-coding substrate: GF(256) field axioms, matrix
// inversion, Reed-Solomon any-k-of-n recovery (parameterized sweeps), and
// the packet-batch framing used by CR-WAN.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "fec/coded_batch.h"
#include "fec/gf256.h"
#include "fec/matrix.h"
#include "fec/reed_solomon.h"
#include "coding_reference.h"

namespace jqos::fec {
namespace {

using jqos::testing::reference_encode;
using jqos::testing::reference_parity;

// ------------------------------- GF(256) ----------------------------------

// Schoolbook carry-less multiply mod 0x11d for cross-checking the tables.
Gf slow_mul(Gf a, Gf b) {
  unsigned r = 0;
  unsigned aa = a;
  for (unsigned bb = b; bb != 0; bb >>= 1) {
    if (bb & 1) r ^= aa;
    aa <<= 1;
    if (aa & 0x100) aa ^= 0x11d;
  }
  return static_cast<Gf>(r);
}

TEST(Gf256, MatchesSchoolbookMultiplication) {
  for (unsigned a = 0; a < 256; a += 7) {
    for (unsigned b = 0; b < 256; ++b) {
      ASSERT_EQ(gf_mul(static_cast<Gf>(a), static_cast<Gf>(b)),
                slow_mul(static_cast<Gf>(a), static_cast<Gf>(b)));
    }
  }
}

TEST(Gf256, FieldAxioms) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const Gf a = static_cast<Gf>(rng.uniform_int(0, 255));
    const Gf b = static_cast<Gf>(rng.uniform_int(0, 255));
    const Gf c = static_cast<Gf>(rng.uniform_int(0, 255));
    EXPECT_EQ(gf_mul(a, b), gf_mul(b, a));
    EXPECT_EQ(gf_mul(a, gf_mul(b, c)), gf_mul(gf_mul(a, b), c));
    // Distributivity over XOR-addition.
    EXPECT_EQ(gf_mul(a, gf_add(b, c)), gf_add(gf_mul(a, b), gf_mul(a, c)));
    EXPECT_EQ(gf_mul(a, 1), a);
    EXPECT_EQ(gf_mul(a, 0), 0);
  }
}

TEST(Gf256, InverseAndDivision) {
  for (unsigned a = 1; a < 256; ++a) {
    const Gf inv = gf_inv(static_cast<Gf>(a));
    EXPECT_EQ(gf_mul(static_cast<Gf>(a), inv), 1);
    EXPECT_EQ(gf_div(static_cast<Gf>(a), static_cast<Gf>(a)), 1);
  }
}

TEST(Gf256, PowMatchesRepeatedMul) {
  for (unsigned a : {2u, 3u, 29u, 255u}) {
    Gf acc = 1;
    for (unsigned e = 0; e < 20; ++e) {
      EXPECT_EQ(gf_pow(static_cast<Gf>(a), e), acc);
      acc = gf_mul(acc, static_cast<Gf>(a));
    }
  }
}

TEST(Gf256, AddmulKernel) {
  std::vector<std::uint8_t> dst(64, 0), src(64);
  std::iota(src.begin(), src.end(), 1);
  gf_addmul(dst.data(), src.data(), 3, src.size());
  for (std::size_t i = 0; i < src.size(); ++i) EXPECT_EQ(dst[i], gf_mul(src[i], 3));
  // Accumulating the same contribution cancels (characteristic 2).
  gf_addmul(dst.data(), src.data(), 3, src.size());
  for (std::size_t i = 0; i < src.size(); ++i) EXPECT_EQ(dst[i], 0);
}

// -------------------------------- matrix ----------------------------------

TEST(Matrix, IdentityInvertsToItself) {
  const Matrix id = Matrix::identity(8);
  auto inv = id.inverted();
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(*inv, id);
}

TEST(Matrix, InverseIsTwoSided) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    Matrix m(6, 6);
    for (std::size_t i = 0; i < 6; ++i) {
      for (std::size_t j = 0; j < 6; ++j) {
        m.at(i, j) = static_cast<Gf>(rng.uniform_int(0, 255));
      }
    }
    auto inv = m.inverted();
    if (!inv) continue;  // Random singular matrices are skipped.
    EXPECT_EQ(m.mul(*inv), Matrix::identity(6));
    EXPECT_EQ(inv->mul(m), Matrix::identity(6));
  }
}

TEST(Matrix, SingularDetected) {
  Matrix m(3, 3);  // All zeros.
  EXPECT_FALSE(m.inverted().has_value());
  // Duplicate rows.
  Matrix d(2, 2);
  d.at(0, 0) = 5;
  d.at(0, 1) = 7;
  d.at(1, 0) = 5;
  d.at(1, 1) = 7;
  EXPECT_FALSE(d.inverted().has_value());
}

TEST(Matrix, VandermondeSubmatricesInvertible) {
  const Matrix v = Matrix::vandermonde(12, 5);
  // Any 5 distinct rows must be invertible -- the erasure-code property.
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::size_t> rows(12);
    std::iota(rows.begin(), rows.end(), 0);
    for (std::size_t i = 0; i < 5; ++i) {
      std::swap(rows[i], rows[static_cast<std::size_t>(rng.uniform_int(
                             static_cast<std::int64_t>(i), 11))]);
    }
    rows.resize(5);
    EXPECT_TRUE(v.select_rows(rows).inverted().has_value());
  }
}

// ---------------------------- Reed-Solomon --------------------------------

// Rebuilds all k data shards through decode_into, the one decoder, with every
// data position as a target; returns what decode_into returns.
bool decode_all(const ReedSolomon& rs,
                const std::vector<std::pair<std::size_t, std::span<const std::uint8_t>>>& input,
                std::size_t len, std::vector<std::vector<std::uint8_t>>& decoded) {
  std::vector<std::pair<std::size_t, const std::uint8_t*>> shards;
  for (const auto& [idx, buf] : input) shards.emplace_back(idx, buf.data());
  std::vector<std::size_t> targets(rs.k());
  std::iota(targets.begin(), targets.end(), 0);
  decoded.assign(rs.k(), std::vector<std::uint8_t>(len));
  std::vector<std::uint8_t*> out;
  for (auto& d : decoded) out.push_back(d.data());
  return rs.decode_into(shards, len, targets, out.data());
}

struct RsParam {
  std::size_t k;
  std::size_t r;
};

class ReedSolomonSweep : public ::testing::TestWithParam<RsParam> {};

TEST_P(ReedSolomonSweep, AnyKofNRecovers) {
  const auto [k, r] = GetParam();
  const std::size_t len = 64;
  Rng rng(1000 + k * 17 + r);

  std::vector<std::vector<std::uint8_t>> data(k, std::vector<std::uint8_t>(len));
  for (auto& shard : data) {
    for (auto& byte : shard) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const ReedSolomon rs(k, r);
  auto parity = reference_parity(rs, data);
  ASSERT_EQ(parity.size(), r);

  // All shards in codeword order.
  std::vector<std::vector<std::uint8_t>> all = data;
  for (auto& p : parity) all.push_back(p);

  // Try multiple random subsets of exactly k shards.
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<std::size_t> idx(k + r);
    std::iota(idx.begin(), idx.end(), 0);
    for (std::size_t i = 0; i < idx.size(); ++i) {
      std::swap(idx[i], idx[static_cast<std::size_t>(rng.uniform_int(
                            static_cast<std::int64_t>(i),
                            static_cast<std::int64_t>(idx.size()) - 1))]);
    }
    idx.resize(k);
    std::vector<std::pair<std::size_t, std::span<const std::uint8_t>>> input;
    for (std::size_t i : idx) input.emplace_back(i, std::span<const std::uint8_t>(all[i]));
    std::vector<std::vector<std::uint8_t>> decoded;
    ASSERT_TRUE(decode_all(rs, input, len, decoded));
    for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(decoded[i], data[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KRSweep, ReedSolomonSweep,
    ::testing::Values(RsParam{1, 1}, RsParam{2, 1}, RsParam{4, 2}, RsParam{5, 1},
                      RsParam{6, 2}, RsParam{8, 3}, RsParam{10, 2}, RsParam{16, 4},
                      RsParam{20, 2}, RsParam{32, 8}, RsParam{50, 5}));

TEST(ReedSolomon, SystematicParityIndependentOfDataCopy) {
  // The top k rows of the encode matrix must be identity (systematic code).
  const ReedSolomon rs(6, 2);
  for (std::size_t i = 0; i < 6; ++i) {
    const auto row = rs.encode_row(i);
    for (std::size_t j = 0; j < 6; ++j) EXPECT_EQ(row[j], i == j ? 1 : 0);
  }
}

TEST(ReedSolomon, FewerThanKShardsFails) {
  const ReedSolomon rs(4, 2);
  std::vector<std::uint8_t> shard(16, 1);
  std::vector<std::pair<std::size_t, std::span<const std::uint8_t>>> input = {
      {0, shard}, {1, shard}, {2, shard}};
  std::vector<std::vector<std::uint8_t>> decoded;
  EXPECT_FALSE(decode_all(rs, input, shard.size(), decoded));
}

TEST(ReedSolomon, RejectsInvalidConstruction) {
  EXPECT_THROW(ReedSolomon(0, 2), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(200, 100), std::invalid_argument);
}

TEST(ReedSolomon, RejectsMalformedDecodeInput) {
  const ReedSolomon rs(2, 2);
  std::vector<std::uint8_t> shard(8, 1);
  std::vector<std::pair<std::size_t, std::span<const std::uint8_t>>> dup = {{0, shard},
                                                                            {0, shard}};
  std::vector<std::vector<std::uint8_t>> decoded;
  EXPECT_THROW(decode_all(rs, dup, shard.size(), decoded), std::invalid_argument);
  std::vector<std::pair<std::size_t, std::span<const std::uint8_t>>> oob = {{0, shard},
                                                                            {9, shard}};
  EXPECT_THROW(decode_all(rs, oob, shard.size(), decoded), std::out_of_range);
}

TEST(ReedSolomon, EncodeIntoMatchesEncode) {
  // The production encoder reads the shards in place at a fixed stride; the
  // reference computes the same parity shard by shard.
  const ReedSolomon rs(4, 2);
  const std::size_t len = 32;
  Rng rng(77);
  std::vector<std::vector<std::uint8_t>> data(4, std::vector<std::uint8_t>(len));
  std::vector<std::uint8_t> strided;
  for (auto& s : data) {
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    strided.insert(strided.end(), s.begin(), s.end());
  }
  auto expected = reference_parity(rs, data);

  std::vector<std::vector<std::uint8_t>> parity(2, std::vector<std::uint8_t>(len));
  std::vector<std::uint8_t*> pp;
  for (auto& s : parity) pp.push_back(s.data());
  rs.encode_into(strided.data(), len, len, pp.data());
  EXPECT_EQ(parity, expected);
}

// ----------------------------- coded batch --------------------------------

using Present = std::vector<std::pair<std::size_t, std::span<const std::uint8_t>>>;

std::vector<std::uint8_t> bytes(std::span<const std::uint8_t> s) { return {s.begin(), s.end()}; }

std::vector<PacketPtr> make_batch(std::size_t k, std::size_t base_size, Rng& rng) {
  std::vector<PacketPtr> pkts;
  for (std::size_t i = 0; i < k; ++i) {
    auto p = std::make_shared<Packet>();
    p->flow = static_cast<FlowId>(i + 1);
    p->seq = static_cast<SeqNo>(100 + i);
    // Different sizes per packet: the batch must pad correctly.
    p->payload.resize(base_size + i * 13);
    for (auto& b : p->payload) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    pkts.push_back(std::move(p));
  }
  return pkts;
}

TEST(CodedBatch, EncodeProducesMetadata) {
  Rng rng(4);
  auto pkts = make_batch(6, 50, rng);
  BatchEncoder enc;
  std::vector<PacketPtr> coded;
  enc.encode_into(pkts, 2, PacketType::kCrossCoded, 42, 1, 2, 1000, coded);
  ASSERT_EQ(coded.size(), 2u);
  for (std::size_t i = 0; i < coded.size(); ++i) {
    ASSERT_TRUE(coded[i]->meta.has_value());
    EXPECT_EQ(coded[i]->meta->batch_id, 42u);
    EXPECT_EQ(coded[i]->meta->k, 6);
    EXPECT_EQ(coded[i]->meta->r, 2);
    EXPECT_EQ(coded[i]->meta->index, 6 + i);
    EXPECT_EQ(coded[i]->meta->covered.size(), 6u);
    EXPECT_EQ(coded[i]->type, PacketType::kCrossCoded);
  }
}

TEST(CodedBatch, RecoverSingleMissing) {
  Rng rng(5);
  auto pkts = make_batch(6, 40, rng);
  auto coded = reference_encode(pkts, 2, PacketType::kCrossCoded, 1, 1, 2, 0);
  const CodedMeta& meta = *coded[0]->meta;

  // Position 3 is missing; all other data packets present.
  Present present;
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    if (i == 3) continue;
    present.emplace_back(i, std::span<const std::uint8_t>(pkts[i]->payload));
  }
  ShardArena arena;
  const std::vector<std::size_t> wanted = {3};
  std::vector<std::span<const std::uint8_t>> out(wanted.size());
  ASSERT_TRUE(
      decode_batch(arena, meta, present, std::vector<PacketPtr>{coded[0]}, wanted, out));
  EXPECT_EQ(meta.covered[3], pkts[3]->key());
  EXPECT_EQ(bytes(out[0]), pkts[3]->payload);
}

TEST(CodedBatch, RecoverTwoMissingNeedsBothCodedPackets) {
  Rng rng(6);
  auto pkts = make_batch(5, 30, rng);
  auto coded = reference_encode(pkts, 2, PacketType::kCrossCoded, 2, 1, 2, 0);
  const CodedMeta& meta = *coded[0]->meta;

  Present present;
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    if (i == 1 || i == 4) continue;
    present.emplace_back(i, std::span<const std::uint8_t>(pkts[i]->payload));
  }
  ShardArena arena;
  const std::vector<std::size_t> wanted = {1, 4};
  std::vector<std::span<const std::uint8_t>> out(wanted.size());
  // One coded packet is not enough for two losses.
  EXPECT_FALSE(
      decode_batch(arena, meta, present, std::vector<PacketPtr>{coded[0]}, wanted, out));
  // Both coded packets recover both losses, exactly.
  ASSERT_TRUE(decode_batch(arena, meta, present, coded, wanted, out));
  EXPECT_EQ(bytes(out[0]), pkts[1]->payload);
  EXPECT_EQ(bytes(out[1]), pkts[4]->payload);
}

TEST(CodedBatch, StragglerTolerance) {
  // k=6 with r=2: recovery of one loss succeeds with one peer missing
  // (straggler) because the second coded packet replaces it.
  Rng rng(7);
  auto pkts = make_batch(6, 20, rng);
  auto coded = reference_encode(pkts, 2, PacketType::kCrossCoded, 3, 1, 2, 0);
  Present present;
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    if (i == 0 || i == 5) continue;  // 0 lost; 5 is a straggler.
    present.emplace_back(i, std::span<const std::uint8_t>(pkts[i]->payload));
  }
  const CodedMeta& meta = *coded[0]->meta;
  ShardArena arena;
  // Both absent positions can be rebuilt; the requester cares about 0.
  const std::vector<std::size_t> wanted = {0, 5};
  std::vector<std::span<const std::uint8_t>> out(wanted.size());
  ASSERT_TRUE(decode_batch(arena, meta, present, coded, wanted, out));
  EXPECT_EQ(meta.covered[0], pkts[0]->key());
  EXPECT_EQ(bytes(out[0]), pkts[0]->payload);
  EXPECT_EQ(bytes(out[1]), pkts[5]->payload);
}

TEST(CodedBatch, SinglePacketBatchActsAsDuplication) {
  Rng rng(8);
  auto pkts = make_batch(1, 25, rng);
  auto coded = reference_encode(pkts, 1, PacketType::kInCoded, 9, 1, 2, 0);
  ShardArena arena;
  const std::vector<std::size_t> wanted = {0};
  std::vector<std::span<const std::uint8_t>> out(wanted.size());
  ASSERT_TRUE(decode_batch(arena, *coded[0]->meta, {}, coded, wanted, out));
  EXPECT_EQ(bytes(out[0]), pkts[0]->payload);
}

TEST(CodedBatch, DuplicateCodedPacketsIgnored) {
  Rng rng(9);
  auto pkts = make_batch(4, 30, rng);
  auto coded = reference_encode(pkts, 1, PacketType::kCrossCoded, 10, 1, 2, 0);
  std::vector<PacketPtr> dup = {coded[0], coded[0], coded[0]};
  Present present;
  present.emplace_back(0, std::span<const std::uint8_t>(pkts[0]->payload));
  present.emplace_back(1, std::span<const std::uint8_t>(pkts[1]->payload));
  ShardArena arena;
  const std::vector<std::size_t> wanted = {2, 3};
  std::vector<std::span<const std::uint8_t>> out(wanted.size());
  // Two missing, one distinct coded symbol: must fail, not crash.
  EXPECT_FALSE(decode_batch(arena, *coded[0]->meta, present, dup, wanted, out));
}

TEST(CodedBatch, RejectsOversizedBatch) {
  Rng rng(10);
  auto pkts = make_batch(254, 4, rng);
  BatchEncoder enc;
  std::vector<PacketPtr> out;
  EXPECT_THROW(enc.encode_into(pkts, 2, PacketType::kCrossCoded, 1, 1, 2, 0, out),
               std::invalid_argument);
}

// A coded packet of a one-member batch (k = 1). Its parity row is [1], so
// its payload is exactly the framed shard decode_batch rebuilds.
PacketPtr one_member_coded(std::vector<std::uint8_t> shard, std::uint8_t r = 1) {
  auto c = std::make_shared<Packet>();
  CodedMeta meta;
  meta.batch_id = 7;
  meta.k = 1;
  meta.r = r;
  meta.index = 1;
  meta.covered = {PacketKey{1, 5}};
  c->meta = std::move(meta);
  c->payload = std::move(shard);
  return c;
}

TEST(DecodeBatch, CorruptLengthPrefixGivesEmptyPayload) {
  ShardArena arena;
  const std::vector<std::size_t> wanted = {0};
  std::vector<std::span<const std::uint8_t>> out(wanted.size());
  const std::vector<PacketPtr> good = {one_member_coded({0, 2, 7, 9})};
  ASSERT_TRUE(decode_batch(arena, *good[0]->meta, {}, good, wanted, out));
  EXPECT_EQ(bytes(out[0]), (std::vector<std::uint8_t>{7, 9}));
  // The prefix claims 65,535 bytes of a 4-byte shard.
  const std::vector<PacketPtr> corrupt = {one_member_coded({0xff, 0xff, 7, 9})};
  ASSERT_TRUE(decode_batch(arena, *corrupt[0]->meta, {}, corrupt, wanted, out));
  EXPECT_TRUE(out[0].empty());
}

TEST(DecodeBatch, RefusesShapesNoEncoderProduces) {
  ShardArena arena;
  const std::vector<std::size_t> wanted = {0};
  std::vector<std::span<const std::uint8_t>> out(wanted.size());
  // k + r = 256 does not fit GF(256); the codec cache would throw on it.
  const std::vector<PacketPtr> wide = {one_member_coded({0, 1, 7}, 255)};
  EXPECT_FALSE(decode_batch(arena, *wide[0]->meta, {}, wide, wanted, out));
  CodedMeta no_members = *wide[0]->meta;
  no_members.k = 0;
  no_members.r = 1;
  EXPECT_FALSE(decode_batch(arena, no_members, {}, wide, {}, {}));
  CodedMeta short_cover = *wide[0]->meta;
  short_cover.k = 2;
  short_cover.r = 1;
  EXPECT_FALSE(decode_batch(arena, short_cover, {}, wide, wanted, out));
}

TEST(DecodeBatch, EmptyWantedReportsWhetherKSymbolsSurvive) {
  Rng rng(11);
  auto pkts = make_batch(4, 30, rng);
  auto coded = reference_encode(pkts, 1, PacketType::kCrossCoded, 12, 1, 2, 0);
  Present present;
  for (std::size_t i = 0; i < 3; ++i) {
    present.emplace_back(i, std::span<const std::uint8_t>(pkts[i]->payload));
  }
  ShardArena arena;
  EXPECT_TRUE(decode_batch(arena, *coded[0]->meta, present, coded, {}, {}));
  present.pop_back();  // Two absent, one coded symbol.
  EXPECT_FALSE(decode_batch(arena, *coded[0]->meta, present, coded, {}, {}));
}

TEST(DecodeBatch, RejectsWantedPositionsItCannotRebuild) {
  Rng rng(12);
  auto pkts = make_batch(4, 30, rng);
  auto coded = reference_encode(pkts, 2, PacketType::kCrossCoded, 13, 1, 2, 0);
  const CodedMeta& meta = *coded[0]->meta;
  Present present;
  present.emplace_back(0, std::span<const std::uint8_t>(pkts[0]->payload));
  present.emplace_back(1, std::span<const std::uint8_t>(pkts[1]->payload));
  ShardArena arena;
  std::vector<std::span<const std::uint8_t>> one(1), two(2);
  const std::vector<std::size_t> held = {0}, beyond_k = {4}, twice = {3, 3}, pair = {2, 3};
  EXPECT_THROW(decode_batch(arena, meta, present, coded, held, one), std::invalid_argument);
  EXPECT_THROW(decode_batch(arena, meta, present, coded, beyond_k, one), std::invalid_argument);
  EXPECT_THROW(decode_batch(arena, meta, present, coded, twice, two), std::invalid_argument);
  EXPECT_THROW(decode_batch(arena, meta, present, coded, pair, one), std::invalid_argument);
  ASSERT_TRUE(decode_batch(arena, meta, present, coded, pair, two));
  EXPECT_EQ(bytes(two[0]), pkts[2]->payload);
  EXPECT_EQ(bytes(two[1]), pkts[3]->payload);
}

}  // namespace
}  // namespace jqos::fec
