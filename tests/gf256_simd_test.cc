// Differential tests for the GF(256) kernels.
//
// A wrong kernel corrupts every decoded packet silently, so correctness is
// established differentially against an independent schoolbook carry-less
// multiplication reference (shares no code with the tables or the kernels).
// The fused row kernel gf_rs_row -- the one SIMD kernel -- is checked on
// every available backend, forced in turn; the scalar buffer kernels
// gf_addmul / gf_mul_buf are checked once. Coverage spans
//   - all 256 coefficients,
//   - every buffer length 0..67 (covers empty, sub-vector, exactly one
//     32-byte vector, vector+tail, and multi-vector+tail splits),
//   - several source/destination misalignments (the SIMD path uses
//     unaligned loads; this pins that no aligned-load assumption creeps in),
//   - large randomized buffers,
// with guard bytes around the destination to catch out-of-bounds writes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "fec/gf256.h"
#include "fec/gf256_simd.h"
#include "test_guards.h"

namespace jqos::fec {
namespace {

// Independent reference: schoolbook carry-less multiplication modulo 0x11d.
Gf schoolbook_mul(Gf a, Gf b) {
  unsigned acc = 0;
  unsigned aa = a;
  for (unsigned bb = b; bb != 0; bb >>= 1) {
    if (bb & 1) acc ^= aa;
    aa <<= 1;
    if (aa & 0x100) aa ^= 0x11d;
  }
  return static_cast<Gf>(acc);
}

// Restores the backend that was active on entry when a test finishes, so
// backend forcing cannot leak across test cases (`ctest --schedule-random`).
using BackendGuard = jqos::testing::GfBackendGuard;

constexpr std::size_t kGuard = 32;       // Guard bytes on each side of dst.
constexpr std::uint8_t kCanary = 0xa5;

// The second source gf_rs_row accumulates beside the coefficient under test.
constexpr Gf kPartner = 0x8e;

// Random bytes at a chosen misalignment, and a destination of n bytes at a
// chosen misalignment with canary-filled guard bytes on both sides.
struct Buffers {
  std::vector<std::uint8_t> src_buf, src2_buf, dst_buf;
  std::uint8_t* src;
  std::uint8_t* src2;
  std::uint8_t* dst;
  std::size_t dst_align;

  Buffers(std::size_t n, std::size_t src_align, std::size_t dst_align_in, Rng& rng)
      : src_buf(n + src_align + kGuard),
        src2_buf(n + src_align + kGuard),
        dst_buf(n + dst_align_in + 2 * kGuard, kCanary),
        src(src_buf.data() + src_align),
        src2(src2_buf.data() + src_align),
        dst(dst_buf.data() + kGuard + dst_align_in),
        dst_align(dst_align_in) {
    for (std::size_t i = 0; i < n; ++i) {
      src[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      src2[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      dst[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
  }

  // Guard bytes before and after dst must be untouched.
  void expect_guards_intact(std::size_t n) const {
    for (std::size_t i = 0; i < kGuard + dst_align; ++i) {
      ASSERT_EQ(dst_buf[i], kCanary) << "pre-guard clobbered at " << i;
    }
    for (std::size_t i = kGuard + dst_align + n; i < dst_buf.size(); ++i) {
      ASSERT_EQ(dst_buf[i], kCanary) << "post-guard clobbered at " << i;
    }
  }
};

// Checks gf_rs_row against the reference for one (coefficient, length,
// alignment) point under the currently forced backend: c alone (k = 1,
// which for c == 0 is the all-zero row), then c beside a second source.
void check_point(Gf c, std::size_t n, std::size_t src_align, std::size_t dst_align,
                 Rng& rng) {
  Buffers b(n, src_align, dst_align, rng);

  gf_rs_row(b.dst, &b.src, &c, 1, n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(b.dst[i], schoolbook_mul(c, b.src[i]))
        << "rs_row k=1 backend=" << gf_backend_name() << " c=" << int(c) << " n=" << n
        << " i=" << i << " src_align=" << src_align << " dst_align=" << dst_align;
  }

  const std::uint8_t* const srcs[2] = {b.src, b.src2};
  const Gf coeffs[2] = {c, kPartner};
  gf_rs_row(b.dst, srcs, coeffs, 2, n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(b.dst[i], schoolbook_mul(c, b.src[i]) ^ schoolbook_mul(kPartner, b.src2[i]))
        << "rs_row k=2 backend=" << gf_backend_name() << " c=" << int(c) << " n=" << n
        << " i=" << i << " src_align=" << src_align << " dst_align=" << dst_align;
  }
  b.expect_guards_intact(n);
}

// Checks the scalar buffer kernels gf_addmul and gf_mul_buf against the
// reference for one (coefficient, length, alignment) point.
void check_buffer_kernels(Gf c, std::size_t n, std::size_t src_align, std::size_t dst_align,
                          Rng& rng) {
  Buffers b(n, src_align, dst_align, rng);
  const std::vector<std::uint8_t> dst0(b.dst, b.dst + n);

  gf_addmul(b.dst, b.src, c, n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(b.dst[i], dst0[i] ^ schoolbook_mul(c, b.src[i]))
        << "addmul c=" << int(c) << " n=" << n << " i=" << i << " src_align=" << src_align
        << " dst_align=" << dst_align;
  }

  gf_mul_buf(b.dst, b.src, c, n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(b.dst[i], schoolbook_mul(c, b.src[i]))
        << "mul_buf c=" << int(c) << " n=" << n << " i=" << i;
  }
  b.expect_guards_intact(n);
}

TEST(Gf256Simd, ScalarBackendAlwaysAvailable) {
  EXPECT_TRUE(gf_backend_available(GfBackend::kScalar));
  EXPECT_FALSE(gf_available_backends().empty());
}

TEST(Gf256Simd, BackendNamesAndForcing) {
  BackendGuard guard;
  EXPECT_STREQ(gf_backend_name(GfBackend::kScalar), "scalar");
  EXPECT_STREQ(gf_backend_name(GfBackend::kAvx2), "avx2");
  for (GfBackend b : gf_available_backends()) {
    ASSERT_TRUE(gf_set_backend(b));
    EXPECT_EQ(gf_backend(), b);
    EXPECT_STREQ(gf_backend_name(), gf_backend_name(b));
  }
  if (!gf_backend_available(GfBackend::kAvx2)) {
    const GfBackend before = gf_backend();
    EXPECT_FALSE(gf_set_backend(GfBackend::kAvx2));
    EXPECT_EQ(gf_backend(), before) << "failed set must not change the backend";
  }
}

TEST(Gf256Simd, AllCoefficientsAllSmallLengths) {
  Rng scalar_rng(0x5eed0000u);
  for (int c = 0; c < 256; ++c) {
    for (std::size_t n = 0; n <= 67; ++n) {
      check_buffer_kernels(static_cast<Gf>(c), n, 0, 0, scalar_rng);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  BackendGuard guard;
  for (GfBackend b : gf_available_backends()) {
    ASSERT_TRUE(gf_set_backend(b));
    Rng rng(0x5eed0000u + static_cast<std::uint64_t>(b));
    for (int c = 0; c < 256; ++c) {
      for (std::size_t n = 0; n <= 67; ++n) {
        check_point(static_cast<Gf>(c), n, 0, 0, rng);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(Gf256Simd, MisalignedHeadsAndTails) {
  const auto sweep = [](Rng& rng, auto check) {
    for (std::size_t src_align : {1u, 3u, 7u, 15u}) {
      for (std::size_t dst_align : {1u, 5u, 13u}) {
        for (std::size_t n : {1u, 15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u, 65u, 200u}) {
          for (Gf c : {2, 29, 107, 255}) {
            check(c, n, src_align, dst_align, rng);
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  };
  Rng scalar_rng(0xa119u);
  sweep(scalar_rng, check_buffer_kernels);
  if (HasFatalFailure()) return;
  BackendGuard guard;
  for (GfBackend b : gf_available_backends()) {
    ASSERT_TRUE(gf_set_backend(b));
    Rng rng(0xa119u + static_cast<std::uint64_t>(b));
    sweep(rng, check_point);
    if (HasFatalFailure()) return;
  }
}

TEST(Gf256Simd, LargeRandomBuffersMatchScalar) {
  const auto random_points = [](Rng& rng, auto check) {
    for (int iter = 0; iter < 20; ++iter) {
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1024, 9000));
      const Gf c = static_cast<Gf>(rng.uniform_int(0, 255));
      check(c, n, static_cast<std::size_t>(rng.uniform_int(0, 31)),
            static_cast<std::size_t>(rng.uniform_int(0, 31)), rng);
      if (::testing::Test::HasFatalFailure()) return;
    }
  };
  Rng rng(0xb16b00b5);
  random_points(rng, check_buffer_kernels);
  if (HasFatalFailure()) return;
  BackendGuard guard;
  for (GfBackend b : gf_available_backends()) {
    ASSERT_TRUE(gf_set_backend(b));
    random_points(rng, check_point);
    if (HasFatalFailure()) return;
  }
}

TEST(Gf256Simd, MulBufInPlaceAliasing) {
  // The documented aliasing contract: exact dst == src scales in place.
  Rng rng(0x417a5);
  for (std::size_t n : {0u, 1u, 16u, 33u, 67u, 1024u}) {
    std::vector<std::uint8_t> buf(n);
    for (auto& v : buf) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const std::vector<std::uint8_t> orig = buf;
    const Gf c = 71;
    gf_mul_buf(buf.data(), buf.data(), c, n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(buf[i], schoolbook_mul(c, orig[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Gf256Simd, FastPathsZeroAndOne) {
  std::vector<std::uint8_t> src(100), dst(100);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i * 7 + 3);
    dst[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  const std::vector<std::uint8_t> dst0 = dst;
  gf_addmul(dst.data(), src.data(), 0, dst.size());
  EXPECT_EQ(dst, dst0) << "c=0 addmul must be a no-op";
  gf_addmul(dst.data(), src.data(), 1, dst.size());
  for (std::size_t i = 0; i < dst.size(); ++i) {
    ASSERT_EQ(dst[i], static_cast<std::uint8_t>(dst0[i] ^ src[i]));
  }
  gf_mul_buf(dst.data(), src.data(), 1, dst.size());
  EXPECT_EQ(dst, src) << "c=1 mul_buf must copy";
  gf_mul_buf(dst.data(), src.data(), 0, dst.size());
  EXPECT_EQ(dst, std::vector<std::uint8_t>(dst.size(), 0)) << "c=0 mul_buf must zero";
}

}  // namespace
}  // namespace jqos::fec
