// AVX2 split-nibble GF(256) row kernel, 32 bytes per step. VPSHUFB shuffles
// within each 128-bit lane, so the 16-byte nibble tables are broadcast to
// both lanes once per call. This TU (and only this TU) is built with -mavx2;
// dispatch guarantees the kernel runs only on AVX2 CPUs.
#include "fec/gf256_simd_impl.h"

#if JQOS_GF_X86 && defined(__AVX2__)

#include <immintrin.h>

namespace jqos::fec::detail {

bool gf_avx2_compiled() { return true; }

// Fused Reed-Solomon row: one pass over dst accumulating all m sources in a
// register, so per 32-byte block the dst traffic is a single store instead
// of the per-source load/xor/store of m chained gf_addmul calls. The
// per-coefficient nibble tables are broadcast once into a stack-resident
// array before the block loop; inside the loop they are L1-hot aligned
// loads. m <= 255 by the caller's contract (RS codewords), which bounds the
// table array at 16 KiB of stack.
void gf_rs_row_avx2(std::uint8_t* dst, const std::uint8_t* const* srcs, const Gf* cs,
                    std::size_t m, std::size_t n) {
  const NibbleTables& t = nibble_tables();
  alignas(32) __m256i tabs[2 * 255];
  for (std::size_t j = 0; j < m; ++j) {
    tabs[2 * j] = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[cs[j]])));
    tabs[2 * j + 1] = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[cs[j]])));
  }
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t j = 0; j < m; ++j) {
      const __m256i s =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i));
      const __m256i pl = _mm256_shuffle_epi8(tabs[2 * j], _mm256_and_si256(s, mask));
      const __m256i ph = _mm256_shuffle_epi8(
          tabs[2 * j + 1], _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
      acc = _mm256_xor_si256(acc, _mm256_xor_si256(pl, ph));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), acc);
  }
  if (i < n) {
    // Sub-block tail: the scalar composition is exact and the tail is at
    // most 31 bytes (arena-framed callers pad it away entirely).
    gf_mul_buf(dst + i, srcs[0] + i, cs[0], n - i);
    for (std::size_t j = 1; j < m; ++j) gf_addmul(dst + i, srcs[j] + i, cs[j], n - i);
  }
}

}  // namespace jqos::fec::detail

#else  // !x86 or compiler without -mavx2: keep the symbols, stay scalar.

namespace jqos::fec::detail {

bool gf_avx2_compiled() { return false; }

void gf_rs_row_avx2(std::uint8_t* dst, const std::uint8_t* const* srcs, const Gf* cs,
                    std::size_t m, std::size_t n) {
  gf_rs_row_scalar(dst, srcs, cs, m, n);
}

}  // namespace jqos::fec::detail

#endif
