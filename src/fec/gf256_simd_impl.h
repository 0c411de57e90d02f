// Internals shared between the dispatcher (gf256_simd.cc), the scalar
// kernel (gf256.cc) and the AVX2 kernel translation unit
// (gf256_simd_avx2.cc). Not installed; include only from within src/fec.
#pragma once

#include <cstddef>
#include <cstdint>

#include "fec/gf256.h"

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64) || defined(_M_IX86)
#define JQOS_GF_X86 1
#else
#define JQOS_GF_X86 0
#endif

namespace jqos::fec::detail {

// Split-nibble product tables, built once on first use: for each
// coefficient c,
//   lo[c][x] = c * x          for x in [0, 16)   (low-nibble products)
//   hi[c][x] = c * (x << 4)   for x in [0, 16)   (high-nibble products)
// Each 16-byte row is one PSHUFB operand, loaded aligned and broadcast to
// both AVX2 lanes. 256 * 2 * 16 = 8 KiB total.
struct NibbleTables {
  alignas(32) std::uint8_t lo[256][16];
  alignas(32) std::uint8_t hi[256][16];
};

const NibbleTables& nibble_tables();

// Fused row kernel (gf_rs_row): dst[i] = XOR_j cs[j] * srcs[j][i], one pass
// over dst. The wrapper compacts away c == 0 terms, so kernels see m >= 1
// active sources; coefficients may still be 1 (the tables are exact for it).
// Resolved on first use and re-resolved by gf_set_backend.
using RowKernelFn = void (*)(std::uint8_t* dst, const std::uint8_t* const* srcs,
                             const Gf* cs, std::size_t m, std::size_t n);
RowKernelFn gf_rs_row_kernel();

// Scalar backend: the gf_mul_buf / gf_addmul composition.
void gf_rs_row_scalar(std::uint8_t* dst, const std::uint8_t* const* srcs, const Gf* cs,
                      std::size_t m, std::size_t n);

// AVX2 backend. The symbols always exist so the dispatcher links on any
// platform; when the TU was compiled without AVX2 (non-x86, or a compiler
// lacking -mavx2) the kernel delegates to the scalar one and
// gf_avx2_compiled() reports false, which keeps it out of dispatch.
bool gf_avx2_compiled();
void gf_rs_row_avx2(std::uint8_t* dst, const std::uint8_t* const* srcs, const Gf* cs,
                    std::size_t m, std::size_t n);

}  // namespace jqos::fec::detail
