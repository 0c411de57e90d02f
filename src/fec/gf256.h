// Arithmetic over GF(2^8) with the AES polynomial x^8+x^4+x^3+x^2+1 (0x11d
// representation as used by Reed-Solomon implementations such as zfec, the
// library the paper's prototype used).
//
// Multiplication is table-driven via log/exp tables built once on first
// use. Every packet-sized buffer operation -- each encode's parity rows and
// each decode's payload rebuild -- runs one kernel, the fused row kernel
// gf_rs_row. It is SIMD-accelerated: a split-nibble VPSHUFB implementation
// (AVX2, 32 bytes/step), with the scalar table walk as the portable
// fallback, selected once at startup by CPUID runtime dispatch. See
// gf256_simd.h for the technique and how to force a backend
// (gf_set_backend()). The buffer kernels gf_addmul / gf_mul_buf are the
// scalar table walk; they serve short rows (Matrix row operations).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace jqos::fec {

// Field element.
using Gf = std::uint8_t;

// Addition in GF(2^8) is XOR, and so is subtraction: gf_add serves both.
constexpr Gf gf_add(Gf a, Gf b) { return a ^ b; }

// Multiplication, division, inverse and exponentiation via the log/exp
// tables. gf_div throws std::domain_error when b == 0 and gf_inv throws when
// a == 0: both are undefined in a field, and a silent wrong answer here
// corrupts every packet decoded through the offending matrix row.
Gf gf_mul(Gf a, Gf b);
Gf gf_div(Gf a, Gf b);
Gf gf_inv(Gf a);
Gf gf_pow(Gf a, unsigned e);

// dst[i] ^= c * src[i] for i in [0, n): accumulates one row, scaled by a
// coefficient, into another. No alignment requirement on either pointer. dst
// and src must be either exactly equal or non-overlapping.
void gf_addmul(std::uint8_t* dst, const std::uint8_t* src, Gf c, std::size_t n);

// dst[i] = c * src[i]. Same aliasing contract as gf_addmul: exact dst == src
// (in-place scaling, used by matrix inversion) or no overlap.
void gf_mul_buf(std::uint8_t* dst, const std::uint8_t* src, Gf c, std::size_t n);

// Fused Reed-Solomon row kernel:
//
//     dst[i] = XOR over j in [0, k) of coeffs[j] * src_j[i],
//
// where src_j = src + j * stride (k equal-length shards laid out at a fixed
// stride, as in fec::ShardArena). Computes a whole codeword row in ONE pass
// over dst — the per-source gf_addmul formulation re-reads and re-writes
// dst k times; this accumulates all k products in registers and stores each
// dst block once. dst is fully overwritten (k == 0 or all-zero
// coefficients zero it). Preconditions: k <= 255, stride >= n, dst must not
// overlap any source shard. O(k * n) field operations.
void gf_rs_row(std::uint8_t* dst, const std::uint8_t* src, std::size_t stride,
               const Gf* coeffs, std::size_t k, std::size_t n);

// Pointer-array variant of gf_rs_row for sources that are not stride-
// contiguous (decode reads a mix of arena shards and packet payloads).
// Same contract otherwise.
void gf_rs_row(std::uint8_t* dst, const std::uint8_t* const* srcs,
               const Gf* coeffs, std::size_t k, std::size_t n);

// Direct table access for tests that validate table construction against
// schoolbook carry-less multiplication.
Gf gf_exp_table(unsigned i);   // alpha^i, i in [0, 509]
int gf_log_table(Gf a);        // log_alpha(a), a != 0

}  // namespace jqos::fec
