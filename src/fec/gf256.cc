#include "fec/gf256.h"

#include <array>
#include <stdexcept>

#include "fec/gf256_simd_impl.h"

namespace jqos::fec {
namespace {

// 0x11d = x^8 + x^4 + x^3 + x^2 + 1, generator alpha = 2.
constexpr unsigned kPoly = 0x11d;

struct Tables {
  // exp_ is doubled so gf_mul can skip the mod-255 reduction.
  std::array<Gf, 510> exp_{};
  std::array<int, 256> log_{};
  // 256x256 full multiplication table: one L1-resident 64KB lookup per
  // product; measurably faster than log/exp in the addmul kernel.
  std::array<std::array<Gf, 256>, 256> mul_{};

  Tables() {
    unsigned x = 1;
    for (int i = 0; i < 255; ++i) {
      exp_[static_cast<std::size_t>(i)] = static_cast<Gf>(x);
      log_[x] = i;
      x <<= 1;
      if (x & 0x100) x ^= kPoly;
    }
    for (int i = 255; i < 510; ++i) exp_[static_cast<std::size_t>(i)] = exp_[static_cast<std::size_t>(i - 255)];
    log_[0] = -1;  // log(0) is undefined; sentinel for debug checks.
    for (int a = 0; a < 256; ++a) {
      for (int b = 0; b < 256; ++b) {
        if (a == 0 || b == 0) {
          mul_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = 0;
        } else {
          mul_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
              exp_[static_cast<std::size_t>(log_[a] + log_[b])];
        }
      }
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

}  // namespace

Gf gf_mul(Gf a, Gf b) { return tables().mul_[a][b]; }

Gf gf_div(Gf a, Gf b) {
  // Division by zero is undefined in a field. The previous implementation
  // fell through to log_[0] = -1 sentinel arithmetic and returned a wrong
  // non-zero value; fail loudly instead so decoder bugs surface at the
  // source rather than as corrupted recovered packets.
  if (b == 0) throw std::domain_error("gf_div: division by zero in GF(256)");
  if (a == 0) return 0;
  const Tables& t = tables();
  int d = t.log_[a] - t.log_[b];
  if (d < 0) d += 255;
  return t.exp_[static_cast<std::size_t>(d)];
}

Gf gf_inv(Gf a) {
  if (a == 0) throw std::domain_error("gf_inv: zero has no inverse in GF(256)");
  const Tables& t = tables();
  return t.exp_[static_cast<std::size_t>(255 - t.log_[a])];
}

Gf gf_pow(Gf a, unsigned e) {
  if (a == 0) return e == 0 ? 1 : 0;
  const Tables& t = tables();
  const unsigned l = (static_cast<unsigned>(t.log_[a]) * e) % 255u;
  return t.exp_[l];
}

// Buffer kernels: one L1-resident 256-byte row walk per buffer. Only short
// rows reach them (Matrix row operations, the row kernel's scalar backend
// and its sub-block tails), so they stay scalar.
void gf_addmul(std::uint8_t* dst, const std::uint8_t* src, Gf c, std::size_t n) {
  if (c == 0) return;
  const auto& row = tables().mul_[c];
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

void gf_mul_buf(std::uint8_t* dst, const std::uint8_t* src, Gf c, std::size_t n) {
  const auto& row = tables().mul_[c];
  for (std::size_t i = 0; i < n; ++i) dst[i] = row[src[i]];
}

void gf_rs_row(std::uint8_t* dst, const std::uint8_t* const* srcs, const Gf* coeffs,
               std::size_t k, std::size_t n) {
  // Compact away c == 0 terms (they contribute nothing); the kernels then
  // only see active sources. k <= 255 by the RS contract, so fixed stack
  // arrays suffice — no allocation on this path.
  const std::uint8_t* active[255];
  Gf cs[255];
  std::size_t m = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (coeffs[j] == 0) continue;
    active[m] = srcs[j];
    cs[m] = coeffs[j];
    ++m;
  }
  if (m == 0) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = 0;
    return;
  }
  detail::gf_rs_row_kernel()(dst, active, cs, m, n);
}

void gf_rs_row(std::uint8_t* dst, const std::uint8_t* src, std::size_t stride,
               const Gf* coeffs, std::size_t k, std::size_t n) {
  // Materialize the strided shard pointers and share the pointer-array
  // overload's compaction logic.
  const std::uint8_t* srcs[255];
  for (std::size_t j = 0; j < k; ++j) srcs[j] = src + j * stride;
  gf_rs_row(dst, srcs, coeffs, k, n);
}

namespace detail {

// Reference composition of the fused row kernel: first active term
// initializes, the rest accumulate.
void gf_rs_row_scalar(std::uint8_t* dst, const std::uint8_t* const* srcs, const Gf* cs,
                      std::size_t m, std::size_t n) {
  gf_mul_buf(dst, srcs[0], cs[0], n);
  for (std::size_t j = 1; j < m; ++j) gf_addmul(dst, srcs[j], cs[j], n);
}

}  // namespace detail

Gf gf_exp_table(unsigned i) { return tables().exp_.at(i); }

int gf_log_table(Gf a) { return tables().log_.at(a); }

}  // namespace jqos::fec
