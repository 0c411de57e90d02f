#include "fec/reed_solomon.h"

#include <cstring>
#include <optional>
#include <stdexcept>

namespace jqos::fec {

ReedSolomon::ReedSolomon(std::size_t k, std::size_t r) : k_(k), r_(r) {
  if (k == 0) throw std::invalid_argument("ReedSolomon: k must be >= 1");
  if (k + r > 255) throw std::invalid_argument("ReedSolomon: k + r must be <= 255");
  Matrix v = Matrix::vandermonde(k + r, k);
  std::vector<std::size_t> top(k);
  for (std::size_t i = 0; i < k; ++i) top[i] = i;
  auto top_inv = v.select_rows(top).inverted();
  if (!top_inv) throw std::logic_error("ReedSolomon: Vandermonde top block singular");
  enc_ = v.mul(*top_inv);
}

void ReedSolomon::encode_into(const std::uint8_t* data, std::size_t stride,
                              std::size_t shard_len, std::uint8_t* const* parity) const {
  if (stride < shard_len) throw std::invalid_argument("encode_into: stride < shard_len");
  for (std::size_t p = 0; p < r_; ++p) {
    gf_rs_row(parity[p], data, stride, enc_.row(k_ + p), k_, shard_len);
  }
}

bool ReedSolomon::decode_into(
    std::span<const std::pair<std::size_t, const std::uint8_t*>> shards,
    std::size_t shard_len, std::span<const std::size_t> targets,
    std::uint8_t* const* out) const {
  if (shards.size() < k_) return false;
  std::vector<std::size_t> rows;
  rows.reserve(k_);
  std::vector<const std::uint8_t*> bufs;
  bufs.reserve(k_);
  std::vector<bool> seen(n(), false);
  for (const auto& [idx, buf] : shards) {
    if (rows.size() == k_) break;
    if (idx >= n()) throw std::out_of_range("decode_into: shard index out of range");
    if (seen[idx]) throw std::invalid_argument("decode_into: duplicate shard index");
    seen[idx] = true;
    rows.push_back(idx);
    bufs.push_back(buf);
  }
  if (rows.size() < k_) return false;

  // The inverse is only needed for targets that were not received directly;
  // compute it lazily so the all-direct case (every target survived) costs
  // nothing but memcpys.
  std::optional<Matrix> sub_inv;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const std::size_t pos = targets[t];
    if (pos >= k_) throw std::out_of_range("decode_into: target out of range");
    std::uint8_t* dst = out[t];
    bool direct = false;
    for (std::size_t j = 0; j < rows.size(); ++j) {
      if (rows[j] == pos) {
        if (shard_len != 0) std::memcpy(dst, bufs[j], shard_len);
        direct = true;
        break;
      }
    }
    if (direct || shard_len == 0) continue;
    if (!sub_inv) {
      sub_inv = enc_.select_rows(rows).inverted();
      if (!sub_inv) return false;  // Cannot happen for distinct Vandermonde rows.
    }
    gf_rs_row(dst, bufs.data(), sub_inv->row(pos), k_, shard_len);
  }
  return true;
}

std::vector<Gf> ReedSolomon::encode_row(std::size_t i) const {
  std::vector<Gf> row(k_);
  for (std::size_t j = 0; j < k_; ++j) row[j] = enc_.at(i, j);
  return row;
}

}  // namespace jqos::fec
