#include "fec/matrix.h"

#include <stdexcept>

namespace jqos::fec {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

Matrix Matrix::vandermonde(std::size_t rows, std::size_t cols) {
  if (rows > 255) throw std::invalid_argument("vandermonde: at most 255 rows in GF(256)");
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    // alpha_r = alpha^r gives 255 distinct non-degenerate evaluation points.
    const Gf alpha_r = gf_exp_table(static_cast<unsigned>(r % 255));
    Gf v = 1;
    for (std::size_t c = 0; c < cols; ++c) {
      m.at(r, c) = (r == 0) ? (c == 0 ? 1 : 0) : v;
      v = gf_mul(v, alpha_r);
    }
  }
  // Row 0 corresponds to evaluation point alpha^0 = 1, whose powers are all
  // 1; the loop above instead gives row 0 the canonical unit row so the
  // matrix stays a classic Vandermonde built over points {1, alpha, ...}.
  // Rebuild row 0 properly: point 1 -> all-ones row.
  for (std::size_t c = 0; c < cols; ++c) m.at(0, c) = 1;
  return m;
}

Matrix Matrix::mul(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) throw std::invalid_argument("matrix mul: shape mismatch");
  Matrix out(rows_, rhs.cols_);
  // Row-times-matrix as row accumulation: out.row(i) ^= a * rhs.row(k).
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      gf_addmul(out.row(i), rhs.row(k), at(i, k), rhs.cols_);
    }
  }
  return out;
}

Matrix Matrix::select_rows(const std::vector<std::size_t>& rows) const {
  Matrix out(rows.size(), cols_);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= rows_) throw std::out_of_range("select_rows: row index");
    for (std::size_t j = 0; j < cols_; ++j) out.at(i, j) = at(rows[i], j);
  }
  return out;
}

std::optional<Matrix> Matrix::inverted() const {
  if (rows_ != cols_) throw std::invalid_argument("inverted: square matrices only");
  const std::size_t n = rows_;
  Matrix a = *this;
  Matrix inv = identity(n);
  for (std::size_t col = 0; col < n; ++col) {
    // Find a pivot (any non-zero entry works in a field). If the column has
    // none the matrix is rank-deficient: report singularity to the caller
    // instead of continuing with a zero pivot, which would feed 0 to gf_inv
    // below and propagate garbage through every remaining row operation.
    std::size_t pivot = col;
    while (pivot < n && a.at(pivot, col) == 0) ++pivot;
    if (pivot == n) return std::nullopt;  // singular
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a.at(pivot, j), a.at(col, j));
        std::swap(inv.at(pivot, j), inv.at(col, j));
      }
    }
    // Scale pivot row to 1. The pivot is non-zero by construction, so
    // gf_inv cannot throw here. gf_mul_buf permits exact dst==src aliasing,
    // so the rows scale in place.
    const Gf scale = gf_inv(a.at(col, col));
    gf_mul_buf(a.row(col), a.row(col), scale, n);
    gf_mul_buf(inv.row(col), inv.row(col), scale, n);
    // Eliminate the column everywhere else: row_i ^= f * row_col is exactly
    // the gf_addmul row-accumulation primitive (c == 0 rows are a no-op
    // inside the kernel's fast path).
    for (std::size_t i = 0; i < n; ++i) {
      if (i == col) continue;
      const Gf f = a.at(i, col);
      gf_addmul(a.row(i), a.row(col), f, n);
      gf_addmul(inv.row(i), inv.row(col), f, n);
    }
  }
  return inv;
}

}  // namespace jqos::fec
