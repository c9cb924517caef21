#include "linalg/sparse.hpp"

#include <algorithm>

namespace streamflow {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<Triplet> triplets)
    : rows_(rows), cols_(cols) {
  for (const auto& t : triplets) {
    SF_REQUIRE(t.row < rows && t.col < cols, "triplet index out of range");
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  row_ptr_.assign(rows_ + 1, 0);
  col_index_.reserve(triplets.size());
  values_.reserve(triplets.size());
  for (std::size_t i = 0; i < triplets.size(); ++i) {
    const Triplet& t = triplets[i];
    // Sorted, so a duplicate directly follows the entry it merges into.
    if (i > 0 && triplets[i - 1].row == t.row && triplets[i - 1].col == t.col) {
      values_.back() += t.value;
      continue;
    }
    // row_ptr_ holds per-row counts during assembly.
    ++row_ptr_[t.row + 1];
    col_index_.push_back(t.col);
    values_.push_back(t.value);
  }
  for (std::size_t r = 0; r < rows_; ++r) row_ptr_[r + 1] += row_ptr_[r];
}

std::vector<double> CsrMatrix::multiply(const std::vector<double>& x) const {
  SF_REQUIRE(x.size() == cols_, "dimension mismatch in CSR multiply");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      acc += values_[k] * x[col_index_[k]];
    y[r] = acc;
  }
  return y;
}

std::vector<double> CsrMatrix::multiply_transpose(
    const std::vector<double>& x) const {
  SF_REQUIRE(x.size() == rows_, "dimension mismatch in CSR multiply_transpose");
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      y[col_index_[k]] += values_[k] * xr;
  }
  return y;
}

}  // namespace streamflow
