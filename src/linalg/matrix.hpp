// Dense row-major matrices over ℤ (IntMat) and ℚ (RatMat).
//
// Transformation matrices (§4), dependence matrices (§3, columns are
// dependence vectors) and per-statement transformations (§5.4) are all
// IntMat; rational matrices appear only inside elimination routines.
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

#include "linalg/rational.hpp"
#include "linalg/vec.hpp"
#include "support/check.hpp"

namespace inlt {

template <typename T>
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols, zero-filled.
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols) {
    INLT_CHECK(rows >= 0 && cols >= 0);
  }

  /// Row-major literal: Matrix<i64>{{1,0},{0,1}}.
  Matrix(std::initializer_list<std::initializer_list<T>> rows) {
    rows_ = static_cast<int>(rows.size());
    cols_ = rows_ == 0 ? 0 : static_cast<int>(rows.begin()->size());
    data_.reserve(static_cast<size_t>(rows_) * cols_);
    for (const auto& r : rows) {
      INLT_CHECK_MSG(static_cast<int>(r.size()) == cols_,
                     "ragged matrix literal");
      data_.insert(data_.end(), r.begin(), r.end());
    }
  }

  static Matrix identity(int n) {
    Matrix m(n, n);
    for (int i = 0; i < n; ++i) m(i, i) = T(1);
    return m;
  }

  /// Build from a list of column vectors (how the paper writes
  /// dependence matrices: one column per dependence).
  static Matrix from_cols(const std::vector<std::vector<T>>& cols) {
    if (cols.empty()) return Matrix();
    Matrix m(static_cast<int>(cols[0].size()), static_cast<int>(cols.size()));
    for (int j = 0; j < m.cols(); ++j) {
      INLT_CHECK_MSG(cols[j].size() == cols[0].size(), "ragged columns");
      for (int i = 0; i < m.rows(); ++i) m(i, j) = cols[j][i];
    }
    return m;
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  T& operator()(int r, int c) {
    INLT_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  const T& operator()(int r, int c) const {
    INLT_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  std::vector<T> row(int r) const {
    INLT_CHECK(r >= 0 && r < rows_);
    return {data_.begin() + static_cast<size_t>(r) * cols_,
            data_.begin() + static_cast<size_t>(r + 1) * cols_};
  }

  std::vector<T> col(int c) const {
    INLT_CHECK(c >= 0 && c < cols_);
    std::vector<T> v(rows_);
    for (int i = 0; i < rows_; ++i) v[i] = (*this)(i, c);
    return v;
  }

  void set_row(int r, const std::vector<T>& v) {
    INLT_CHECK(static_cast<int>(v.size()) == cols_);
    for (int j = 0; j < cols_; ++j) (*this)(r, j) = v[j];
  }

  void append_row(const std::vector<T>& v) {
    if (rows_ == 0 && cols_ == 0) cols_ = static_cast<int>(v.size());
    INLT_CHECK(static_cast<int>(v.size()) == cols_);
    data_.insert(data_.end(), v.begin(), v.end());
    ++rows_;
  }

  /// Submatrix of rows [r0, r1) and columns [c0, c1).
  Matrix block(int r0, int r1, int c0, int c1) const {
    INLT_CHECK(0 <= r0 && r0 <= r1 && r1 <= rows_);
    INLT_CHECK(0 <= c0 && c0 <= c1 && c1 <= cols_);
    Matrix m(r1 - r0, c1 - c0);
    for (int i = r0; i < r1; ++i)
      for (int j = c0; j < c1; ++j) m(i - r0, j - c0) = (*this)(i, j);
    return m;
  }

  Matrix transposed() const {
    Matrix m(cols_, rows_);
    for (int i = 0; i < rows_; ++i)
      for (int j = 0; j < cols_; ++j) m(j, i) = (*this)(i, j);
    return m;
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  int rows_;
  int cols_;
  std::vector<T> data_;
};

using IntMat = Matrix<i64>;
using RatMat = Matrix<Rational>;

/// Matrix product (checked dimensions, overflow-checked for IntMat).
IntMat mat_mul(const IntMat& a, const IntMat& b);
RatMat mat_mul(const RatMat& a, const RatMat& b);

/// Matrix-vector product A*x.
IntVec mat_vec(const IntMat& a, const IntVec& x);

/// True iff the matrix is a permutation matrix (square, 0/1 entries,
/// exactly one 1 per row and per column). Used by the block-structure
/// check of §5.2.
bool is_permutation_matrix(const IntMat& m);

/// True iff m equals the identity.
bool is_identity(const IntMat& m);

/// Exact ℚ view of an integer matrix.
RatMat to_rational(const IntMat& m);

/// Pretty multi-line rendering for diagnostics.
std::string mat_to_string(const IntMat& m);
std::string mat_to_string(const RatMat& m);

}  // namespace inlt
