#include "linalg/matrix.hpp"

#include <sstream>

namespace inlt {

IntMat mat_mul(const IntMat& a, const IntMat& b) {
  INLT_CHECK_MSG(a.cols() == b.rows(), "matrix product dimension mismatch");
  IntMat c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int k = 0; k < a.cols(); ++k) {
      i64 aik = a(i, k);
      if (aik == 0) continue;
      for (int j = 0; j < b.cols(); ++j)
        c(i, j) = checked_add(c(i, j), checked_mul(aik, b(k, j)));
    }
  return c;
}

RatMat mat_mul(const RatMat& a, const RatMat& b) {
  INLT_CHECK_MSG(a.cols() == b.rows(), "matrix product dimension mismatch");
  RatMat c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int k = 0; k < a.cols(); ++k) {
      const Rational& aik = a(i, k);
      if (aik.is_zero()) continue;
      for (int j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  return c;
}

IntVec mat_vec(const IntMat& a, const IntVec& x) {
  INLT_CHECK_MSG(a.cols() == static_cast<int>(x.size()),
                 "matrix-vector dimension mismatch");
  IntVec y(a.rows(), 0);
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j)
      y[i] = checked_add(y[i], checked_mul(a(i, j), x[j]));
  return y;
}

bool is_permutation_matrix(const IntMat& m) {
  if (m.rows() != m.cols()) return false;
  std::vector<int> row_ones(m.rows(), 0), col_ones(m.cols(), 0);
  for (int i = 0; i < m.rows(); ++i)
    for (int j = 0; j < m.cols(); ++j) {
      if (m(i, j) == 0) continue;
      if (m(i, j) != 1) return false;
      ++row_ones[i];
      ++col_ones[j];
    }
  for (int i = 0; i < m.rows(); ++i)
    if (row_ones[i] != 1 || col_ones[i] != 1) return false;
  return true;
}

bool is_identity(const IntMat& m) {
  if (m.rows() != m.cols()) return false;
  for (int i = 0; i < m.rows(); ++i)
    for (int j = 0; j < m.cols(); ++j)
      if (m(i, j) != (i == j ? 1 : 0)) return false;
  return true;
}

RatMat to_rational(const IntMat& m) {
  RatMat r(m.rows(), m.cols());
  for (int i = 0; i < m.rows(); ++i)
    for (int j = 0; j < m.cols(); ++j) r(i, j) = Rational(m(i, j));
  return r;
}

namespace {
template <typename M>
std::string render(const M& m) {
  std::ostringstream os;
  for (int i = 0; i < m.rows(); ++i) {
    os << (i == 0 ? "[" : " ");
    for (int j = 0; j < m.cols(); ++j) {
      if (j) os << ' ';
      os << m(i, j);
    }
    os << (i + 1 == m.rows() ? "]" : "\n");
  }
  if (m.rows() == 0) os << "[]";
  return os.str();
}
}  // namespace

std::string mat_to_string(const IntMat& m) { return render(m); }
std::string mat_to_string(const RatMat& m) { return render(m); }

}  // namespace inlt
