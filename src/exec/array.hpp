// Dense multi-dimensional double arrays for the interpreter.
//
// Each dimension carries an explicit [lo, hi] index range (programs
// address arrays with arbitrary affine subscripts, including negative
// ones near boundaries). Accesses are bounds-checked so a wrong
// transformation fails loudly instead of corrupting memory.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "support/checked_int.hpp"

namespace inlt {

class DenseArray {
 public:
  DenseArray() = default;
  /// Valid indices of dimension d run over [lo[d], hi[d]] inclusive.
  DenseArray(std::vector<i64> lo, std::vector<i64> hi);

  int rank() const { return static_cast<int>(lo_.size()); }
  i64 lo(int d) const { return lo_[d]; }
  i64 hi(int d) const { return hi_[d]; }
  /// Row-major element stride of dimension d (innermost is 1).
  i64 stride(int d) const { return strides_[d]; }

  /// Raw storage in row-major order, for execution engines that
  /// precompute flat offsets.
  double* raw_data() { return data_.data(); }

  double get(const std::vector<i64>& idx) const;
  void set(const std::vector<i64>& idx, double v);

  /// Elementwise maximum absolute difference; shapes must match.
  double max_abs_diff(const DenseArray& o) const;

  const std::vector<double>& data() const { return data_; }

 private:
  size_t flat(const std::vector<i64>& idx) const;

  std::vector<i64> lo_, hi_;
  std::vector<i64> strides_;
  std::vector<double> data_;
};

/// A named collection of arrays: the memory a program runs against.
class Memory {
 public:
  void declare(const std::string& name, std::vector<i64> lo,
               std::vector<i64> hi);
  DenseArray& at(const std::string& name);
  const DenseArray& at(const std::string& name) const;
  bool has(const std::string& name) const { return arrays_.count(name) > 0; }

  std::map<std::string, DenseArray>& arrays() { return arrays_; }
  const std::map<std::string, DenseArray>& arrays() const { return arrays_; }

  /// Max abs difference across all arrays (shapes must match).
  double max_abs_diff(const Memory& o) const;

 private:
  std::map<std::string, DenseArray> arrays_;
};

}  // namespace inlt
