#include "exec/array.hpp"

#include <cmath>

#include "support/check.hpp"

namespace inlt {

DenseArray::DenseArray(std::vector<i64> lo, std::vector<i64> hi)
    : lo_(std::move(lo)), hi_(std::move(hi)) {
  INLT_CHECK(lo_.size() == hi_.size());
  i64 total = 1;
  strides_.resize(lo_.size());
  for (int d = static_cast<int>(lo_.size()) - 1; d >= 0; --d) {
    INLT_CHECK_MSG(hi_[d] >= lo_[d], "array dimension has empty range");
    strides_[d] = total;
    // Extent itself is overflow-checked: [lo, hi] can span nearly the
    // whole i64 range when a probe ran with absurd parameter values.
    total = checked_mul(total, checked_add(checked_sub(hi_[d], lo_[d]), 1));
  }
  data_.assign(static_cast<size_t>(total), 0.0);
}

size_t DenseArray::flat(const std::vector<i64>& idx) const {
  INLT_CHECK_MSG(idx.size() == lo_.size(), "array rank mismatch");
  i64 off = 0;
  for (size_t d = 0; d < idx.size(); ++d) {
    INLT_CHECK_MSG(idx[d] >= lo_[d] && idx[d] <= hi_[d],
                   "array index out of bounds");
    off = checked_add(off, checked_mul(idx[d] - lo_[d], strides_[d]));
  }
  return static_cast<size_t>(off);
}

double DenseArray::get(const std::vector<i64>& idx) const {
  return data_[flat(idx)];
}

void DenseArray::set(const std::vector<i64>& idx, double v) {
  data_[flat(idx)] = v;
}

double DenseArray::max_abs_diff(const DenseArray& o) const {
  INLT_CHECK_MSG(data_.size() == o.data_.size(), "array shape mismatch");
  double m = 0.0;
  for (size_t i = 0; i < data_.size(); ++i)
    m = std::max(m, std::fabs(data_[i] - o.data_[i]));
  return m;
}

void Memory::declare(const std::string& name, std::vector<i64> lo,
                     std::vector<i64> hi) {
  arrays_[name] = DenseArray(std::move(lo), std::move(hi));
}

DenseArray& Memory::at(const std::string& name) {
  auto it = arrays_.find(name);
  INLT_CHECK_MSG(it != arrays_.end(), "undeclared array " + name);
  return it->second;
}

const DenseArray& Memory::at(const std::string& name) const {
  auto it = arrays_.find(name);
  INLT_CHECK_MSG(it != arrays_.end(), "undeclared array " + name);
  return it->second;
}

double Memory::max_abs_diff(const Memory& o) const {
  INLT_CHECK_MSG(arrays_.size() == o.arrays_.size(), "memory shape mismatch");
  double m = 0.0;
  for (const auto& [name, arr] : arrays_)
    m = std::max(m, arr.max_abs_diff(o.at(name)));
  return m;
}

}  // namespace inlt
