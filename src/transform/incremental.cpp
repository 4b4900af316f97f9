#include "transform/incremental.hpp"

#include <algorithm>

#include "instance/program_order.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace inlt {

namespace {

std::atomic<i64>& stat_pushes() {
  static std::atomic<i64>& c = Stats::global().counter("incremental.pushes");
  return c;
}
std::atomic<i64>& stat_rows_evaluated() {
  static std::atomic<i64>& c =
      Stats::global().counter("incremental.rows_evaluated");
  return c;
}

}  // namespace

IncrementalLegality::IncrementalLegality(const IvLayout& layout,
                                         const DependenceSet& deps)
    : layout_(layout), deps_(deps), slots_(layout.all_loop_positions()) {
  size_t nd = deps_.deps.size();
  in_common_.resize(nd);
  zero_ok_.resize(nd);
  is_self_.resize(nd);
  order_.resize(nd);
  for (size_t d = 0; d < nd; ++d) {
    const Dependence& dep = deps_.deps[d];
    // For structure-preserving candidates the target tree equals the
    // source tree, so the projection target and the syntactic order
    // are source-layout facts, computable once up front.
    std::vector<int> common = layout_.common_loop_positions(dep.src, dep.dst);
    std::vector<std::uint8_t>& mask = in_common_[d];
    mask.assign(slots_.size(), 0);
    size_t ci = 0;  // both lists ascend: merge walk
    for (size_t s = 0; s < slots_.size(); ++s) {
      while (ci < common.size() && common[ci] < slots_[s]) ++ci;
      if (ci < common.size() && common[ci] == slots_[s]) mask[s] = 1;
    }
    is_self_[d] = dep.src == dep.dst;
    zero_ok_[d] =
        is_self_[d] || syntactically_before(layout_, dep.src, dep.dst);
    order_[d] = static_cast<int>(d);
  }
  frames_.resize(slots_.size() + 1);
  frames_[0].states.assign(nd, kRun);
}

IncrementalLegality::State IncrementalLegality::step(State s,
                                                     const DepEntry& e) const {
  // One transition of the lex_status walk (direction.cpp): the final
  // states absorb, zero entries are skipped, a definitely-positive
  // entry accepts, a definitely-negative or mixed-sign entry rejects
  // (negative after a possibly-zero entry is kUnknown there — also a
  // rejection), and a non-negative entry marks "may still be zero".
  if (s == kAccept || s == kReject) return s;
  if (e.is_zero()) return s;
  if (e.definitely_positive()) return kAccept;
  if (e.definitely_negative()) return kReject;
  if (e.definitely_non_negative()) return kRunNonNeg;
  return kReject;  // undecidable interval
}

bool IncrementalLegality::push_row(const IntVec& row) {
  INLT_CHECK_MSG(depth() < num_slots(), "push_row past the last slot");
  INLT_CHECK(row.size() == static_cast<size_t>(layout_.size()));
  stat_pushes().fetch_add(1, std::memory_order_relaxed);
  const Frame& cur = frames_[depth_];
  Frame& next = frames_[depth_ + 1];
  const int slot = depth_;
  ++depth_;
  next.viable = cur.viable;
  next.killer = cur.killer;
  next.killer_row = cur.killer_row;
  // Extending a dead prefix: stay dead, no work.
  if (!cur.viable) return false;

  stat_rows_evaluated().fetch_add(1, std::memory_order_relaxed);
  next.states = cur.states;
  for (int d : order_) {
    if (!in_common_[d][slot]) continue;
    State s = static_cast<State>(next.states[d]);
    if (s == kAccept || s == kReject) continue;
    // Entry of the transformed projection at this slot: row · d.
    const DepVector& v = deps_.deps[d].vector;
    DepEntry acc = DepEntry::exact(0);
    for (size_t j = 0; j < row.size(); ++j)
      if (row[j] != 0) acc = acc + v[j] * row[j];
    State ns = step(s, acc);
    next.states[d] = ns;
    if (ns == kReject) {
      next.viable = false;
      next.killer = d;
      next.killer_row = slot;
      // Move-to-front: this dependence just proved it prunes; try
      // it first on future prefixes.
      auto pos = std::find(order_.begin(), order_.end(), d);
      order_.erase(pos);
      order_.insert(order_.begin(), d);
      break;
    }
  }
  return next.viable;
}

void IncrementalLegality::pop_row() {
  INLT_CHECK_MSG(depth_ > 0, "pop_row on an empty stack");
  --depth_;
}

int IncrementalLegality::leaf_killer() const {
  const Frame& leaf = frames_[depth_];
  if (depth_ != num_slots() || !leaf.viable) return -1;
  // Dependences still undecided after all rows project to zero (or to
  // a possibly-zero non-negative): legal iff the zero case is
  // acceptable for the pair.
  for (size_t d = 0; d < deps_.deps.size(); ++d) {
    State s = static_cast<State>(leaf.states[d]);
    if ((s == kRun || s == kRunNonNeg) && !zero_ok_[d])
      return static_cast<int>(d);
  }
  return -1;
}

bool IncrementalLegality::current_legal() const {
  INLT_CHECK_MSG(depth() == num_slots(),
                 "current_legal needs a complete candidate");
  return frames_[depth_].viable && leaf_killer() < 0;
}

std::vector<int> IncrementalLegality::current_unsatisfied() const {
  INLT_CHECK_MSG(depth() == num_slots(),
                 "current_unsatisfied needs a complete candidate");
  const Frame& leaf = frames_[depth_];
  INLT_CHECK(leaf.viable);
  std::vector<int> out;
  for (size_t d = 0; d < deps_.deps.size(); ++d) {
    State s = static_cast<State>(leaf.states[d]);
    if ((s == kRun || s == kRunNonNeg) && is_self_[d])
      out.push_back(static_cast<int>(d));
  }
  return out;
}

}  // namespace inlt
