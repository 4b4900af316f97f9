#include "transform/completion.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <set>

#include "support/check.hpp"
#include "support/diag.hpp"
#include "support/trace.hpp"

namespace inlt {

namespace {

enum class DepState { kPending, kSatisfied, kViolated };

// Root-to-statement path as (node, child-index) pairs; node == nullptr
// is the virtual root.
std::vector<std::pair<const Node*, int>> path_of(const Program& p,
                                                 const Node* stmt) {
  std::vector<std::pair<const Node*, int>> path;
  std::function<bool(const Node*, const std::vector<NodePtr>&)> dfs =
      [&](const Node* parent, const std::vector<NodePtr>& ch) -> bool {
    for (int i = 0; i < static_cast<int>(ch.size()); ++i) {
      path.emplace_back(parent, i);
      if (ch[i].get() == stmt) return true;
      if (ch[i]->is_loop() && dfs(ch[i].get(), ch[i]->children()))
        return true;
      path.pop_back();
    }
    return false;
  };
  bool found = dfs(nullptr, p.roots());
  INLT_CHECK(found);
  return path;
}

// Evaluate row · d as an interval.
DepEntry row_dot(const IntVec& row, const DepVector& d) {
  DepEntry acc = DepEntry::exact(0);
  for (size_t i = 0; i < row.size(); ++i)
    if (row[i] != 0) acc = acc + d[i] * row[i];
  return acc;
}

}  // namespace

CompletionResult complete_transformation(
    const IvLayout& src, const DependenceSet& deps,
    const std::vector<IntVec>& partial_loop_rows) {
  ScopedSpan span("transform.complete", "transform");
  if (span.active()) {
    span.arg("partial_rows", static_cast<i64>(partial_loop_rows.size()));
    span.arg("deps", static_cast<i64>(deps.deps.size()));
  }
  const Program& prog = src.program();
  int n = src.size();
  std::vector<int> loop_positions = src.all_loop_positions();
  INLT_CHECK_MSG(partial_loop_rows.size() <= loop_positions.size(),
                 "more partial rows than loops");
  for (const IntVec& r : partial_loop_rows)
    INLT_CHECK_MSG(static_cast<int>(r.size()) == n,
                   "partial row has wrong width");

  // Common source loop positions per dependence, and state.
  std::vector<std::vector<int>> common(deps.deps.size());
  std::vector<DepState> state(deps.deps.size(), DepState::kPending);
  for (size_t i = 0; i < deps.deps.size(); ++i)
    common[i] = src.common_loop_positions(deps.deps[i].src, deps.deps[i].dst);

  // Choose a row for each loop, in layout (DFS) order — ancestors come
  // before descendants, so each dependence sees its common loops
  // outermost-first.
  std::map<int, IntVec> chosen;  // loop position -> row
  for (size_t li = 0; li < loop_positions.size(); ++li) {
    int pl = loop_positions[li];
    // Dependences this loop can order: still pending, with pl among
    // their common loops.
    std::vector<int> relevant;
    for (size_t i = 0; i < deps.deps.size(); ++i) {
      if (state[i] != DepState::kPending) continue;
      if (std::find(common[i].begin(), common[i].end(), pl) !=
          common[i].end())
        relevant.push_back(static_cast<int>(i));
    }

    auto apply_row = [&](const IntVec& row, bool commit,
                         int* satisfied_count) -> bool {
      int sat = 0;
      for (int i : relevant) {
        DepEntry v = row_dot(row, deps.deps[i].vector);
        if (v.definitely_positive()) {
          ++sat;
          if (commit) state[i] = DepState::kSatisfied;
        } else if (v.is_zero() || v.definitely_non_negative()) {
          // Stays pending: a non-negative entry is sound because the
          // zero case falls through to inner loops or syntactic order
          // and the positive case is already ordered.
        } else {
          if (commit) state[i] = DepState::kViolated;
          return false;
        }
      }
      if (satisfied_count) *satisfied_count = sat;
      return true;
    };

    if (li < partial_loop_rows.size()) {
      const IntVec& row = partial_loop_rows[li];
      if (!apply_row(row, /*commit=*/false, nullptr)) {
        std::ostringstream os;
        os << "partial row " << li << " (" << vec_to_string(row)
           << ") reverses or blurs a dependence";
        Diagnostic d;
        d.stage = Stage::kCompletion;
        d.loop = src.positions()[pl].name;
        d.message = os.str();
        throw_diag(std::move(d));
      }
      apply_row(row, /*commit=*/true, nullptr);
      chosen[pl] = row;
      continue;
    }

    // Candidates: unit rows at loop positions, preferring positions no
    // earlier row used (keeps per-statement transformations
    // nonsingular so augmentation is only needed when genuinely
    // unavoidable), the loop's own position first; negated units last
    // (reversal completions).
    std::vector<IntVec> candidates;
    auto unit = [&](int q, i64 s) {
      IntVec e(n, 0);
      e[q] = s;
      return e;
    };
    std::set<int> used;
    for (const auto& [lp, row] : chosen) {
      (void)lp;
      int fz = first_nonzero(row);
      if (fz >= 0 && row[fz] == 1) {
        bool is_unit = true;
        for (size_t q = 0; q < row.size(); ++q)
          if (static_cast<int>(q) != fz && row[q] != 0) is_unit = false;
        if (is_unit) used.insert(fz);
      }
    }
    if (!used.count(pl)) candidates.push_back(unit(pl, 1));
    for (int q : loop_positions)
      if (q != pl && !used.count(q)) candidates.push_back(unit(q, 1));
    if (used.count(pl)) candidates.push_back(unit(pl, 1));
    for (int q : loop_positions)
      if (q != pl && used.count(q)) candidates.push_back(unit(q, 1));
    for (int q : loop_positions) candidates.push_back(unit(q, -1));

    const IntVec* best = nullptr;
    int best_sat = -1;
    for (const IntVec& cand : candidates) {
      int sat = 0;
      if (!apply_row(cand, /*commit=*/false, &sat)) continue;
      if (sat > best_sat) {
        best_sat = sat;
        best = &cand;
        if (!relevant.empty() &&
            sat == static_cast<int>(relevant.size()))
          break;  // cannot do better
      }
    }
    if (!best) {
      Diagnostic d;
      d.stage = Stage::kCompletion;
      d.loop = src.positions()[pl].name;
      d.message =
          "no unit row can legally fill loop " + src.positions()[pl].name;
      throw_diag(std::move(d));
    }
    IntVec row = *best;
    apply_row(row, /*commit=*/true, nullptr);
    chosen[pl] = std::move(row);
  }

  // Syntactic-order constraints from dependences whose common-loop
  // projection stayed zero: at the divergence node, the source's child
  // must precede the destination's child in the new order.
  std::map<const Node*, std::vector<std::pair<int, int>>> must_precede;
  for (size_t i = 0; i < deps.deps.size(); ++i) {
    if (state[i] != DepState::kPending) continue;
    const Dependence& d = deps.deps[i];
    if (d.src == d.dst) continue;  // handled by augmentation
    auto pa = path_of(prog, src.stmt_info(d.src).stmt);
    auto pb = path_of(prog, src.stmt_info(d.dst).stmt);
    size_t t = 0;
    while (t < pa.size() && t < pb.size() && pa[t] == pb[t]) ++t;
    INLT_CHECK(t < pa.size() && t < pb.size());
    INLT_CHECK(pa[t].first == pb[t].first);
    must_precede[pa[t].first].emplace_back(pa[t].second, pb[t].second);
  }

  // Stable topological sort of each constrained node's children.
  std::map<const Node*, std::vector<int>> child_perm;  // perm[old] = new
  for (const auto& [node, edges] : must_precede) {
    int m = node ? node->num_children()
                 : static_cast<int>(prog.roots().size());
    std::vector<std::vector<int>> succ(m);
    std::vector<int> indegree(m, 0);
    for (auto [a, b] : edges) {
      succ[a].push_back(b);
      ++indegree[b];
    }
    std::vector<int> order;  // order[new] = old
    std::vector<bool> done(m, false);
    for (int step = 0; step < m; ++step) {
      int pick = -1;
      for (int c = 0; c < m; ++c)
        if (!done[c] && indegree[c] == 0) {
          pick = c;
          break;  // smallest original index: stable
        }
      if (pick < 0) {
        Diagnostic d;
        d.stage = Stage::kCompletion;
        d.message =
            "syntactic-order constraints are cyclic; no statement "
            "reordering satisfies the remaining dependences";
        throw_diag(std::move(d));
      }
      done[pick] = true;
      order.push_back(pick);
      for (int s : succ[pick]) --indegree[s];
    }
    std::vector<int> perm(m);
    for (int newc = 0; newc < m; ++newc) perm[order[newc]] = newc;
    child_perm[node] = std::move(perm);
  }

  // Assemble the matrix by walking the permuted structure exactly as
  // the target layout will (Eq. 1 order).
  IntMat mat(n, n);
  int cursor = 0;
  std::function<void(const Node*, const std::vector<NodePtr>&)> emit =
      [&](const Node* node, const std::vector<NodePtr>& children) {
        if (node) {
          mat.set_row(cursor++, chosen.at(src.segment(node).loop_pos));
        }
        int m = static_cast<int>(children.size());
        std::vector<int> inv(m);
        auto it = child_perm.find(node);
        if (it != child_perm.end()) {
          for (int o = 0; o < m; ++o) inv[it->second[o]] = o;
        } else {
          for (int c = 0; c < m; ++c) inv[c] = c;
        }
        const IvLayout::Segment& seg = src.segment(node);
        if (m > 1) {
          for (int k = 0; k < m; ++k) {
            int new_index = m - 1 - k;
            IntVec row(n, 0);
            row[seg.child_edge_pos[inv[new_index]]] = 1;
            mat.set_row(cursor++, row);
          }
        }
        for (int newc = m - 1; newc >= 0; --newc) {
          const Node* child = children[inv[newc]].get();
          if (child->is_loop()) emit(child, child->children());
        }
      };
  emit(nullptr, prog.roots());
  INLT_CHECK(cursor == n);

  AstRecovery rec = recover_ast(src, mat);
  CompletionResult result{std::move(mat), std::move(rec), {}};
  result.legality = check_legality(src, deps, result.matrix, result.recovery);
  if (!result.legality.legal()) {
    std::ostringstream os;
    os << "completion produced an illegal matrix:";
    for (const std::string& v : result.legality.violations) os << "\n  " << v;
    throw DiagnosedTransformError(os.str(), result.legality.diagnostics);
  }
  return result;
}

}  // namespace inlt
