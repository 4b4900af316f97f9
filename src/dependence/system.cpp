#include "dependence/system.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "linalg/project.hpp"
#include "support/check.hpp"

namespace inlt {

LinExpr lin_subtract(const ConstraintSystem& cs, const LinExpr& a,
                     const LinExpr& b) {
  LinExpr r = cs.zero_expr();
  for (int i = 0; i < cs.num_vars(); ++i)
    r.coef[i] = checked_sub(a.coef[i], b.coef[i]);
  r.constant = checked_sub(a.constant, b.constant);
  return r;
}

LinExpr lin_negate(const LinExpr& e) {
  LinExpr r = e;
  for (i64& c : r.coef) c = checked_neg(c);
  r.constant = checked_neg(r.constant);
  return r;
}

namespace {

std::string src_var(const std::string& v) { return "s$" + v; }
std::string dst_var(const std::string& v) { return "d$" + v; }

LinExpr to_lin(const ConstraintSystem& cs, const AffineExpr& e,
               const Program& prog, bool src_side) {
  LinExpr r = cs.zero_expr();
  r.constant = e.constant();
  for (const auto& [name, coef] : e.terms()) {
    std::string v =
        prog.is_param(name) ? name : (src_side ? src_var(name) : dst_var(name));
    r.coef[cs.var(v)] = checked_add(r.coef[cs.var(v)], coef);
  }
  return r;
}

void add_loop_bounds(ConstraintSystem& cs, const Program& prog,
                     const StatementContext& sc, bool src_side) {
  for (const Node* l : sc.loops) {
    if (l->step() != 1)
      throw InvalidProgramError(
          "dependence analysis requires unit loop steps");
    if (!l->guards().empty() || !sc.stmt->guards().empty())
      throw InvalidProgramError(
          "dependence analysis requires guard-free source programs");
    std::string v = src_side ? src_var(l->var()) : dst_var(l->var());
    int vi = cs.var(v);
    for (const BoundTerm& t : l->lower().terms) {
      if (t.den != 1)
        throw InvalidProgramError(
            "dependence analysis requires denominator-1 bounds");
      LinExpr lo = to_lin(cs, t.expr, prog, src_side);
      LinExpr e = cs.zero_expr();
      e.coef[vi] = 1;
      cs.add_ge(lin_subtract(cs, e, lo));
    }
    for (const BoundTerm& t : l->upper().terms) {
      if (t.den != 1)
        throw InvalidProgramError(
            "dependence analysis requires denominator-1 bounds");
      LinExpr hi = to_lin(cs, t.expr, prog, src_side);
      LinExpr e = cs.zero_expr();
      e.coef[vi] = 1;
      cs.add_ge(lin_subtract(cs, hi, e));
    }
  }
}

}  // namespace

LinExpr position_value_expr(const ConstraintSystem& cs,
                            const IvLayout& layout, const std::string& label,
                            int q, bool src_side, PadMode pad) {
  const IvLayout::StmtInfo& info = layout.stmt_info(label);
  const IvPosition& pos = layout.positions()[q];
  LinExpr r = cs.zero_expr();
  if (pos.kind == PositionKind::kEdge) {
    for (int e : info.path_edge_positions)
      if (e == q) {
        r.constant = 1;
        return r;
      }
    return r;  // 0
  }
  const auto& lps = info.loop_positions;
  for (size_t k = 0; k < lps.size(); ++k)
    if (lps[k] == q) {
      std::string v = layout.positions()[q].loop->var();
      r.coef[cs.var(src_side ? src_var(v) : dst_var(v))] = 1;
      return r;
    }
  if (pad == PadMode::kZero) return r;  // 0
  for (size_t k = 0; k < info.padded_positions.size(); ++k) {
    if (info.padded_positions[k] != q) continue;
    int srcidx = info.pad_source[k];
    if (srcidx < 0) {
      if (lps.empty()) return r;  // no loops: pad 0
      srcidx = 0;                 // fallback: outermost loop label
    }
    std::string v = layout.positions()[lps[srcidx]].loop->var();
    r.coef[cs.var(src_side ? src_var(v) : dst_var(v))] = 1;
    return r;
  }
  throw Error("position not classified for statement " + label);
}

std::vector<PairSystem> build_pair_systems(const IvLayout& layout) {
  const Program& prog = layout.program();
  std::vector<PairSystem> out;

  std::vector<StatementContext> stmts = prog.statements();
  for (const StatementContext& sa : stmts) {
    for (const StatementContext& sb : stmts) {
      size_t c = 0;
      while (c < sa.loops.size() && c < sb.loops.size() &&
             sa.loops[c] == sb.loops[c])
        ++c;
      int syn_a = layout.stmt_info(sa.label()).syntactic_index;
      int syn_b = layout.stmt_info(sb.label()).syntactic_index;

      std::vector<ArrayAccess> aaccs = sa.stmt->stmt_data().accesses();
      std::vector<ArrayAccess> baccs = sb.stmt->stmt_data().accesses();
      for (const ArrayAccess& a : aaccs) {
        for (const ArrayAccess& b : baccs) {
          if (a.array != b.array) continue;
          if (!a.is_write && !b.is_write) continue;
          if (a.subscripts.size() != b.subscripts.size())
            throw InvalidProgramError("array " + a.array +
                                      " used with inconsistent rank");

          std::vector<std::string> vars;
          for (const std::string& p : prog.params()) vars.push_back(p);
          for (const Node* l : sa.loops) vars.push_back(src_var(l->var()));
          for (const Node* l : sb.loops) vars.push_back(dst_var(l->var()));
          ConstraintSystem base(vars);
          add_loop_bounds(base, prog, sa, /*src_side=*/true);
          add_loop_bounds(base, prog, sb, /*src_side=*/false);
          for (size_t dim = 0; dim < a.subscripts.size(); ++dim) {
            LinExpr ea = to_lin(base, a.subscripts[dim], prog, true);
            LinExpr eb = to_lin(base, b.subscripts[dim], prog, false);
            base.add_eq(lin_subtract(base, ea, eb));
          }

          for (size_t t = 0; t <= c; ++t) {
            if (t == c && syn_a >= syn_b) continue;
            ConstraintSystem cs = base;
            for (size_t k = 0; k < t; ++k) {
              const std::string& v = sa.loops[k]->var();
              cs.add_diff_eq(cs.var(dst_var(v)), cs.var(src_var(v)), 0);
            }
            if (t < c) {
              const std::string& v = sa.loops[t]->var();
              cs.add_diff_ge(cs.var(dst_var(v)), cs.var(src_var(v)), 1);
            }
            if (!integer_feasible(cs)) continue;

            PairSystem ps;
            ps.src = sa.label();
            ps.dst = sb.label();
            ps.kind = a.is_write ? (b.is_write ? DepKind::kOutput
                                               : DepKind::kFlow)
                                 : DepKind::kAnti;
            ps.array = a.array;
            ps.level = static_cast<int>(t);
            ps.base = std::move(cs);
            out.push_back(std::move(ps));
          }
        }
      }
    }
  }
  return out;
}


namespace {

bool feasible_with(const ConstraintSystem& base, LinExpr extra_ge) {
  ConstraintSystem cs = base;
  cs.add_ge(std::move(extra_ge));
  return integer_feasible(cs);
}

LinExpr shifted(const LinExpr& e, i64 k) {
  LinExpr r = e;
  r.constant = checked_sub(r.constant, k);
  return r;
}

// The largest integer value of `e` over the feasible system, given the
// bounds lo_r <= e <= hi_r of its shadow (lo_r absent when unbounded).
// Every integer point satisfies the shadow, so "e >= k is feasible" is
// true at lo_r and false above the answer: one test confirms hi_r, and
// otherwise a binary search brackets the answer by lo_r, or by steps
// doubling down from hi_r.
i64 integer_max(const ConstraintSystem& cs, const LinExpr& e, i64 hi_r,
                std::optional<i64> lo_r) {
  auto reaches = [&](i64 k) { return feasible_with(cs, shifted(e, k)); };
  if (reaches(hi_r)) return hi_r;
  i64 bad = hi_r, good = 0;
  if (lo_r) {
    good = *lo_r;
  } else {
    for (i64 step = 1;; step = checked_mul(step, 2)) {
      i64 k = checked_sub(hi_r, step);
      if (reaches(k)) {
        good = k;
        break;
      }
      bad = k;
    }
  }
  INLT_CHECK_MSG(good < bad, "dependence classification found no integer");
  while (bad - good > 1) {
    i64 mid = good + (bad - good) / 2;
    (reaches(mid) ? good : bad) = mid;
  }
  return good;
}

}  // namespace

// Classify delta over the (feasible) system as in §3: project onto a Δ
// variable, then confirm each finite end of the shadow over the
// integers. An unbounded shadow end is an unbounded integer end: a
// rational polyhedron with an integer point has an integer hull with
// the same recession cone.
DepEntry classify_delta(const ConstraintSystem& cs, const LinExpr& delta) {
  if (delta.is_constant()) return DepEntry::exact(delta.constant);

  std::optional<i64> lo_r, hi_r;
  {
    // A one-shot projection: keep it out of any installed cache.
    ScopedProjectionCache uncached(nullptr);
    ConstraintSystem ext = cs;
    int d = ext.add_var("$delta");
    LinExpr def = ext.zero_expr();
    for (int i = 0; i < cs.num_vars(); ++i) def.coef[i] = delta.coef[i];
    def.coef[d] = -1;
    def.constant = delta.constant;
    ext.add_eq(std::move(def));  // Δ == delta
    ConstraintSystem shadow = project_onto(ext, {d});
    if (!normalize_system(shadow))
      throw Error("dependence classification found an empty interval");
    // Normalized one-variable constraints have coefficient ±1.
    for (const LinExpr& e : shadow.equalities())
      lo_r = hi_r = checked_neg(checked_mul(e.constant, e.coef[0]));
    for (const LinExpr& e : shadow.inequalities()) {
      if (e.coef[0] > 0)
        lo_r = std::max(lo_r.value_or(INT64_MIN), checked_neg(e.constant));
      else
        hi_r = std::min(hi_r.value_or(INT64_MAX), e.constant);
    }
  }
  if (lo_r && hi_r && *lo_r == *hi_r) return DepEntry::exact(*lo_r);

  // The low end is the high end of -delta.
  auto neg = [](std::optional<i64> v) {
    return v ? std::optional(checked_neg(*v)) : v;
  };
  std::optional<i64> hi, lo;
  if (hi_r) hi = integer_max(cs, delta, *hi_r, lo_r);
  if (lo_r) lo = neg(integer_max(cs, lin_negate(delta), *neg(lo_r), neg(hi)));

  if (!lo && !hi) return DepEntry::star();
  if (!lo) return DepEntry::at_most(*hi);
  if (!hi) return DepEntry::at_least(*lo);
  return DepEntry::range(*lo, *hi);
}
}  // namespace inlt

