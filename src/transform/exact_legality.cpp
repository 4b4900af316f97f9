#include "transform/exact_legality.hpp"

#include <sstream>

#include "instance/program_order.hpp"
#include "linalg/project.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace inlt {

namespace {

LinExpr scaled_add(const ConstraintSystem& cs, const LinExpr& acc,
                   const LinExpr& e, i64 w) {
  LinExpr r = acc;
  for (int i = 0; i < cs.num_vars(); ++i)
    r.coef[i] = checked_add(r.coef[i], checked_mul(w, e.coef[i]));
  r.constant = checked_add(r.constant, checked_mul(w, e.constant));
  return r;
}

void add_violation(ExactLegalityResult& out, const PairSystem& ps,
                   const std::string& message) {
  Diagnostic d;
  d.severity = Severity::kError;
  d.stage = Stage::kLegality;
  d.message = message;
  d.src_stmt = ps.src;
  d.dst_stmt = ps.dst;
  d.array = ps.array;
  d.dep_kind = dep_kind_name(ps.kind);
  out.violations.push_back(message);
  out.diagnostics.push_back(std::move(d));
}

}  // namespace

ExactLegalityResult check_legality_exact(const IvLayout& src,
                                         const IntMat& m,
                                         const AstRecovery& rec,
                                         PadMode pad) {
  Stats::global().add("legality.exact_checks");
  ExactLegalityResult out;
  const IvLayout& tl = *rec.target_layout;

  for (const PairSystem& ps : build_pair_systems(src)) {
    const ConstraintSystem& cs = ps.base;

    // Δ_q for every source instance-vector position.
    std::vector<LinExpr> delta;
    delta.reserve(src.size());
    for (int q = 0; q < src.size(); ++q) {
      LinExpr dv = position_value_expr(cs, src, ps.dst, q, false, pad);
      LinExpr sv = position_value_expr(cs, src, ps.src, q, true, pad);
      delta.push_back(lin_subtract(cs, dv, sv));
    }

    // P_t = row(common target loop t of the pair) · Δ.
    std::vector<int> common = tl.common_loop_positions(ps.src, ps.dst);
    std::vector<LinExpr> p;
    for (int pos : common) {
      LinExpr acc = cs.zero_expr();
      for (int q = 0; q < src.size(); ++q)
        if (m(pos, q) != 0) acc = scaled_add(cs, acc, delta[q], m(pos, q));
      p.push_back(std::move(acc));
    }

    // Violation: some solution has the projection lexicographically
    // negative — P_0..P_{t-1} == 0 and P_t <= -1 for some level t.
    for (size_t t = 0; t < p.size(); ++t) {
      ConstraintSystem q = cs;
      for (size_t k = 0; k < t; ++k) q.add_eq(p[k]);
      LinExpr le = lin_negate(p[t]);
      le.constant = checked_sub(le.constant, 1);  // -P_t - 1 >= 0
      q.add_ge(le);
      if (integer_feasible(q)) {
        std::ostringstream os;
        os << dep_kind_name(ps.kind) << " " << ps.src << " -> " << ps.dst
           << " on " << ps.array << ": transformed projection can be "
           << "lexicographically negative at level " << t;
        add_violation(out, ps, os.str());
        break;
      }
    }

    // All-zero case: decided by syntactic order (distinct statements)
    // or left to augmentation (self-dependences).
    ConstraintSystem zero_sys = cs;
    for (const LinExpr& e : p) zero_sys.add_eq(e);
    if (!integer_feasible(zero_sys)) continue;
    if (ps.src == ps.dst) {
      // Project Δ onto the statement's own loop positions under the
      // all-equal condition; Complete consumes these.
      const auto& own = src.stmt_info(ps.src).loop_positions;
      DepVector proj;
      for (int q : own)
        proj.push_back(classify_delta(zero_sys, delta[q]));
      out.unsatisfied_self[ps.src].push_back(std::move(proj));
    } else if (!(syntactically_before(tl, ps.src, ps.dst) &&
                 ps.src != ps.dst)) {
      std::ostringstream os;
      os << dep_kind_name(ps.kind) << " " << ps.src << " -> " << ps.dst
         << " on " << ps.array << ": projection can be zero but " << ps.src
         << " does not precede " << ps.dst << " in the new AST";
      add_violation(out, ps, os.str());
    }
  }
  return out;
}

}  // namespace inlt
