#include "codegen/generate.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "linalg/gauss.hpp"
#include "linalg/project.hpp"
#include "support/check.hpp"
#include "support/diag.hpp"
#include "support/trace.hpp"

namespace inlt {

namespace {

// Everything code generation needs to know about one statement.
struct StmtCodegen {
  std::string label;
  int k = 0;                          // source nesting depth
  std::vector<std::string> src_vars;  // source loop variables, outer first
  std::vector<std::string> row_vars;  // per t_full row: target loop variable
  std::vector<bool> row_nonsingular;
  std::map<std::string, AffineExpr> sub;  // source var -> target affine
  std::vector<std::vector<BoundTerm>> lower, upper;  // per t_full row
  int num_tree_rows = 0;
  /// Non-unimodular N_S (loop scaling): each source iteration variable
  /// is reconstructed by a single-iteration innermost loop whose
  /// ceil/floor bounds encode both the value N_S⁻¹(x - c) and its
  /// integrality (a non-lattice x makes ceil > floor: zero
  /// iterations). Pairs of (fresh variable, bound term).
  std::vector<std::pair<std::string, BoundTerm>> recon_loops;
};

AffineExpr lin_to_affine(const LinExpr& e,
                         const std::vector<std::string>& names) {
  AffineExpr a(e.constant);
  for (size_t i = 0; i < e.coef.size(); ++i)
    if (e.coef[i] != 0) a.add_term(names[i], e.coef[i]);
  return a;
}

LinExpr affine_to_lin(const ConstraintSystem& cs, const AffineExpr& e) {
  LinExpr r = cs.zero_expr();
  r.constant = e.constant();
  for (const auto& [name, coef] : e.terms())
    r.coef[cs.var(name)] = checked_add(r.coef[cs.var(name)], coef);
  return r;
}

std::string fresh_name(std::set<std::string>& taken, const std::string& base) {
  for (int i = 2;; ++i) {
    std::string cand = base + std::to_string(i);
    if (taken.insert(cand).second) return cand;
  }
}

// Canonical key for a set of bound terms, for cross-statement
// comparison.
std::string terms_key(std::vector<BoundTerm> ts) {
  std::vector<std::string> rendered;
  for (const BoundTerm& t : ts)
    rendered.push_back(t.expr.to_string() + "/" + std::to_string(t.den));
  std::sort(rendered.begin(), rendered.end());
  std::string key;
  for (const std::string& s : rendered) key += s + "|";
  return key;
}

void dedup_terms(std::vector<BoundTerm>& ts) {
  std::vector<BoundTerm> out;
  for (BoundTerm& t : ts) {
    bool dup = false;
    for (const BoundTerm& o : out)
      if (o == t) dup = true;
    if (!dup) out.push_back(std::move(t));
  }
  ts = std::move(out);
}

StmtCodegen build_stmt_codegen(const IvLayout& src, const StatementPlan& plan,
                               std::set<std::string>& names_taken) {
  const Program& prog = src.program();
  StmtCodegen cg;
  cg.label = plan.label;
  cg.num_tree_rows = plan.num_tree_rows;

  const IvLayout::StmtInfo& info = src.stmt_info(plan.label);
  cg.k = static_cast<int>(info.loop_positions.size());
  for (int p : info.loop_positions)
    cg.src_vars.push_back(src.positions()[p].loop->var());

  // Row -> target loop variable. Tree rows keep the (cloned) tree loop
  // names, which equal the source names; augmented rows get fresh
  // names derived from the statement's outermost source variable
  // (matching the paper's I2 in §5.5).
  int rows = plan.t_full.rows();
  cg.row_vars.resize(rows);
  cg.row_nonsingular.assign(rows, false);
  for (int r = 0; r < plan.num_tree_rows; ++r) cg.row_vars[r] = cg.src_vars[r];
  for (int r = plan.num_tree_rows; r < rows; ++r)
    cg.row_vars[r] = fresh_name(
        names_taken, cg.src_vars.empty() ? plan.label : cg.src_vars[0]);
  for (int r : plan.nonsingular_rows) cg.row_nonsingular[r] = true;

  if (cg.k == 0) return cg;  // loopless statement: nothing to compute

  // N_S and its inverse. i_j = sum_r n_inv[j][r] * (x_r - c_r); when
  // the inverse is integral this is a direct affine substitution.
  // Otherwise (non-unit loop scaling) each i_j is reconstructed by a
  // fresh single-iteration loop y_j whose tight bounds are
  // ceil/floor((num_j · (x - c)), den_j): y_j equals i_j when den_j
  // divides the numerator, and the loop is empty (ceil > floor) on
  // non-lattice target points — encoding the stride condition exactly.
  IntMat n_s(0, cg.k);
  IntVec c_ns;
  for (int r : plan.nonsingular_rows) {
    n_s.append_row(plan.t_full.row(r));
    c_ns.push_back(plan.offset_full[r]);
  }
  RatMat n_inv_q = inverse(to_rational(n_s));  // throws if singular

  // Per source variable: den_of[j] * i_j == num_of[j](x).
  std::vector<AffineExpr> num_of;
  std::vector<i64> den_of;

  for (int j = 0; j < cg.k; ++j) {
    // Common denominator of row j of N_S⁻¹.
    i64 den = 1;
    for (int r = 0; r < cg.k; ++r) den = lcm(den, n_inv_q(j, r).den());
    AffineExpr num;  // den * i_j as an integer affine expression
    for (int r = 0; r < cg.k; ++r) {
      const Rational& q = n_inv_q(j, r);
      if (q.is_zero()) continue;
      i64 w = checked_mul(q.num(), den / q.den());
      num.add_term(cg.row_vars[plan.nonsingular_rows[r]], w);
      num.add_constant(checked_mul(-w, c_ns[r]));
    }
    if (den == 1) {
      cg.sub.emplace(cg.src_vars[j], num);
    } else {
      std::string y = fresh_name(names_taken, cg.src_vars[j]);
      cg.recon_loops.emplace_back(y, BoundTerm(num, den));
      cg.sub.emplace(cg.src_vars[j], AffineExpr::variable(y));
    }
    num_of.push_back(std::move(num));
    den_of.push_back(den);
  }

  // Constraint system over params + non-singular target variables, in
  // row (outermost-first) order.
  std::vector<std::string> vars;
  for (const std::string& p : prog.params()) vars.push_back(p);
  std::vector<int> x_var_index;  // per ns row: index in cs
  for (int r : plan.nonsingular_rows) {
    x_var_index.push_back(static_cast<int>(vars.size()));
    vars.push_back(cg.row_vars[r]);
  }
  ConstraintSystem cs(vars);

  // Source loop bounds, with loop variables replaced by their target
  // expressions. Replacements are fractions num/den (den > 1 under
  // loop scaling); constraints are cleared to integer form, a rational
  // relaxation whose extra lattice points the reconstruction loops
  // filter out. Simultaneous substitution: source names collide with
  // target loop names, so rename to unique temporaries first.
  auto substituted_frac =
      [&](const AffineExpr& e) -> std::pair<AffineExpr, i64> {
    AffineExpr r = e;
    for (int q = 0; q < cg.k; ++q)
      r = r.renamed(cg.src_vars[q], "$s" + cg.src_vars[q]);
    i64 den = 1;
    for (int q = 0; q < cg.k; ++q)
      if (r.coef("$s" + cg.src_vars[q]) != 0) den = lcm(den, den_of[q]);
    AffineExpr out(checked_mul(r.constant(), den));
    for (const auto& [name, coef] : r.terms()) {
      bool was_src = false;
      for (int q = 0; q < cg.k; ++q) {
        if (name != "$s" + cg.src_vars[q]) continue;
        out = out + num_of[q] * checked_mul(coef, den / den_of[q]);
        was_src = true;
        break;
      }
      if (!was_src) out.add_term(name, checked_mul(coef, den));
    }
    return {out, den};
  };
  const StatementContext sc = prog.find_statement(plan.label);
  for (int j = 0; j < cg.k; ++j) {
    const Node* l = sc.loops[j];
    INLT_CHECK_MSG(l->step() == 1,
                   "codegen requires unit-step source loops");
    for (const BoundTerm& t : l->lower().terms) {
      INLT_CHECK_MSG(t.den == 1, "source bounds must have denominator 1");
      auto [lo_num, lo_den] = substituted_frac(t.expr);
      // i_j >= lo  <=>  num_j * lo_den - lo_num * den_j >= 0
      cs.add_ge(affine_to_lin(cs, num_of[j] * lo_den - lo_num * den_of[j]));
    }
    for (const BoundTerm& t : l->upper().terms) {
      INLT_CHECK_MSG(t.den == 1, "source bounds must have denominator 1");
      auto [hi_num, hi_den] = substituted_frac(t.expr);
      cs.add_ge(affine_to_lin(cs, hi_num * den_of[j] - num_of[j] * hi_den));
    }
  }

  // Bounds for non-singular rows: eliminate inner target variables,
  // then read off the constraints on this row's variable (Lemma 3).
  cg.lower.resize(rows);
  cg.upper.resize(rows);
  int ns_count = static_cast<int>(plan.nonsingular_rows.size());
  for (int t = 0; t < ns_count; ++t) {
    ConstraintSystem work = cs;
    for (int inner = ns_count - 1; inner > t; --inner)
      work = eliminate_var_real(work, x_var_index[inner]);
    if (!normalize_system(work)) {
      Diagnostic d;
      d.stage = Stage::kCodegen;
      d.stmt = plan.label;
      d.message =
          "transformed iteration space of " + plan.label + " is empty";
      throw_diag(std::move(d));
    }
    int xv = x_var_index[t];
    int row = plan.nonsingular_rows[t];
    for (const LinExpr& e : work.inequalities()) {
      i64 a = e.coef[xv];
      if (a == 0) continue;
      LinExpr rest = e;
      rest.coef[xv] = 0;
      AffineExpr rest_a = lin_to_affine(rest, work.var_names());
      if (a > 0)
        cg.lower[row].emplace_back(-rest_a, a);  // x >= -rest/a
      else
        cg.upper[row].emplace_back(rest_a, -a);  // x <= rest/(-a)
    }
    dedup_terms(cg.lower[row]);
    dedup_terms(cg.upper[row]);
    if (cg.lower[row].empty() || cg.upper[row].empty()) {
      Diagnostic d;
      d.stage = Stage::kCodegen;
      d.stmt = plan.label;
      d.loop = cg.row_vars[row];
      d.message = "loop " + cg.row_vars[row] + " of " + plan.label +
                  " is unbounded after transformation";
      throw_diag(std::move(d));
    }
  }

  // Singular rows: x_r = (sum over earlier independent rows)/D, a
  // single guarded iteration (§5.5). An empty combination (zero row)
  // pins the loop to its offset.
  for (int r = 0; r < rows; ++r) {
    if (cg.row_nonsingular[r]) continue;
    std::vector<IntVec> basis;
    std::vector<int> basis_rows;
    for (int q : plan.nonsingular_rows)
      if (q < r) {
        basis.push_back(plan.t_full.row(q));
        basis_rows.push_back(q);
      }
    auto coeffs = express_in_span(plan.t_full.row(r), basis);
    INLT_CHECK_MSG(coeffs.has_value(),
                   "singular row is not spanned by previous rows");
    i64 d = 1;
    for (const Rational& c : *coeffs) d = lcm(d, c.den());
    AffineExpr e;
    Rational const_part(plan.offset_full[r]);
    for (size_t j = 0; j < coeffs->size(); ++j) {
      const Rational& c = (*coeffs)[j];
      if (c.is_zero()) continue;
      i64 w = checked_mul(c.num(), d / c.den());
      e.add_term(cg.row_vars[basis_rows[j]], w);
      const_part -= c * Rational(plan.offset_full[basis_rows[j]]);
    }
    Rational scaled = const_part * Rational(d);
    e.add_constant(scaled.as_integer());
    cg.lower[r] = {BoundTerm(e, d)};
    cg.upper[r] = {BoundTerm(e, d)};
  }
  return cg;
}

// Collect loop variable names and params already used in a program.
std::set<std::string> collect_names(const Program& p) {
  std::set<std::string> names(p.params().begin(), p.params().end());
  walk(p, [&](const Node& n, const std::vector<const Node*>&) {
    if (n.is_loop()) names.insert(n.var());
  });
  return names;
}

}  // namespace

namespace {

// The common back half of code generation: from per-statement plans to
// the final program.
Program build_program(const IvLayout& src, const AstRecovery& rec,
                      const std::vector<StatementPlan>& plans) {
  Program out = *rec.target;  // deep copy we are free to mutate
  std::set<std::string> names = collect_names(out);

  std::map<std::string, StmtCodegen> cgs;
  for (const StatementPlan& plan : plans)
    cgs.emplace(plan.label, build_stmt_codegen(src, plan, names));

  // --- Tree loop bounds: tight when all statements beneath agree,
  // --- cover-union plus per-statement guards otherwise.
  std::set<std::string> guarded;  // "label@row" needing guards
  {
    // Map loop node -> (statement label, row index) pairs.
    std::vector<StatementContext> stmts = out.statements();
    std::function<void(Node&)> fix_loops = [&](Node& n) {
      if (!n.is_loop()) return;
      std::vector<std::pair<std::string, int>> users;
      for (const StatementContext& sc : stmts)
        for (size_t d = 0; d < sc.loops.size(); ++d)
          if (sc.loops[d] == &n)
            users.emplace_back(sc.label(), static_cast<int>(d));
      INLT_CHECK(!users.empty());
      bool agree = true;
      const StmtCodegen& first = cgs.at(users[0].first);
      std::string lo_key = terms_key(first.lower[users[0].second]);
      std::string hi_key = terms_key(first.upper[users[0].second]);
      for (const auto& [label, row] : users) {
        const StmtCodegen& cg = cgs.at(label);
        if (terms_key(cg.lower[row]) != lo_key ||
            terms_key(cg.upper[row]) != hi_key)
          agree = false;
      }
      if (agree) {
        n.set_bounds(Bound(first.lower[users[0].second]),
                     Bound(first.upper[users[0].second]));
      } else {
        std::vector<BoundTerm> lo, hi;
        for (const auto& [label, row] : users) {
          const StmtCodegen& cg = cgs.at(label);
          lo.insert(lo.end(), cg.lower[row].begin(), cg.lower[row].end());
          hi.insert(hi.end(), cg.upper[row].begin(), cg.upper[row].end());
          guarded.insert(label + "@" + std::to_string(row));
        }
        dedup_terms(lo);
        dedup_terms(hi);
        n.set_bounds(Bound(std::move(lo), Bound::Mode::kCover),
                     Bound(std::move(hi), Bound::Mode::kCover));
      }
      for (NodePtr& c : n.mutable_children()) fix_loops(*c);
    };
    for (NodePtr& r : out.mutable_roots()) fix_loops(*r);
  }

  // --- Per statement: rewrite the body, attach guards, and wrap with
  // --- augmented loops.
  std::function<void(NodePtr&)> rewrite = [&](NodePtr& node) {
    if (node->is_loop()) {
      for (NodePtr& c : node->mutable_children()) rewrite(c);
      return;
    }
    Statement& st = node->mutable_stmt_data();
    const StmtCodegen& cg = cgs.at(st.label);

    // Simultaneous substitution via unique temporaries: source loop
    // variable names collide with target loop names.
    for (const std::string& v : cg.src_vars) {
      for (AffineExpr& e : st.lhs_subscripts) e = e.renamed(v, "$s" + v);
      if (st.rhs) st.rhs->rename_var(v, "$s" + v);
    }
    for (const std::string& v : cg.src_vars) {
      const AffineExpr& repl = cg.sub.at(v);
      for (AffineExpr& e : st.lhs_subscripts)
        e = e.substitute("$s" + v, repl);
      if (st.rhs) st.rhs->substitute_var("$s" + v, repl);
    }

    // Reconstruction loops (loop scaling) sit innermost: one guarded
    // iteration recovering each source variable from the scaled target
    // coordinates.
    NodePtr wrapped = std::move(node);
    for (int r = static_cast<int>(cg.recon_loops.size()) - 1; r >= 0; --r) {
      const auto& [var, term] = cg.recon_loops[r];
      NodePtr loop =
          Node::loop(var, Bound(std::vector<BoundTerm>{term}),
                     Bound(std::vector<BoundTerm>{term}));
      loop->add_child(std::move(wrapped));
      wrapped = std::move(loop);
    }

    // Augmented loops wrap the result, outermost augmentation row
    // first.
    for (int r = static_cast<int>(cg.row_vars.size()) - 1;
         r >= cg.num_tree_rows; --r) {
      NodePtr loop = Node::loop(cg.row_vars[r], Bound(cg.lower[r]),
                                Bound(cg.upper[r]));
      loop->add_child(std::move(wrapped));
      wrapped = std::move(loop);
    }

    // Guards for shared tree loops whose emitted bounds are the cover
    // union: re-impose this statement's own constraints. Attached to
    // the outermost wrapper (the augmented loop chain if present, else
    // the leaf), i.e. checked once per enclosing-loop iteration.
    for (int r = 0; r < cg.num_tree_rows; ++r) {
      if (!guarded.count(cg.label + "@" + std::to_string(r))) continue;
      AffineExpr x = AffineExpr::variable(cg.row_vars[r]);
      for (const BoundTerm& t : cg.lower[r]) {
        Guard g;
        g.kind = Guard::Kind::kGeZero;
        g.expr = x * t.den - t.expr;  // den*x - e >= 0  <=>  x >= e/den
        wrapped->add_guard(std::move(g));
      }
      for (const BoundTerm& t : cg.upper[r]) {
        Guard g;
        g.kind = Guard::Kind::kGeZero;
        g.expr = t.expr - x * t.den;
        wrapped->add_guard(std::move(g));
      }
    }
    node = std::move(wrapped);
  };
  for (NodePtr& r : out.mutable_roots()) rewrite(r);

  out.validate();
  return out;
}

}  // namespace

CodegenResult generate_code(const IvLayout& src, const DependenceSet& deps,
                            const IntMat& m, PadMode pad) {
  ScopedSpan span("codegen.generate", "codegen");
  AstRecovery rec = [&] {
    ScopedSpan phase("codegen.recover_ast", "codegen");
    return recover_ast(src, m);
  }();
  LegalityResult legality = [&] {
    ScopedSpan phase("codegen.legality", "codegen");
    return check_legality(src, deps, m, rec);
  }();
  if (!legality.legal()) {
    std::ostringstream os;
    os << "transformation is illegal:";
    for (const std::string& v : legality.violations) os << "\n  " << v;
    throw DiagnosedTransformError(os.str(), legality.diagnostics);
  }
  std::vector<StatementPlan> plans = [&] {
    ScopedSpan phase("codegen.plan", "codegen");
    return plan_statements(src, deps, m, rec, legality, pad);
  }();
  ScopedSpan phase("codegen.build", "codegen");
  Program out = build_program(src, rec, plans);
  return {std::move(out), std::move(legality), std::move(plans)};
}

ExactCodegenResult generate_code_exact(const IvLayout& src, const IntMat& m,
                                       PadMode pad) {
  ScopedSpan span("codegen.generate_exact", "codegen");
  AstRecovery rec = [&] {
    ScopedSpan phase("codegen.recover_ast", "codegen");
    return recover_ast(src, m);
  }();
  ExactLegalityResult legality = [&] {
    ScopedSpan phase("codegen.legality", "codegen");
    return check_legality_exact(src, m, rec, pad);
  }();
  if (!legality.legal()) {
    std::ostringstream os;
    os << "transformation is illegal (exact test):";
    for (const std::string& v : legality.violations) os << "\n  " << v;
    throw DiagnosedTransformError(os.str(), legality.diagnostics);
  }
  std::vector<StatementPlan> plans = [&] {
    ScopedSpan phase("codegen.plan", "codegen");
    return plan_statements_from_self(src, m, rec, legality.unsatisfied_self,
                                     pad);
  }();
  ScopedSpan phase("codegen.build", "codegen");
  Program out = build_program(src, rec, plans);
  return {std::move(out), std::move(legality), std::move(plans)};
}

}  // namespace inlt
