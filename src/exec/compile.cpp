// Program -> VmProgram compiler (see vm.hpp for the design).
//
// All arithmetic that folds parameters, array strides or loop steps
// into compiled constants is overflow-checked: a parameter binding
// large enough to wrap i64 offsets must throw OverflowError at compile
// time, never address memory through a wrapped offset.
#include <algorithm>
#include <utility>

#include "exec/vm.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

namespace inlt {

class VmCompiler {
 public:
  // `mem == nullptr` selects probe mode: no array binding, no scalar
  // code — just loops, guards and subscript expressions.
  VmCompiler(const Program& p, const std::map<std::string, i64>& params,
             Memory* mem, VmProgram& vm)
      : p_(p), params_(params), mem_(mem), vm_(vm) {}

  void compile() {
    for (const NodePtr& root : p_.roots()) compile_node(*root);
    vm_.code_.push_back({VmProgram::COp::kHalt, 0, 0});
    finalize_loop_actions();
    vm_.num_slots_ = next_slot_;
    vm_.env_.assign(static_cast<size_t>(std::max(next_slot_, 1)), 0);
    vm_.hi_.assign(std::max<size_t>(vm_.loops_.size(), 1), 0);
    vm_.last_.assign(std::max<size_t>(vm_.loops_.size(), 1), 0);
    vm_.offs_.assign(std::max<size_t>(vm_.accesses_.size(), 1), 0);
    vm_.sregs_.assign(static_cast<size_t>(std::max(vm_.max_sregs_, 1)), 0.0);
  }

 private:
  using LinExpr = VmProgram::LinExpr;
  using COp = VmProgram::COp;
  using SOp = VmProgram::SOp;

  // -- expression lowering --

  // Merge a term into a LinExpr (slots stay unique).
  static void add_term(LinExpr& e, int slot, i64 coef) {
    if (coef == 0) return;
    for (auto& [s, c] : e.terms) {
      if (s == slot) {
        c = checked_add(c, coef);
        return;
      }
    }
    e.terms.emplace_back(slot, coef);
  }

  int find_slot(const std::string& name) const {
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it)
      if (it->first == name) return it->second;
    return -1;
  }

  LinExpr lin(const AffineExpr& e) const {
    LinExpr r;
    r.constant = e.constant();
    for (const auto& [name, coef] : e.terms()) {
      auto it = params_.find(name);
      if (it != params_.end()) {
        r.constant = checked_add(r.constant, checked_mul(coef, it->second));
        continue;
      }
      int slot = find_slot(name);
      INLT_CHECK_MSG(slot >= 0, "unbound variable in eval: " + name);
      r.terms.emplace_back(slot, coef);
    }
    return r;
  }

  VmProgram::CBound cbound(const Bound& b, bool lower) const {
    INLT_CHECK_MSG(!b.terms.empty(),
                   lower ? "lower bound with no terms" : "upper bound with no terms");
    VmProgram::CBound r;
    r.tight = (b.mode == Bound::Mode::kTight);
    for (const BoundTerm& t : b.terms) r.terms.push_back({lin(t.expr), t.den});
    return r;
  }

  // -- arrays and accesses --

  int array_index(const std::string& name, int rank) {
    auto it = array_ids_.find(name);
    if (it != array_ids_.end()) {
      const VmProgram::ArrayInfo& a = vm_.arrays_[it->second];
      INLT_CHECK_MSG(a.rank == rank,
                     mem_ ? "array rank mismatch"
                          : "array " + name + " used with inconsistent rank");
      return it->second;
    }
    VmProgram::ArrayInfo a;
    a.name = name;
    a.rank = rank;
    // An array missing from `mem` stays unbound (data == nullptr): the
    // walker only resolves arrays at access time, so a program whose
    // accesses all sit in zero-trip loops runs fine — executing an
    // unbound access throws, matching Memory::at.
    if (mem_ && mem_->has(name)) {
      DenseArray& arr = mem_->at(name);
      INLT_CHECK_MSG(arr.rank() == rank, "array rank mismatch");
      a.data = arr.raw_data();
      for (int d = 0; d < rank; ++d) {
        a.lo.push_back(arr.lo(d));
        a.hi.push_back(arr.hi(d));
        a.strides.push_back(arr.stride(d));
      }
    }
    int id = static_cast<int>(vm_.arrays_.size());
    vm_.arrays_.push_back(std::move(a));
    array_ids_.emplace(name, id);
    return id;
  }

  int add_access(const std::string& name, const std::vector<AffineExpr>& subs) {
    int ai = array_index(name, static_cast<int>(subs.size()));
    VmProgram::Access acc;
    acc.array = ai;
    acc.first_dim = static_cast<int>(vm_.dims_.size());
    acc.ndims = static_cast<int>(subs.size());
    const VmProgram::ArrayInfo& arr = vm_.arrays_[ai];
    for (size_t d = 0; d < subs.size(); ++d) {
      LinExpr le = lin(subs[d]);
      if (arr.data != nullptr) {
        // offset += stride_d * (subscript_d - lo_d), folded per term.
        acc.offset.constant = checked_add(
            acc.offset.constant,
            checked_mul(arr.strides[d], checked_sub(le.constant, arr.lo[d])));
        for (const auto& [slot, coef] : le.terms)
          add_term(acc.offset, slot, checked_mul(coef, arr.strides[d]));
      }
      vm_.dims_.push_back({std::move(le)});
    }
    int id = static_cast<int>(vm_.accesses_.size());
    acc.reg = id;
    vm_.accesses_.push_back(std::move(acc));
    return id;
  }

  // -- scalar bytecode --

  void emit_s(SOp op, int dst, int a = 0, int b = 0, double imm = 0.0,
              i64 payload = 0) {
    vm_.scode_.push_back({op, dst, a, b, imm, payload});
  }

  // Compiles `e` into register `base`; scratch registers are base+1...
  int compile_scalar(const ScalarExpr& e, int base) {
    vm_.max_sregs_ = std::max(vm_.max_sregs_, base + 1);
    switch (e.op) {
      case ScalarOp::kConst:
        emit_s(SOp::kConst, base, 0, 0, e.constant);
        break;
      case ScalarOp::kVar: {
        auto it = params_.find(e.name);
        if (it != params_.end()) {
          emit_s(SOp::kConst, base, 0, 0, static_cast<double>(it->second));
          break;
        }
        int slot = find_slot(e.name);
        INLT_CHECK_MSG(slot >= 0, "unbound variable " + e.name);
        emit_s(SOp::kVar, base, 0, 0, 0.0, slot);
        break;
      }
      case ScalarOp::kAffine: {
        vm_.lins_.push_back(lin(e.subscripts[0]));
        emit_s(SOp::kAffine, base, 0, 0, 0.0,
               static_cast<i64>(vm_.lins_.size()) - 1);
        break;
      }
      case ScalarOp::kArrayRef:
        emit_s(SOp::kLoad, base, 0, 0, 0.0, add_access(e.name, e.subscripts));
        break;
      case ScalarOp::kAdd:
      case ScalarOp::kSub:
      case ScalarOp::kMul:
      case ScalarOp::kDiv: {
        compile_scalar(*e.args[0], base);
        compile_scalar(*e.args[1], base + 1);
        SOp op = e.op == ScalarOp::kAdd   ? SOp::kAdd
                 : e.op == ScalarOp::kSub ? SOp::kSub
                 : e.op == ScalarOp::kMul ? SOp::kMul
                                          : SOp::kDiv;
        emit_s(op, base, base, base + 1);
        break;
      }
      case ScalarOp::kNeg:
      case ScalarOp::kSqrt:
        compile_scalar(*e.args[0], base);
        emit_s(e.op == ScalarOp::kNeg ? SOp::kNeg : SOp::kSqrt, base, base);
        break;
      case ScalarOp::kFunc: {
        // Arg i lands in base+i; its scratch (base+i+1...) never
        // clobbers earlier results.
        VmProgram::FuncSite site;
        site.name_hash = std::hash<std::string>{}(e.name);
        site.args_begin = static_cast<int>(vm_.func_args_.size());
        for (size_t i = 0; i < e.args.size(); ++i) {
          compile_scalar(*e.args[i], base + static_cast<int>(i));
          vm_.func_args_.push_back(base + static_cast<int>(i));
        }
        site.args_end = static_cast<int>(vm_.func_args_.size());
        vm_.func_sites_.push_back(site);
        emit_s(SOp::kFunc, base, 0, 0, 0.0,
               static_cast<i64>(vm_.func_sites_.size()) - 1);
        break;
      }
    }
    return base;
  }

  // -- statements and loops --

  void compile_stmt(const Node& n) {
    const Statement& s = n.stmt_data();
    VmProgram::StmtInfo st;
    st.first_access = static_cast<int>(vm_.accesses_.size());
    if (!mem_) {
      // Probe mode: accesses only (write first, matching the walker).
      for (const ArrayAccess& a : s.accesses()) add_access(a.array, a.subscripts);
      st.naccesses = static_cast<int>(vm_.accesses_.size()) - st.first_access;
      vm_.stmts_.push_back(std::move(st));
      emit_c(COp::kStmt, static_cast<int>(vm_.stmts_.size()) - 1);
      return;
    }
    add_access(s.lhs_array, s.lhs_subscripts);
    st.scalar_begin = static_cast<int>(vm_.scode_.size());
    if (s.rhs) st.result_reg = compile_scalar(*s.rhs, 0);
    st.scalar_end = static_cast<int>(vm_.scode_.size());
    st.naccesses = static_cast<int>(vm_.accesses_.size()) - st.first_access;
    bool all_bound = true;
    for (int i = st.first_access; i < st.first_access + st.naccesses; ++i)
      if (vm_.arrays_[vm_.accesses_[i].array].data == nullptr)
        all_bound = false;
    st.fast = all_bound && n.guards().empty() && !loop_stack_.empty();
    if (st.fast) {
      int owner = loop_stack_.back();
      const VmProgram::LoopInfo& L = vm_.loops_[owner];
      for (int i = st.first_access; i < st.first_access + st.naccesses; ++i) {
        VmProgram::Access& a = vm_.accesses_[i];
        loop_inits_[owner].push_back({i});
        i64 ocoef = 0;
        for (const auto& [slot, coef] : a.offset.terms)
          if (slot == L.slot) ocoef = coef;
        a.step_delta = checked_mul(ocoef, L.step);
        if (a.step_delta != 0)
          loop_advances_[owner].push_back({a.reg, a.step_delta});
        for (int d = 0; d < a.ndims; ++d) {
          i64 dcoef = 0;
          for (const auto& [slot, coef] :
               vm_.dims_[a.first_dim + d].expr.terms)
            if (slot == L.slot) dcoef = coef;
          loop_checks_[owner].push_back({i, d, dcoef});
        }
      }
      vm_.hoisted_accesses_ += st.naccesses;
    } else {
      vm_.checked_accesses_ += st.naccesses;
    }
    vm_.stmts_.push_back(std::move(st));
    emit_c(COp::kStmt, static_cast<int>(vm_.stmts_.size()) - 1);
  }

  // A descendant loop the probe's vertex rule can enumerate at its two
  // endpoints: one term per bound, denominator 1, step 1, and a
  // collapsible subtree of its own.
  static bool vertex_descendant(const VmProgram::LoopInfo& D) {
    auto unit = [](const VmProgram::CBound& b) {
      return b.terms.size() == 1 && b.terms[0].den == 1;
    };
    return D.probe_vertex && D.step == 1 && unit(D.lower) && unit(D.upper);
  }

  // Returns the loop's index in loops_.
  int compile_loop(const Node& n) {
    int idx = static_cast<int>(vm_.loops_.size());
    vm_.loops_.emplace_back();
    loop_inits_.emplace_back();
    loop_checks_.emplace_back();
    loop_advances_.emplace_back();
    {
      VmProgram::LoopInfo& L = vm_.loops_[idx];
      L.slot = next_slot_++;
      L.var = n.var();
      L.step = n.step();
      INLT_CHECK_MSG(L.step != 0, "loop step must be nonzero");
      L.lower = cbound(n.lower(), /*lower=*/true);
      L.upper = cbound(n.upper(), /*lower=*/false);
    }
    int enter_pc = emit_c(COp::kLoopEnter, idx);
    scope_.emplace_back(n.var(), vm_.loops_[idx].slot);
    loop_stack_.push_back(idx);
    int body_pc = static_cast<int>(vm_.code_.size());
    bool vertex = true;
    for (const NodePtr& c : n.children()) {
      int child = compile_node(*c);
      if (!c->guards().empty() ||
          (child >= 0 && !vertex_descendant(vm_.loops_[child])))
        vertex = false;
    }
    emit_c(COp::kLoopNext, idx, body_pc);
    vm_.code_[enter_pc].jump = static_cast<int>(vm_.code_.size());
    loop_stack_.pop_back();
    scope_.pop_back();
    vm_.loops_[idx].probe_vertex = vertex;
    return idx;
  }

  // Returns the loop index for a loop node, -1 for a statement.
  int compile_node(const Node& n) {
    int guard_pc = -1;
    if (!n.guards().empty()) {
      VmProgram::GuardSet gs{static_cast<int>(vm_.guards_.size()), 0};
      for (const Guard& g : n.guards())
        vm_.guards_.push_back({g.kind, lin(g.expr), g.modulus});
      gs.end = static_cast<int>(vm_.guards_.size());
      vm_.guard_sets_.push_back(gs);
      guard_pc = emit_c(COp::kGuards,
                        static_cast<int>(vm_.guard_sets_.size()) - 1);
    }
    int loop = -1;
    if (n.is_stmt())
      compile_stmt(n);
    else
      loop = compile_loop(n);
    if (guard_pc >= 0)
      vm_.code_[guard_pc].jump = static_cast<int>(vm_.code_.size());
    return loop;
  }

  int emit_c(COp op, int arg, int jump = 0) {
    vm_.code_.push_back({op, arg, jump});
    return static_cast<int>(vm_.code_.size()) - 1;
  }

  // Per-loop action lists accumulate out of order (statements of one
  // loop body interleave with nested loops); flatten them into the
  // contiguous ranges LoopInfo indexes.
  void finalize_loop_actions() {
    for (size_t i = 0; i < vm_.loops_.size(); ++i) {
      VmProgram::LoopInfo& L = vm_.loops_[i];
      L.init_begin = static_cast<int>(vm_.inits_.size());
      for (const auto& e : loop_inits_[i]) vm_.inits_.push_back(e);
      L.init_end = static_cast<int>(vm_.inits_.size());
      L.check_begin = static_cast<int>(vm_.checks_.size());
      for (const auto& e : loop_checks_[i]) vm_.checks_.push_back(e);
      L.check_end = static_cast<int>(vm_.checks_.size());
      L.adv_begin = static_cast<int>(vm_.advances_.size());
      for (const auto& e : loop_advances_[i]) vm_.advances_.push_back(e);
      L.adv_end = static_cast<int>(vm_.advances_.size());
    }
  }

  const Program& p_;
  const std::map<std::string, i64>& params_;
  Memory* mem_;
  VmProgram& vm_;
  std::vector<std::pair<std::string, int>> scope_;  // (var, slot), inner last
  std::vector<int> loop_stack_;                     // loop ids, inner last
  std::map<std::string, int> array_ids_;
  int next_slot_ = 0;
  std::vector<std::vector<VmProgram::EntryInit>> loop_inits_;
  std::vector<std::vector<VmProgram::EntryCheck>> loop_checks_;
  std::vector<std::vector<VmProgram::Advance>> loop_advances_;
};

VmProgram::VmProgram(const Program& p, const std::map<std::string, i64>& params,
                     Memory& mem) {
  ScopedSpan span("vm.compile", "exec");
  ScopedTimer timer("exec.vm.compile_ns");
  VmCompiler c(p, params, &mem, *this);
  c.compile();
  Stats::global().add("exec.vm.compiles");
  Stats::global().add_sample("exec.vm.code_len",
                             static_cast<i64>(code_.size() + scode_.size()));
}

void VmProgram::rebind(Memory& mem) {
  for (ArrayInfo& a : arrays_) {
    if (a.data == nullptr) continue;  // unbound at compile time stays so
    DenseArray& arr = mem.at(a.name);
    INLT_CHECK_MSG(arr.rank() == a.rank, "rebind: array rank mismatch");
    for (int d = 0; d < a.rank; ++d)
      INLT_CHECK_MSG(arr.lo(d) == a.lo[d] && arr.hi(d) == a.hi[d],
                     "rebind: array shape mismatch for " + a.name);
    a.data = arr.raw_data();
  }
}

std::map<std::string, VmProgram::Range> VmProgram::probe_ranges(
    const Program& p, const std::map<std::string, i64>& params) {
  ScopedSpan span("vm.probe", "exec");
  ScopedTimer timer("exec.vm.probe_ns");
  VmProgram vm;
  VmCompiler c(p, params, nullptr, vm);
  c.compile();
  ProbeState ps;
  ps.ranges.resize(vm.arrays_.size());
  vm.run_probe(ps);
  std::map<std::string, Range> out;
  for (size_t i = 0; i < vm.arrays_.size(); ++i) {
    if (!ps.ranges[i].init) continue;  // never executed
    out.emplace(vm.arrays_[i].name,
                Range{std::move(ps.ranges[i].lo), std::move(ps.ranges[i].hi)});
  }
  return out;
}

}  // namespace inlt
