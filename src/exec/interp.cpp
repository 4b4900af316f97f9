#include "exec/interp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include <iostream>
#include <mutex>
#include <set>

#include "exec/native.hpp"
#include "exec/parallel.hpp"
#include "exec/ufhash.hpp"
#include "exec/vm.hpp"
#include "support/check.hpp"

namespace inlt {

namespace {

using Env = std::map<std::string, i64>;

// Local aliases for the shared hash primitives (exec/ufhash.hpp);
// the VM inlines the identical definitions.
constexpr auto hash_to_unit = uf_hash_to_unit;
constexpr auto mix = uf_mix;

double eval_scalar(const ScalarExpr& e, const Env& env, const Memory& mem) {
  switch (e.op) {
    case ScalarOp::kConst:
      return e.constant;
    case ScalarOp::kVar: {
      auto it = env.find(e.name);
      INLT_CHECK_MSG(it != env.end(), "unbound variable " + e.name);
      return static_cast<double>(it->second);
    }
    case ScalarOp::kAffine:
      return static_cast<double>(e.subscripts[0].eval(env));
    case ScalarOp::kArrayRef: {
      std::vector<i64> idx;
      idx.reserve(e.subscripts.size());
      for (const AffineExpr& s : e.subscripts) idx.push_back(s.eval(env));
      return mem.at(e.name).get(idx);
    }
    case ScalarOp::kAdd:
      return eval_scalar(*e.args[0], env, mem) +
             eval_scalar(*e.args[1], env, mem);
    case ScalarOp::kSub:
      return eval_scalar(*e.args[0], env, mem) -
             eval_scalar(*e.args[1], env, mem);
    case ScalarOp::kMul:
      return eval_scalar(*e.args[0], env, mem) *
             eval_scalar(*e.args[1], env, mem);
    case ScalarOp::kDiv:
      return eval_scalar(*e.args[0], env, mem) /
             eval_scalar(*e.args[1], env, mem);
    case ScalarOp::kNeg:
      return -eval_scalar(*e.args[0], env, mem);
    case ScalarOp::kSqrt:
      return std::sqrt(eval_scalar(*e.args[0], env, mem));
    case ScalarOp::kFunc: {
      // A pure function of its name and argument values only — NOT of
      // the enclosing loop environment, so transformed programs
      // evaluating the same dynamic instance get the same value.
      std::uint64_t h = std::hash<std::string>{}(e.name);
      for (const auto& a : e.args)
        h = mix(h, uf_double_bits(eval_scalar(*a, env, mem)));
      return hash_to_unit(h);
    }
  }
  throw Error("unreachable scalar op");
}

struct Runner {
  const InterpOptions& opts;
  Memory& mem;
  InterpStats stats;

  void run(const Node& n, Env& env) {
    for (const Guard& g : n.guards()) {
      if (!g.holds(env)) {
        ++stats.guard_failures;
        return;
      }
    }
    if (n.is_stmt()) {
      const Statement& s = n.stmt_data();
      double v = s.rhs ? eval_scalar(*s.rhs, env, mem) : 0.0;
      std::vector<i64> idx;
      idx.reserve(s.lhs_subscripts.size());
      for (const AffineExpr& e : s.lhs_subscripts) idx.push_back(e.eval(env));
      if (opts.observer) {
        std::vector<ArrayAccess> reads;
        if (s.rhs) collect_reads(*s.rhs, reads);
        for (const ArrayAccess& a : reads) {
          AccessEvent ev{s.label, a.array, {}, false};
          for (const AffineExpr& e : a.subscripts)
            ev.index.push_back(e.eval(env));
          opts.observer(ev);
        }
        opts.observer({s.label, s.lhs_array, idx, true});
      }
      mem.at(s.lhs_array).set(idx, v);
      ++stats.instances;
      INLT_CHECK_MSG(stats.instances <= opts.max_instances,
                     "interpreter instance budget exceeded");
      return;
    }
    i64 lo = n.lower().eval_lower(env);
    i64 hi = n.upper().eval_upper(env);
    for (i64 v = lo; v <= hi; v += n.step()) {
      ++stats.loop_iterations;
      env[n.var()] = v;
      for (const NodePtr& c : n.children()) run(*c, env);
      env.erase(n.var());
    }
  }
};

// A native-engine fallback is worth a warning, but not once per
// verification run of a 10^4-candidate search: each distinct reason is
// reported to stderr exactly once per process.
void warn_native_fallback_once(const Diagnostic& d) {
  static std::mutex mu;
  static std::set<std::string> seen;
  std::lock_guard<std::mutex> lock(mu);
  if (seen.insert(d.message).second) std::cerr << d.render() << "\n";
}

// Flat element k of `arr` (row-major order) gets base + the (k+1)-th
// draw of the stream seeded by h0. A rank-0 array is left untouched.
void fill_flat(DenseArray& arr, std::uint64_t h0, double base) {
  if (arr.rank() == 0) return;
  double* data = arr.raw_data();
  const std::size_t size = arr.data().size();
  for (std::size_t k = 0; k < size; ++k)
    data[k] = base + hash_to_unit(mix(h0, k + 1));
}

}  // namespace

InterpStats interpret(const Program& p, const std::map<std::string, i64>& params,
                      Memory& mem, const InterpOptions& opts) {
  // The VM produces no per-access events, so an installed observer
  // forces the reference walker regardless of the requested engine.
  // The cache probe is VM-only (it rides the resolved flat offsets),
  // so the two are mutually exclusive.
  INLT_CHECK_MSG(!(opts.observer && opts.cache_probe),
                 "cache_probe requires the VM engine; observer forces the "
                 "AST walker");
  // The native engine covers the plain serial path; the probe rides
  // the VM's resolved offsets and a parallel partition rides the VM's
  // worker pool, so both divert to the VM below. Preparation failures
  // (no compiler, compile error) warn once and fall back; runtime
  // failures of a prepared kernel (bounds, budget) throw like any
  // other engine's.
  if (opts.engine == ExecEngine::kNative && !opts.observer &&
      !opts.cache_probe && !(opts.num_threads > 1 && !opts.partition.empty())) {
    InterpStats st;
    Diagnostic why;
    if (native_try_run(p, params, mem, opts, &st, &why)) return st;
    warn_native_fallback_once(why);
  }
  if ((opts.engine != ExecEngine::kAstWalker || opts.cache_probe) &&
      !opts.observer) {
    if (opts.num_threads > 1 && !opts.partition.empty() && !opts.cache_probe)
      return run_partitioned(p, params, mem, opts.partition, opts.num_threads,
                             opts);
    VmProgram vm(p, params, mem);
    return vm.run(opts);
  }
  Runner r{opts, mem, {}};
  Env env = params;
  for (const NodePtr& root : p.roots()) r.run(*root, env);
  return r.stats;
}

void declare_arrays(const Program& p, const std::map<std::string, i64>& params,
                    Memory& mem) {
  // Probe subscript extremes with the VM (vm.hpp): overflow-checked
  // and with collapsible sub-nests visited at their vertices only.
  for (auto& [name, r] : VmProgram::probe_ranges(p, params)) {
    if (mem.has(name)) continue;
    mem.declare(name, std::move(r.lo), std::move(r.hi));
  }
}

void randomize(Memory& mem, unsigned seed) {
  for (auto& [name, arr] : mem.arrays())
    fill_flat(arr, mix(seed, std::hash<std::string>{}(name)), 0.0);
}

void fill_spd(Memory& mem, unsigned seed) {
  for (auto& [name, arr] : mem.arrays()) {
    std::uint64_t h0 = mix(seed ^ 0xabcdef, std::hash<std::string>{}(name));
    if (arr.rank() != 2 || arr.lo(0) != arr.lo(1) || arr.hi(0) != arr.hi(1)) {
      fill_flat(arr, h0, 1.0);
      continue;
    }
    // Symmetric, strongly diagonally dominant => positive definite. The
    // draw for (i, j), j <= i, hashes the index values themselves.
    const i64 lo = arr.lo(0), n = arr.hi(0) - lo + 1;
    double* data = arr.raw_data();
    for (i64 i = 0; i < n; ++i)
      for (i64 j = 0; j <= i; ++j) {
        double v = 0.5 * hash_to_unit(
                             mix(h0, mix(static_cast<std::uint64_t>(
                                             lo + i + 1000),
                                         static_cast<std::uint64_t>(
                                             lo + j + 1000))));
        if (i == j) v += static_cast<double>(n) + 1.0;
        data[i * n + j] = v;
        data[j * n + i] = v;
      }
  }
}

}  // namespace inlt
