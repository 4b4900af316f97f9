#include "exec/verify.hpp"

#include <sstream>
#include <utility>

#include "support/check.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

namespace inlt {

std::string VerifyResult::to_string() const {
  std::ostringstream os;
  os << (equivalent ? "equivalent" : "NOT equivalent");
  if (!error.empty()) {
    os << " (execution failed: " << error << ")";
    return os.str();
  }
  os << " (max diff " << max_diff << ", instances " << src_instances << " vs "
     << dst_instances << ")";
  return os.str();
}

namespace {

void fill(Memory& mem, FillKind kind, unsigned seed) {
  if (kind == FillKind::kSpd)
    fill_spd(mem, seed);
  else
    randomize(mem, seed);
}

}  // namespace

VerifyResult verify_equivalence(const Program& source,
                                const Program& transformed,
                                const std::map<std::string, i64>& params,
                                FillKind fill_kind, unsigned seed,
                                ExecEngine engine, const ExecPlan& plan) {
  ScopedSpan span("exec.verify", "exec");
  Memory mem;
  declare_arrays(source, params, mem);
  // The transformed program may touch cells the source sizing missed
  // only through a bug; declare_arrays skips already-declared arrays,
  // so running it for the transformed program just catches new arrays.
  declare_arrays(transformed, params, mem);
  fill(mem, fill_kind, seed);
  Memory mem2 = mem;

  InterpOptions opts;
  opts.engine = engine;
  opts.num_threads = plan.threads;
  VerifyResult r;
  opts.partition = plan.source_partition;
  r.src_instances = interpret(source, params, mem, opts).instances;
  opts.partition = plan.target_partition;
  r.dst_instances = interpret(transformed, params, mem2, opts).instances;
  r.max_diff = mem.max_abs_diff(mem2);
  r.equivalent = r.src_instances == r.dst_instances && mem.identical(mem2);
  if (span.active()) {
    span.arg("equivalent", r.equivalent);
    span.arg("instances", r.src_instances);
  }
  return r;
}

VerifyReference::VerifyReference(const Program& source,
                                 const std::map<std::string, i64>& params,
                                 FillKind fill_kind, unsigned seed,
                                 ExecEngine engine, ExecPlan plan)
    : params_(params), engine_(engine), plan_(std::move(plan)) {
  ScopedSpan span("exec.verify_reference", "exec");
  declare_arrays(source, params_, initial_);
  fill(initial_, fill_kind, seed);
  final_ = initial_;
  InterpOptions opts;
  opts.engine = engine_;
  opts.num_threads = plan_.threads;
  opts.partition = plan_.source_partition;
  src_instances_ = interpret(source, params_, final_, opts).instances;
}

VerifyResult VerifyReference::check(const Program& transformed) const {
  return check(transformed, plan_.target_partition);
}

VerifyResult VerifyReference::check(
    const Program& transformed,
    const std::vector<std::string>& partition) const {
  ScopedSpan span("exec.verify.check", "exec");
  VerifyResult r;
  r.src_instances = src_instances_;
  try {
    Memory mem = initial_;
    // A candidate that touches arrays or cells the source never sized
    // would need fresh declarations; any such access makes it
    // non-equivalent anyway, and shows up as an execution error or a
    // shape mismatch below.
    InterpOptions opts;
    opts.engine = engine_;
    opts.num_threads = plan_.threads;
    opts.partition = partition;
    r.dst_instances = interpret(transformed, params_, mem, opts).instances;
    r.max_diff = mem.max_abs_diff(final_);
    r.equivalent =
        r.src_instances == r.dst_instances && mem.identical(final_);
  } catch (const Error& e) {
    r.error = e.what();
    r.equivalent = false;
    Stats::global().add("exec.verify.errors");
  }
  return r;
}

}  // namespace inlt
