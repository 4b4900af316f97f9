// VmProgram execution (see vm.hpp for the design; compile.cpp builds
// the tables).
//
// run_worker() is the one execution loop (run() is its one-worker
// case) and the hot path of semantic verification: a flat dispatch loop
// over control instructions with no recursion, no name lookups and no
// per-access subscript evaluation — fast accesses ride incrementally
// maintained flat offsets whose bounds were checked at loop entry.
// Everything still observable (InterpStats, guard semantics, iteration
// order, the uninterpreted-function hash) matches the AST walker bit
// for bit.
#include <algorithm>
#include <cmath>
#include <string>

#include "exec/parallel.hpp"
#include "exec/ufhash.hpp"
#include "exec/vm.hpp"
#include "support/check.hpp"
#include "support/profile.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

namespace inlt {

namespace {

// Value of the final executed iteration of `do v = lo, hi, step`.
i64 last_iteration(i64 lo, i64 hi, i64 step) {
  return checked_add(lo,
                     checked_mul(floor_div(checked_sub(hi, lo), step), step));
}

}  // namespace

i64 VmProgram::eval(const LinExpr& e) const {
  i64 v = e.constant;
  for (const auto& [slot, coef] : e.terms)
    v = checked_add(v, checked_mul(coef, env_[slot]));
  return v;
}

i64 VmProgram::eval_lower(const CBound& b) const {
  bool first = true;
  i64 best = 0;
  for (const CBoundTerm& t : b.terms) {
    i64 v = ceil_div(eval(t.expr), t.den);
    best = first ? v : (b.tight ? std::max(best, v) : std::min(best, v));
    first = false;
  }
  return best;
}

i64 VmProgram::eval_upper(const CBound& b) const {
  bool first = true;
  i64 best = 0;
  for (const CBoundTerm& t : b.terms) {
    i64 v = floor_div(eval(t.expr), t.den);
    best = first ? v : (b.tight ? std::min(best, v) : std::max(best, v));
    first = false;
  }
  return best;
}

bool VmProgram::guards_hold(const GuardSet& g) const {
  for (int i = g.begin; i != g.end; ++i) {
    const CGuard& cg = guards_[i];
    i64 v = eval(cg.expr);
    switch (cg.kind) {
      case Guard::Kind::kEqZero:
        if (v != 0) return false;
        break;
      case Guard::Kind::kGeZero:
        if (v < 0) return false;
        break;
      case Guard::Kind::kDivisible:
        if (floor_mod(v, cg.modulus) != 0) return false;
        break;
    }
  }
  return true;
}

void VmProgram::bounds_fail(const Access& a, int dim, i64 idx) const {
  const ArrayInfo& arr = arrays_[a.array];
  throw Error("array index out of bounds: " + arr.name + " dim " +
              std::to_string(dim) + " index " + std::to_string(idx) +
              " not in [" + std::to_string(arr.lo[dim]) + ", " +
              std::to_string(arr.hi[dim]) + "]");
}

// Initialize offset registers and run the hoisted endpoint bounds
// checks for one entry of `loop` (env already holds v = lo).
void VmProgram::enter_loop(const LoopInfo& loop, i64 lo, i64 hi) {
  for (int i = loop.init_begin; i != loop.init_end; ++i) {
    const Access& a = accesses_[inits_[i].access];
    offs_[a.reg] = eval(a.offset);
  }
  if (loop.check_begin == loop.check_end) return;
  // Every per-dim subscript is affine (monotonic) in the loop
  // variable, so in-range endpoints imply in-range everywhere between.
  i64 span = checked_sub(last_iteration(lo, hi, loop.step), lo);
  for (int i = loop.check_begin; i != loop.check_end; ++i) {
    const EntryCheck& ck = checks_[i];
    const Access& a = accesses_[ck.access];
    const ArrayInfo& arr = arrays_[a.array];
    i64 first = eval(dims_[a.first_dim + ck.dim].expr);
    i64 final = checked_add(first, checked_mul(ck.coef, span));
    i64 mn = std::min(first, final), mx = std::max(first, final);
    if (mn < arr.lo[ck.dim]) bounds_fail(a, ck.dim, mn);
    if (mx > arr.hi[ck.dim]) bounds_fail(a, ck.dim, mx);
  }
}

// Exact, fully checked offsets for one execution of a slow (guarded or
// loop-less) statement.
void VmProgram::slow_access_offsets(const StmtInfo& s) {
  for (int i = s.first_access; i != s.first_access + s.naccesses; ++i) {
    const Access& a = accesses_[i];
    const ArrayInfo& arr = arrays_[a.array];
    INLT_CHECK_MSG(arr.data != nullptr, "undeclared array " + arr.name);
    i64 off = 0;
    for (int d = 0; d < a.ndims; ++d) {
      i64 idx = eval(dims_[a.first_dim + d].expr);
      if (idx < arr.lo[d] || idx > arr.hi[d]) bounds_fail(a, d, idx);
      off = checked_add(off, checked_mul(checked_sub(idx, arr.lo[d]),
                                         arr.strides[d]));
    }
    offs_[a.reg] = off;
  }
}

void VmProgram::exec_stmt(const StmtInfo& s, InterpStats& st,
                          i64 max_instances) {
  if (!s.fast) slow_access_offsets(s);
  double v = 0.0;
  if (s.result_reg >= 0) {
    for (int i = s.scalar_begin; i != s.scalar_end; ++i) {
      const SInst& si = scode_[i];
      switch (si.op) {
        case SOp::kConst:
          sregs_[si.dst] = si.imm;
          break;
        case SOp::kVar:
          sregs_[si.dst] = static_cast<double>(env_[si.payload]);
          break;
        case SOp::kAffine:
          sregs_[si.dst] = static_cast<double>(eval(lins_[si.payload]));
          break;
        case SOp::kLoad: {
          const Access& a = accesses_[si.payload];
          sregs_[si.dst] = arrays_[a.array].data[offs_[a.reg]];
          break;
        }
        case SOp::kAdd:
          sregs_[si.dst] = sregs_[si.a] + sregs_[si.b];
          break;
        case SOp::kSub:
          sregs_[si.dst] = sregs_[si.a] - sregs_[si.b];
          break;
        case SOp::kMul:
          sregs_[si.dst] = sregs_[si.a] * sregs_[si.b];
          break;
        case SOp::kDiv:
          sregs_[si.dst] = sregs_[si.a] / sregs_[si.b];
          break;
        case SOp::kNeg:
          sregs_[si.dst] = -sregs_[si.a];
          break;
        case SOp::kSqrt:
          sregs_[si.dst] = std::sqrt(sregs_[si.a]);
          break;
        case SOp::kFunc: {
          const FuncSite& f = func_sites_[si.payload];
          std::uint64_t h = f.name_hash;
          for (int j = f.args_begin; j != f.args_end; ++j)
            h = uf_mix(h, uf_double_bits(sregs_[func_args_[j]]));
          sregs_[si.dst] = uf_hash_to_unit(h);
          break;
        }
      }
    }
    v = sregs_[s.result_reg];
  }
  const Access& w = accesses_[s.first_access];
  arrays_[w.array].data[offs_[w.reg]] = v;
  ++st.instances;
  INLT_CHECK_MSG(st.instances <= max_instances,
                 "interpreter instance budget exceeded");
  if (probe_) probe_lines(s);
}

// Feed every access of one executed statement instance to the cache
// probe: logical line = (array identity, element offset / line_elems),
// so counts are deterministic and machine-independent.
void VmProgram::probe_lines(const StmtInfo& s) {
  for (int i = s.first_access; i != s.first_access + s.naccesses; ++i) {
    const Access& a = accesses_[i];
    probe_->touch((static_cast<std::uint64_t>(a.array) << 44) |
                  (static_cast<std::uint64_t>(offs_[a.reg]) >> probe_shift_));
  }
}

InterpStats VmProgram::run(const InterpOptions& opts) {
  ScopedSpan span("vm.run", "exec");
  ExecBarrier solo(1);  // one party: a marked loop's barriers pass at once
  InterpStats st = run_worker(0, 1, solo, opts);
  Stats::global().add("exec.vm.runs");
  Stats::global().add("exec.vm.instances", st.instances);
  return st;
}

std::vector<std::string> VmProgram::mark_partition(
    const std::vector<std::string>& vars) {
  std::fill(marked_.begin(), marked_.end(), -1);
  std::fill(reach_marked_.begin(), reach_marked_.end(), 0);
  // Only the outermost marked loop on any nest path splits; a mark
  // under another mark is dropped. reach_marked_ records, per loop,
  // whether its subtree contains a surviving mark (itself included) —
  // the "is there any work for workers != 0 below here" test.
  std::vector<std::string> levels;
  std::vector<int> stack;
  for (const CInst& in : code_) {
    if (in.op == COp::kLoopEnter) {
      bool under = false;
      for (int a : stack)
        if (marked_[a] >= 0) under = true;
      const std::string& var = loops_[in.arg].var;
      if (!under && std::find(vars.begin(), vars.end(), var) != vars.end()) {
        marked_[in.arg] = static_cast<int>(levels.size());
        levels.push_back(var);
        reach_marked_[in.arg] = 1;
        for (int a : stack) reach_marked_[a] = 1;
      }
      stack.push_back(in.arg);
    } else if (in.op == COp::kLoopNext) {
      stack.pop_back();
    }
  }
  return levels;
}

InterpStats VmProgram::run_worker(int worker, int nworkers,
                                  ExecBarrier& barrier,
                                  const InterpOptions& opts) {
  // See the header contract. The cache probe rides the serial run only.
  probe_ = nworkers == 1 ? opts.cache_probe : nullptr;
  if (probe_) {
    INLT_CHECK_MSG(probe_->line_elems > 0 &&
                       (probe_->line_elems & (probe_->line_elems - 1)) == 0,
                   "CacheProbe::line_elems must be a power of two");
    probe_shift_ = 0;
    while ((i64{1} << probe_shift_) < probe_->line_elems) ++probe_shift_;
  }
  InterpStats st;
  const i64 max_instances = opts.max_instances;
  const bool main_worker = worker == 0;
  bool in_chunk = false;  // inside this worker's chunk of a marked loop
  // The open chunk's instrumentation, decided at its entry.
  WorkerProfile* chunk_prof = nullptr;
  bool chunk_traced = false;
  i64 chunk_t0 = 0;  // now_ns() at the chunk's start
  size_t pc = 0;
  for (;;) {
    const CInst& in = code_[pc];
    switch (in.op) {
      case COp::kGuards:
        if (guards_hold(guard_sets_[in.arg])) {
          ++pc;
        } else {
          if (in_chunk || main_worker) ++st.guard_failures;
          pc = static_cast<size_t>(in.jump);
        }
        break;
      case COp::kLoopEnter: {
        const LoopInfo& L = loops_[in.arg];
        const int level = in_chunk ? -1 : marked_[in.arg];
        if (level >= 0) {
          // One activation of a partitioned loop. The whole per-chunk
          // cost of disabled instrumentation is these two gates: a
          // plain pointer test and one relaxed atomic load.
          WorkerProfile* prof = instr_.prof;
          const bool traced = Tracer::enabled();
          // Entry barrier first: serial writes preceding the loop
          // (worker 0) must be visible before any chunk starts
          // reading.
          i64 t0 = prof ? now_ns() : 0;
          barrier.arrive_and_wait();
          if (prof) prof->barrier_wait_ns += now_ns() - t0;
          i64 lo = eval_lower(L.lower);
          i64 hi = eval_upper(L.upper);
          if (lo > hi) {
            // Zero trip: every worker sees the same bounds and skips
            // without the exit barrier.
            pc = static_cast<size_t>(in.jump);
            break;
          }
          i64 count =
              floor_div(checked_sub(hi, lo), L.step) + 1;  // executed iters
          i64 b = count * worker / nworkers;
          i64 e = count * (worker + 1) / nworkers;
          if (prof) ++prof->levels[level].activations;
          if (b >= e) {
            // Empty chunk (more workers than iterations): arrive at
            // the exit barrier immediately and move past the loop.
            i64 t1 = prof ? now_ns() : 0;
            if (prof) ++prof->empty_chunks;
            barrier.arrive_and_wait();
            if (prof) prof->barrier_wait_ns += now_ns() - t1;
            pc = static_cast<size_t>(in.jump);
            break;
          }
          i64 clo = checked_add(lo, checked_mul(b, L.step));
          i64 chi = checked_add(lo, checked_mul(e - 1, L.step));
          env_[L.slot] = clo;
          hi_[in.arg] = chi;
          enter_loop(L, clo, chi);
          ++st.loop_iterations;
          in_chunk = true;
          chunk_prof = prof;
          chunk_traced = traced;
          if (prof || traced) chunk_t0 = now_ns();
          if (traced && instr_.active_workers) {
            int a =
                instr_.active_workers->fetch_add(1, std::memory_order_relaxed) +
                1;
            Tracer::global().counter("active workers", "exec.par", "workers",
                                     a);
          }
          ++pc;
          break;
        }
        if (!in_chunk && !main_worker && !reach_marked_[in.arg]) {
          pc = static_cast<size_t>(in.jump);  // no work below for us
          break;
        }
        i64 lo = eval_lower(L.lower);
        i64 hi = eval_upper(L.upper);
        if (lo > hi) {
          pc = static_cast<size_t>(in.jump);
          break;
        }
        env_[L.slot] = lo;
        hi_[in.arg] = hi;
        enter_loop(L, lo, hi);
        if (in_chunk || main_worker) ++st.loop_iterations;
        ++pc;
        break;
      }
      case COp::kLoopNext: {
        const LoopInfo& L = loops_[in.arg];
        i64 v = checked_add(env_[L.slot], L.step);
        if (v > hi_[in.arg]) {
          if (in_chunk && marked_[in.arg] >= 0) {
            // Chunk complete. Exit barrier: code after the loop may
            // read what other workers' chunks wrote.
            in_chunk = false;
            // One clock read closes the chunk for both the profile
            // and the trace event.
            const i64 t1 = chunk_prof || chunk_traced ? now_ns() : 0;
            if (chunk_prof) {
              i64 dur = t1 - chunk_t0;
              chunk_prof->busy_ns += dur;
              ++chunk_prof->chunks;
              LevelTally& lt = chunk_prof->levels[marked_[in.arg]];
              ++lt.chunks;
              lt.busy_ns += dur;
            }
            if (chunk_traced) {
              Tracer& tr = Tracer::global();
              TraceEvent ev;
              ev.name = "chunk";
              ev.cat = "exec.worker";
              ev.start_ns = tr.since_enable(chunk_t0);
              ev.dur_ns = t1 - chunk_t0;
              ev.args.push_back(TraceArg{"loop", L.var, true});
              ev.args.push_back(
                  TraceArg{"worker", std::to_string(worker), false});
              tr.record(std::move(ev));
              if (instr_.active_workers) {
                int a = instr_.active_workers->fetch_sub(
                            1, std::memory_order_relaxed) -
                        1;
                tr.counter("active workers", "exec.par", "workers", a);
              }
              if (instr_.chunks_done) {
                i64 c = instr_.chunks_done->fetch_add(
                            1, std::memory_order_relaxed) +
                        1;
                tr.counter("chunks done", "exec.par", "chunks", c);
              }
            }
            barrier.arrive_and_wait();
            if (chunk_prof) chunk_prof->barrier_wait_ns += now_ns() - t1;
          }
          ++pc;  // loop done; falls out past the back-edge
          break;
        }
        env_[L.slot] = v;
        if (in_chunk || main_worker) ++st.loop_iterations;
        for (int i = L.adv_begin; i != L.adv_end; ++i)
          offs_[advances_[i].reg] += advances_[i].delta;
        pc = static_cast<size_t>(in.jump);
        break;
      }
      case COp::kStmt:
        if (in_chunk || main_worker)
          exec_stmt(stmts_[in.arg], st, max_instances);
        ++pc;
        break;
      case COp::kHalt:
        return st;
    }
  }
}

void VmProgram::probe_note(ProbeState& ps, const StmtInfo& s) {
  for (int i = s.first_access; i != s.first_access + s.naccesses; ++i) {
    const Access& a = accesses_[i];
    ProbeState::ArrayRange& r = ps.ranges[a.array];
    if (!r.init) {
      r.lo.resize(a.ndims);
      r.hi.resize(a.ndims);
      for (int d = 0; d < a.ndims; ++d)
        r.lo[d] = r.hi[d] = eval(dims_[a.first_dim + d].expr);
      r.init = true;
      continue;
    }
    for (int d = 0; d < a.ndims; ++d) {
      i64 idx = eval(dims_[a.first_dim + d].expr);
      r.lo[d] = std::min(r.lo[d], idx);
      r.hi[d] = std::max(r.hi[d], idx);
    }
  }
}

// The vertex rule (see vm.hpp) for the probe_vertex loop entered at
// code_[enter_pc] with range [lo, hi], lo <= hi: note every statement
// at the loop's first and last iterations and, below each, at every
// descendant's two endpoints. Returns false, for the caller to iterate
// the loop normally, when a descendant range is empty at a vertex.
// What was noted stays valid: every visited point is executed.
bool VmProgram::probe_vertices(ProbeState& ps, size_t enter_pc, i64 lo,
                               i64 hi) {
  const CInst& enter = code_[enter_pc];
  const LoopInfo& L = loops_[enter.arg];
  const i64 last = last_iteration(lo, hi, L.step);
  const size_t body_end = static_cast<size_t>(enter.jump) - 1;  // kLoopNext
  for (i64 v : {lo, last}) {
    env_[L.slot] = v;
    for (size_t pc = enter_pc + 1; pc != body_end;) {
      const CInst& in = code_[pc];
      if (in.op == COp::kStmt) {
        probe_note(ps, stmts_[in.arg]);
        ++pc;
        continue;
      }
      const LoopInfo& D = loops_[in.arg];  // kLoopEnter: no guards here
      i64 dlo = eval_lower(D.lower), dhi = eval_upper(D.upper);
      if (dlo > dhi || !probe_vertices(ps, pc, dlo, dhi)) return false;
      pc = static_cast<size_t>(in.jump);
    }
    if (last == lo) break;
  }
  return true;
}

// The probe interpreter: same control flow as run_worker() but statements
// only record subscript extremes, and a probe_vertex loop visits only
// its vertex iterations (probe_vertices) — array sizing drops from
// the full iteration count to a few points per loop entry.
void VmProgram::run_probe(ProbeState& ps) {
  size_t pc = 0;
  for (;;) {
    const CInst& in = code_[pc];
    switch (in.op) {
      case COp::kGuards:
        pc = guards_hold(guard_sets_[in.arg]) ? pc + 1
                                              : static_cast<size_t>(in.jump);
        break;
      case COp::kLoopEnter: {
        const LoopInfo& L = loops_[in.arg];
        i64 lo = eval_lower(L.lower);
        i64 hi = eval_upper(L.upper);
        if (lo > hi) {
          pc = static_cast<size_t>(in.jump);
          break;
        }
        if (L.probe_vertex && probe_vertices(ps, pc, lo, hi)) {
          pc = static_cast<size_t>(in.jump);
          break;
        }
        env_[L.slot] = lo;
        hi_[in.arg] = hi;
        ++pc;
        break;
      }
      case COp::kLoopNext: {
        const LoopInfo& L = loops_[in.arg];
        i64 v = checked_add(env_[L.slot], L.step);
        if (v > hi_[in.arg]) {
          ++pc;
        } else {
          env_[L.slot] = v;
          pc = static_cast<size_t>(in.jump);
        }
        break;
      }
      case COp::kStmt:
        probe_note(ps, stmts_[in.arg]);
        ++pc;
        break;
      case COp::kHalt:
        return;
    }
  }
}

}  // namespace inlt
