// Bytecode execution engine for inlt programs.
//
// The AST walker in interp.cpp re-walks every ScalarExpr, re-evaluates
// every affine subscript through std::map environments and resolves
// every array by name on every access — fine for unit tests, dominant
// for full-mode search once legality itself is fast. VmProgram compiles
// a (Program, parameter binding, Memory) triple once:
//
//  * affine subscripts are lowered to a flat base offset plus one
//    stride per enclosing loop; the running offset of each access is a
//    register that is initialized when its owning loop is entered and
//    *incremented* on every loop advance — no per-access subscript
//    evaluation at all on the hot path;
//  * arrays are resolved once to raw double* with row-major strides;
//    for unguarded statements the per-dimension bounds checks are
//    hoisted to the owning loop's entry (both range endpoints of every
//    affine subscript are checked once per entry — exact, because an
//    affine function of the loop variable is monotonic), guarded
//    statements keep exact per-access checks so wrong transformations
//    still fail loudly;
//  * statement bodies become linear register bytecode; the
//    uninterpreted-function hash (exec/ufhash.hpp) is inlined;
//  * control flow is a flat instruction array driven by a program
//    counter — no recursion, loop state lives in per-loop slots.
//
// Results are bit-identical to the AST walker (the differential suite
// in tests/exec/test_vm.cpp enforces this), including InterpStats.
// All compile-time constant folding (parameter substitution, stride
// multiplication, advance deltas) uses checked_int arithmetic, so
// absurd parameter values fail with OverflowError instead of wrapping.
//
// probe_ranges() is the same machinery in "probe" mode: it sizes
// arrays for declare_arrays without touching memory. A loop whose
// subtree has no guards and whose descendant loops all have
// single-term, denominator-1 bounds and step 1 (its own bounds and
// step are free) is visited only at its vertex iterations: its first
// and last values and, below each, every descendant's two endpoints.
// Affine subscripts take their extremes there, provided no descendant
// range is empty anywhere, which checking at the vertices decides
// (hi - lo is affine). If one is empty, that loop iterates normally
// and its inner levels may still collapse. declare_arrays drops from
// the full iteration count to a few points per collapsed entry; the
// result equals full iteration exactly (tests/exec/test_probe.cpp).
#pragma once

#include <atomic>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/interp.hpp"

namespace inlt {

class ExecBarrier;    // exec/parallel.hpp
class HistogramCell;  // support/stats.hpp
struct WorkerProfile;  // support/profile.hpp

class VmProgram {
 public:
  /// Compile `p` for the given parameter binding and bind array
  /// references to the (pre-declared) arrays of `mem`. Throws on
  /// unbound variables, undeclared arrays, inconsistent array ranks,
  /// or compile-time arithmetic overflow.
  VmProgram(const Program& p, const std::map<std::string, i64>& params,
            Memory& mem);

  /// Execute. Only `max_instances` is consulted from `opts` — callers
  /// with an observer must use the AST walker (interpret() dispatches
  /// automatically).
  InterpStats run(const InterpOptions& opts = {});

  /// Re-point array references at another Memory with identical
  /// shapes (e.g. a fresh copy of the same prototype); everything
  /// compiled stays valid.
  void rebind(Memory& mem);

  /// Mark the loops whose variables appear in `vars` for chunked
  /// partitioning by run_worker. A mark nested inside another mark is
  /// dropped — only the outermost parallel level on any path splits.
  /// Returns the number of loops left marked. Marks survive copying,
  /// so per-worker clones of a marked prototype agree on the schedule.
  int mark_partition(const std::vector<std::string>& vars);

  /// SPMD worker body for partitioned execution (driven by
  /// run_partitioned in exec/parallel.hpp; `this` must be worker `w`'s
  /// private clone of a marked prototype, all clones bound to the same
  /// Memory). Every worker executes the full control flow so loop
  /// environments stay consistent, but:
  ///
  ///  * a marked loop's iteration range is block-split: worker w runs
  ///    the contiguous chunk [count*w/n, count*(w+1)/n) of each
  ///    activation, with a barrier on entry (preceding serial writes
  ///    must be visible) and on exit (following reads must wait);
  ///    zero-trip activations are skipped by every worker without
  ///    barriers (bounds only involve enclosing-loop variables, so all
  ///    workers agree);
  ///  * outside any chunk, statements execute on worker 0 only, and
  ///    workers != 0 skip whole subtrees that contain no marked loop;
  ///  * stats are counted iff the executing worker owns the work
  ///    (inside its chunk, or worker 0 elsewhere), so the sum over
  ///    workers equals the serial run's InterpStats exactly.
  ///
  /// A marked loop must be doall: chunks write disjoint locations, so
  /// the final Memory is bit-identical to the serial run at any worker
  /// count. The caller must abort the barrier if any worker throws.
  InterpStats run_worker(int worker, int nworkers, ExecBarrier& barrier,
                         const InterpOptions& opts);

  /// Instrumentation sinks for run_worker, installed per clone by the
  /// parallel driver (exec/parallel.cpp) when the execution profiler
  /// or tracer is active. All pointers null by default; a null `prof`
  /// plus a disabled tracer keeps the worker's per-chunk cost at one
  /// plain pointer test and one relaxed atomic load — no clock reads.
  struct WorkerInstr {
    WorkerProfile* prof = nullptr;    ///< this worker's profile sink
    HistogramCell* chunk_ns = nullptr;  ///< exec.par.chunk_ns
    HistogramCell* wait_ns = nullptr;   ///< exec.par.barrier_wait_ns
    /// Shared live counters for Chrome-trace counter tracks; workers
    /// emit a 'C' sample on every transition when tracing is enabled.
    std::atomic<int>* active_workers = nullptr;
    std::atomic<i64>* chunks_done = nullptr;
  };
  void set_instrumentation(const WorkerInstr& wi) { instr_ = wi; }

  /// The loops mark_partition() left marked, in nest (code) order:
  /// (internal loop id, loop variable). The driver uses this to map
  /// per-worker level tallies onto named report levels.
  std::vector<std::pair<int, std::string>> marked_loops() const;

  // -- introspection (tests, benchmarks) --
  /// Accesses whose bounds checks were hoisted to loop entry.
  i64 hoisted_accesses() const { return hoisted_accesses_; }
  /// Accesses that kept exact per-execution checks.
  i64 checked_accesses() const { return checked_accesses_; }

  /// Per-array subscript extremes over the program's execution, the
  /// sizing information declare_arrays needs. Pure: touches no Memory.
  struct Range {
    std::vector<i64> lo, hi;
  };
  static std::map<std::string, Range> probe_ranges(
      const Program& p, const std::map<std::string, i64>& params);

 private:
  friend class VmCompiler;  // compile.cpp builds the tables below

  // Compiled affine expression over loop slots; parameter terms are
  // folded into the constant at compile time.
  struct LinExpr {
    i64 constant = 0;
    std::vector<std::pair<int, i64>> terms;  // (env slot, coefficient)
  };

  struct CBoundTerm {
    LinExpr expr;
    i64 den = 1;
  };
  struct CBound {
    std::vector<CBoundTerm> terms;
    bool tight = true;
  };

  struct CGuard {
    Guard::Kind kind = Guard::Kind::kEqZero;
    LinExpr expr;
    i64 modulus = 1;
  };
  struct GuardSet {
    int begin = 0, end = 0;  // into guards_
  };

  struct ArrayInfo {
    std::string name;
    int rank = 0;
    // Bound at resolve time (exec mode only):
    double* data = nullptr;
    std::vector<i64> lo, hi, strides;
  };

  // One subscript dimension of one access, kept for bounds checks and
  // probe mode.
  struct AccessDim {
    LinExpr expr;
  };

  struct Access {
    int array = -1;
    int first_dim = 0, ndims = 0;  // into dims_
    // Exec mode: flat offset expression (array strides and origins
    // folded in); the access's running offset lives in offs_[reg].
    LinExpr offset;
    int reg = -1;
    // Fast accesses: offs_[reg] += step_delta on owner-loop advance.
    i64 step_delta = 0;
  };

  struct StmtInfo {
    int first_access = 0, naccesses = 0;  // accesses_; [0] is the write
    int scalar_begin = 0, scalar_end = 0;  // into scode_
    int result_reg = -1;                   // -1: statement has no rhs
    // Fast statements (unguarded, directly inside a loop) rely on
    // loop-entry offset initialization, advance deltas and hoisted
    // checks; slow statements recompute and check every access.
    bool fast = false;
  };

  struct EntryInit {
    int access = 0;  // offs_[access.reg] = eval(access.offset)
  };
  struct EntryCheck {
    int access = 0;
    int dim = 0;     // which dimension of the access
    i64 coef = 0;    // subscript coefficient of the owning loop's var
  };
  struct Advance {
    int reg = 0;
    i64 delta = 0;
  };

  struct LoopInfo {
    int slot = 0;
    std::string var;  ///< loop variable (partition marks match on it)
    i64 step = 1;
    CBound lower, upper;
    int init_begin = 0, init_end = 0;    // into inits_
    int check_begin = 0, check_end = 0;  // into checks_
    int adv_begin = 0, adv_end = 0;      // into advances_
    // Probe mode: the subtree has no guards and every descendant loop
    // has single-term, denominator-1 bounds and step 1, so run_probe
    // may visit only the subtree's vertex iterations (vm.cpp).
    bool probe_vertex = false;
  };

  enum class COp : unsigned char {
    kGuards,     // arg: guard set; jump: target on failure
    kLoopEnter,  // arg: loop; jump: loop exit (past kLoopNext)
    kLoopNext,   // arg: loop; jump: body start
    kStmt,       // arg: statement
    kHalt,
  };
  struct CInst {
    COp op = COp::kHalt;
    int arg = 0;
    int jump = 0;
  };

  enum class SOp : unsigned char {
    kConst,   // dst <- imm
    kVar,     // dst <- double(env[payload])
    kAffine,  // dst <- double(eval(lins_[payload]))
    kLoad,    // dst <- array data at accesses_[payload]'s offset
    kAdd, kSub, kMul, kDiv,  // dst <- a op b
    kNeg, kSqrt,             // dst <- op a
    kFunc,    // dst <- uf hash of func_sites_[payload] over arg regs
  };
  struct SInst {
    SOp op = SOp::kConst;
    int dst = 0, a = 0, b = 0;
    double imm = 0.0;
    i64 payload = 0;
  };
  struct FuncSite {
    std::uint64_t name_hash = 0;
    int args_begin = 0, args_end = 0;  // into func_args_ (register ids)
  };

  VmProgram() = default;

  /// The dispatch loop of run(), compiled twice: kProfile adds clock
  /// reads around every instruction and buckets them into the Stats
  /// per-opcode / per-depth histograms; the !kProfile instantiation is
  /// the unchanged hot path.
  template <bool kProfile>
  InterpStats run_impl(const InterpOptions& opts);

  i64 eval(const LinExpr& e) const;  // checked
  i64 eval_lower(const CBound& b) const;
  i64 eval_upper(const CBound& b) const;
  bool guards_hold(const GuardSet& g) const;
  void enter_loop(const LoopInfo& loop, i64 lo, i64 hi);
  void exec_stmt(const StmtInfo& s, InterpStats& st, i64 max_instances);
  void probe_lines(const StmtInfo& s);
  void slow_access_offsets(const StmtInfo& s);
  [[noreturn]] void bounds_fail(const Access& a, int dim, i64 idx) const;

  // -- compiled tables --
  std::vector<CInst> code_;
  std::vector<LoopInfo> loops_;
  std::vector<StmtInfo> stmts_;
  std::vector<GuardSet> guard_sets_;
  std::vector<CGuard> guards_;
  std::vector<ArrayInfo> arrays_;
  std::vector<Access> accesses_;
  std::vector<AccessDim> dims_;
  std::vector<EntryInit> inits_;
  std::vector<EntryCheck> checks_;
  std::vector<Advance> advances_;
  std::vector<SInst> scode_;
  std::vector<LinExpr> lins_;      // kAffine payloads
  std::vector<FuncSite> func_sites_;
  std::vector<int> func_args_;
  int num_slots_ = 0;
  int max_sregs_ = 0;
  i64 hoisted_accesses_ = 0;
  i64 checked_accesses_ = 0;

  // Partition marks (mark_partition): per loop, whether it is chunked
  // by run_worker, and whether its subtree contains a marked loop
  // (marked loops count as containing themselves).
  std::vector<std::uint8_t> marked_;
  std::vector<std::uint8_t> reach_marked_;

  // -- runtime state --
  // Cache-line probe for the current run (null = disabled); shift is
  // log2(line_elems), precomputed when the probe is installed.
  CacheProbe* probe_ = nullptr;
  int probe_shift_ = 0;
  // Worker instrumentation (run_worker only; per-clone, so unshared).
  WorkerInstr instr_;
  i64 chunk_t0_ = 0;        // profile clock at current chunk start
  i64 chunk_trace_t0_ = 0;  // tracer clock at current chunk start
  bool chunk_profiled_ = false;
  bool chunk_traced_ = false;
  std::vector<i64> env_;    // loop variable values, by slot
  std::vector<i64> hi_;     // per active loop: current upper bound
  std::vector<i64> last_;   // per active loop: last executed value
  std::vector<i64> offs_;   // per access: running flat offset
  std::vector<double> sregs_;

  // Probe-mode accumulator, parallel to arrays_.
  struct ProbeState {
    struct ArrayRange {
      std::vector<i64> lo, hi;
      bool init = false;
    };
    std::vector<ArrayRange> ranges;
  };
  void run_probe(ProbeState& ps);
  bool probe_vertices(ProbeState& ps, size_t enter_pc, i64 lo, i64 hi);
  void probe_note(ProbeState& ps, const StmtInfo& s);
};

}  // namespace inlt
