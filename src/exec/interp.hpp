// Interpreter for inlt programs.
//
// Executes a Program against a Memory, giving transformations an
// executable semantics: a transformed program is correct when it
// leaves memory in the same state as the source program on the same
// inputs. Uninterpreted functions (f(), g(), ...) evaluate to a
// deterministic hash of the function name, the evaluated arguments and
// the current loop environment, so they are pure and order-independent
// — exactly what comparing two statement orders requires.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exec/array.hpp"
#include "ir/ast.hpp"
#include "support/cache_geometry.hpp"

namespace inlt {

/// One array access performed by an executed statement instance.
struct AccessEvent {
  std::string stmt;   ///< statement label
  std::string array;
  std::vector<i64> index;
  bool is_write = false;
};

/// Which execution engine interpret() uses. All three produce
/// bit-identical results (memory state, InterpStats, the
/// uninterpreted-function values); the VM is roughly an order of
/// magnitude faster than the walker, and the native engine compiles
/// the program to machine code for another large factor — at the cost
/// of one out-of-process C compile on first sight of a program (cached
/// on disk afterwards; see exec/native.hpp).
enum class ExecEngine {
  kVm,         ///< compile to bytecode and run it (exec/vm.hpp)
  kAstWalker,  ///< recursive tree walk (reference semantics)
  kNative,     ///< lower to C, compile, dlopen and run (exec/native.hpp);
               ///< falls back to the VM (with a Stage::kExec warning on
               ///< stderr) when no C compiler or dlopen is available.
               ///< Serial only: an observer forces the walker, and the
               ///< cache probe or a parallel partition rides the VM.
};

/// Bucketed distinct-cache-line estimator — the VM's ground-truth
/// probe for the static cost model (model/cost.hpp). Every executed
/// array access maps to a deterministic logical line (array identity
/// plus element offset / line_elems; arrays are treated as
/// line-aligned), and lines are tracked in a direct-mapped tag table
/// of 2^bucket_bits entries: a tag change counts one line. With the
/// table generously sized relative to the working set, `lines`
/// approximates the number of distinct lines touched; undersized, it
/// approximates the miss count of a direct-mapped cache of that many
/// lines. Results are machine-independent (no real addresses).
///
/// Geometry defaults come from support/cache_geometry.hpp so the
/// probe, the static cost model and the tile working-set model all
/// measure the same machine.
struct CacheProbe {
  /// Elements per line; must be a power of two.
  i64 line_elems = kCacheLineElems;
  /// log2 of tag-table entries.
  int bucket_bits = kCacheProbeBucketBits;

  // -- results --
  i64 accesses = 0;  ///< array accesses observed
  i64 lines = 0;     ///< estimated distinct lines touched

  /// Record one access to logical line `line_id`. Lazily sizes the
  /// tag table on first use.
  void touch(std::uint64_t line_id) {
    if (tags.empty()) tags.assign(std::size_t{1} << bucket_bits, 0);
    ++accesses;
    const std::uint64_t tag = line_id + 1;  // 0 = empty bucket
    std::uint64_t& slot =
        tags[(line_id * 0x9E3779B97F4A7C15ull) >> (64 - bucket_bits)];
    if (slot != tag) {
      slot = tag;
      ++lines;
    }
  }

  std::vector<std::uint64_t> tags;  ///< direct-mapped line tags
};

struct InterpOptions {
  /// Bound on executed statement instances (runaway guard).
  i64 max_instances = 50'000'000;
  /// Optional access observer (drives the dependence-order oracle in
  /// exec/trace.hpp). Reads are reported before the write. Installing
  /// an observer forces the AST walker: the VM does not materialize
  /// per-access events, and the oracle needs their exact order.
  std::function<void(const AccessEvent&)> observer;
  /// Engine selection; ignored (walker used) when `observer` is set.
  ExecEngine engine = ExecEngine::kVm;
  /// When set, count cache lines touched during execution. VM engine
  /// only (interpret() rejects the combination with an observer);
  /// results accumulate into the pointed-to probe, so one probe can
  /// span several runs.
  CacheProbe* cache_probe = nullptr;
  /// Partitioned parallel execution (exec/parallel.hpp). When
  /// num_threads > 1 and `partition` names at least one loop of the
  /// program, the VM chunks those (doall) loops across a shared
  /// worker pool — bit-identical Memory, summed InterpStats, and the
  /// instance budget enforced per worker. Serial otherwise. VM engine
  /// only: an observer or cache probe forces the serial path.
  int num_threads = 1;
  std::vector<std::string> partition;
  /// Opt-in per-opcode VM profiling: bucket the nanoseconds spent in
  /// each bytecode op (guards, loop enter/advance, statements) and in
  /// statements by loop depth into the Stats log₂ histograms
  /// (`vm.op.*_ns`, `vm.stmt.depth*_ns`). VM engine, serial path only
  /// (the partitioned driver has its own per-worker profiler —
  /// support/profile.hpp). Execution results are unchanged; the
  /// instrumented dispatch loop is compiled separately so the default
  /// path pays nothing.
  bool profile = false;
};

struct InterpStats {
  i64 instances = 0;       ///< statement instances executed
  i64 loop_iterations = 0; ///< loop header iterations executed
  i64 guard_failures = 0;  ///< guard evaluations that suppressed a subtree
};

/// Run the program. `params` binds symbolic parameters; arrays must be
/// pre-declared in `mem` (see declare_arrays below).
InterpStats interpret(const Program& p, const std::map<std::string, i64>& params,
                      Memory& mem, const InterpOptions& opts = {});

/// Declare every array the program touches (arrays already in `mem`
/// are kept), sized to the exact subscript extremes at the given
/// parameter values. The VM probe (VmProgram::probe_ranges) visits
/// only the vertex iterations of guard-free sub-nests whose inner loops
/// have unit single-term bounds, falling back to plain iteration where
/// an inner range is empty; arithmetic is overflow-checked.
void declare_arrays(const Program& p, const std::map<std::string, i64>& params,
                    Memory& mem);

/// Fill every declared array with deterministic pseudo-random values
/// in [0, 1), e.g. as common input for source/target comparison:
/// element k in row-major order gets draw k+1 of a stream seeded by
/// `seed` and the array name. Writes raw_data() directly.
void randomize(Memory& mem, unsigned seed);

/// Fill arrays so matrices are symmetric positive definite when square
/// — diagonally dominant values — letting Cholesky-like codes run
/// without NaNs. A square 2-D array's (i, j) and (j, i) get one draw
/// hashed from the index values; every other shape gets 1 + draw k+1
/// at row-major element k, as randomize() with its own seed stream.
/// Rank-0 arrays are left untouched by both fills.
void fill_spd(Memory& mem, unsigned seed);

}  // namespace inlt
