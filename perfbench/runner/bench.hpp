// Shared pieces of the inlt benchmark runner: corpus loading,
// parameter binding, timing helpers and the in-memory span log that
// the traced run folds into a per-layer ledger.
//
// The runner links the src/ libraries and calls only their public
// functions. Spans are recorded here, around each call into a layer;
// nothing in src/ is instrumented for the benchmark.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/ast.hpp"

namespace pb {

using inlt::i64;

inline i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One input nest of the corpus (corpus/corpus.txt lists them).
struct CorpusEntry {
  std::string name;      ///< file stem, e.g. "cholesky"
  std::string text;      ///< mini-language source
  std::string property;  ///< the one line saying what this nest adds
};

/// Read corpus.txt in `dir` and every .loop file it names. Throws
/// std::runtime_error on a missing file or a malformed manifest line.
std::vector<CorpusEntry> load_corpus(const std::string& dir);

/// Bind every parameter the program declares: N -> n, T -> t. Any
/// other parameter name is an error, so no nest runs half-bound.
std::map<std::string, i64> bind_params(const inlt::Program& p, i64 n, i64 t);

/// Printed lines of a program (the size of generated code).
i64 printed_lines(const inlt::Program& p);

/// Deterministic generator for op order and fill seeds.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {  // splitmix64
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[next() % i]);
  }

 private:
  std::uint64_t s_;
};

// -- tracing -------------------------------------------------------

/// The layers a traced op is split into. Each is one call (or one
/// tight sequence of calls) into a src/ library's public API.
enum class Layer : int {
  kParse,          // ir: parse_program
  kLayout,         // instance: IvLayout construction
  kDeps,           // dependence: analyze_dependences
  kLegality,       // transform: IncrementalLegality walk
  kComplete,       // transform: recover_ast
  kModel,          // model: estimate_cost
  kCodegen,        // codegen: generate_code + simplify_program
  kTilePlan,       // tile: plan_tile
  kTileApply,      // tile: tile_band
  kVerifyRef,      // exec: VerifyReference construction
  kVerifyCheck,    // exec: VerifyReference::check
  kDeclare,        // exec: declare_arrays
  kFill,           // exec: fill_spd
  kVmCompile,      // exec: VmProgram construction
  kVmRun,          // exec: VmProgram::run
  kNativePrepare,  // exec: native_prepare
  kNativeRun,      // exec: native_run
  kParRun,         // exec: run_partitioned
  kCount
};

constexpr int kLayers = static_cast<int>(Layer::kCount);

/// The per-layer metric name of a layer ("ir.parse_ms", ...).
const char* layer_metric(Layer l);

/// In-memory span log. Off by default; when off a Span costs one
/// branch and reads no clock. Spans are kept in memory (up to a cap;
/// beyond it only the per-layer sums grow) and written as a Chrome
/// trace when the run ends.
class SpanLog {
 public:
  static SpanLog& global();

  void enable(bool on) { on_ = on; }
  bool on() const { return on_; }

  /// Open an op: every span until end_op() is its child.
  void begin_op(const std::string& item);
  /// Close the op; returns its wall time in ns.
  i64 end_op();
  void add(Layer l, i64 t0, i64 t1);

  /// Per-layer ns summed over every closed op, and the ops' wall.
  const std::array<i64, kLayers>& layer_ns() const { return layer_ns_; }
  i64 op_wall_ns() const { return wall_ns_; }
  i64 ops() const { return ops_; }
  /// Discard the sums (the kept spans stay for write_chrome).
  void reset_sums();

  /// Write every kept span as Chrome trace JSON; returns false when
  /// the file cannot be written.
  bool write_chrome(const std::string& path) const;
  i64 dropped() const { return dropped_; }

 private:
  struct Rec {
    int layer;  // -1: the op itself
    int op;
    i64 t0, t1;
  };
  static constexpr size_t kMaxSpans = 200000;

  bool on_ = false;
  int op_ = -1;
  i64 op_t0_ = 0;
  std::vector<std::string> op_items_;
  std::vector<Rec> spans_;
  i64 dropped_ = 0;
  std::array<i64, kLayers> layer_ns_{};
  i64 wall_ns_ = 0;
  i64 ops_ = 0;
};

/// RAII span around one layer call.
class Span {
 public:
  explicit Span(Layer l) : layer_(l) {
    if (SpanLog::global().on()) t0_ = now_ns();
  }
  ~Span() {
    if (t0_ != 0) SpanLog::global().add(layer_, t0_, now_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layer layer_;
  i64 t0_ = 0;
};

}  // namespace pb
