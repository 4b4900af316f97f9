// The `exec_small` and `exec_large` workloads: one op declares the
// arrays, fills them and runs one program on one engine.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exec/interp.hpp"

namespace pb {

enum class Engine { kVm, kNative, kPar };

const char* engine_name(Engine e);

/// A program the exec workloads run: a corpus source, or the top-1
/// winner of its search (tiled where the plan applied).
struct ExecProgram {
  std::string name;  ///< "<nest>/src" or "<nest>/win"
  int source = 0;    ///< index of the corpus nest (its reference)
  inlt::Program program;
  /// Doall loops for the partitioned VM; empty = no partition found.
  std::vector<std::string> partition;
};

/// One (program, engine) pair.
struct ExecItem {
  std::string name;
  int prog = 0;
  Engine engine = Engine::kVm;
};

/// What the AST walker computes on the source program: the oracle.
struct ExecReference {
  inlt::Memory mem;
  i64 instances = 0;
};

struct ExecOutcome {
  inlt::Memory mem;
  inlt::InterpStats stats;
  bool fallback = false;  ///< native_prepare returned null
  std::string error;      ///< what() when the op threw
};

/// Sources and their search winners, in corpus order (source, winner
/// per nest).
std::vector<ExecProgram> make_exec_programs(
    const std::vector<CorpusEntry>& corpus);

/// An illegal loop interchange of some corpus nest, forced through
/// code generation with an empty dependence set, whose result differs
/// from its source at (n, t). The self-test runs it as a winner to show
/// that a wrong program raises fail_rate. Throws if none is found.
ExecProgram make_wrong_program(const std::vector<CorpusEntry>& corpus, i64 n,
                               i64 t, unsigned fill_seed);

/// VM and native items for every program; with `partitioned`, a
/// partitioned-VM item for every program that has a partition.
std::vector<ExecItem> make_exec_items(const std::vector<ExecProgram>& progs,
                                      bool partitioned);

ExecReference exec_reference(const inlt::Program& source,
                             const std::map<std::string, i64>& params,
                             unsigned fill_seed);

/// declare_arrays + fill_spd + one engine run. Never throws.
ExecOutcome run_exec(const ExecProgram& ep, Engine e,
                     const std::map<std::string, i64>& params,
                     unsigned fill_seed, int threads);

/// "" when every array is bit-identical to the reference and the
/// instance counts agree, else why not.
std::string check_exec(const ExecOutcome& got, const ExecReference& ref);

}  // namespace pb
