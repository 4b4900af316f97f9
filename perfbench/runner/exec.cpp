#include "exec.hpp"

#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#include "exec/native.hpp"
#include "exec/parallel.hpp"
#include "exec/vm.hpp"
#include "ir/parser.hpp"
#include "search.hpp"
#include "tile/rewrite.hpp"
#include "transform/legality.hpp"
#include "transform/parallel.hpp"
#include "transform/transforms.hpp"

namespace pb {

using namespace inlt;

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::kVm:
      return "vm";
    case Engine::kNative:
      return "native";
    case Engine::kPar:
      return "par2";
  }
  return "?";
}

namespace {

// The winner of one nest: the best-ranked candidate that generates
// code, tiled where the plan applies — what full-mode search with
// --top 3 --tile reports first.
ExecProgram winner_of(const CorpusEntry& e, int source) {
  SessionOptions so;
  so.threads = 1;
  TransformSession s = TransformSession::from_source(e.text, so);
  SearchOptions opt;
  opt.mode = SearchMode::kLegalityOnly;
  opt.cost = true;
  opt.top_k = 3;
  SearchResult r =
      s.search(full_space(s.layout().all_loop_positions().size()), opt);
  for (const SearchHit& h : r.hits) {
    CandidateResult c = s.evaluate(h.matrix);
    if (!c.legal || !c.program) continue;
    AstRecovery rec = recover_ast(s.layout(), h.matrix);
    std::vector<std::string> partition =
        analyze_target_parallelism(s.layout(), s.dependences(), h.matrix, rec)
            .partition;
    TiledProgram tp = apply_tile(*c.program, TileOptions{});
    if (tp.program) {
      partition =
          tiled_partition(partition, tp.plan.spec, tp.plan.tile_vars);
      return {e.name + "/win", source, std::move(*tp.program), partition};
    }
    return {e.name + "/win", source, std::move(*c.program), partition};
  }
  throw std::runtime_error(e.name + ": no ranked candidate generates code");
}

}  // namespace

std::vector<ExecProgram> make_exec_programs(
    const std::vector<CorpusEntry>& corpus) {
  std::vector<ExecProgram> out;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const CorpusEntry& e = corpus[i];
    Program p = parse_program(e.text);
    IvLayout layout(p);
    std::vector<std::string> partition =
        source_parallel_schedule(layout, analyze_dependences(layout))
            .partition;
    out.push_back({e.name + "/src", static_cast<int>(i), p, partition});
    out.push_back(winner_of(e, static_cast<int>(i)));
  }
  return out;
}

ExecProgram make_wrong_program(const std::vector<CorpusEntry>& corpus, i64 n,
                               i64 t, unsigned fill_seed) {
  for (size_t i = 0; i < corpus.size(); ++i) {
    Program p = parse_program(corpus[i].text);
    IvLayout layout(p);
    DependenceSet deps = analyze_dependences(layout);
    const std::vector<int> loops = layout.all_loop_positions();
    for (size_t a = 0; a < loops.size(); ++a) {
      for (size_t b = a + 1; b < loops.size(); ++b) {
        try {
          IntMat m = loop_interchange(layout, layout.positions()[loops[a]].name,
                                      layout.positions()[loops[b]].name);
          if (check_legality(layout, deps, m).legal()) continue;
          Program wrong = generate_code(layout, DependenceSet{}, m).program;
          const auto params = bind_params(p, n, t);
          ExecReference ref = exec_reference(p, params, fill_seed);
          ExecProgram ep{corpus[i].name + "/wrong", static_cast<int>(i),
                         std::move(wrong), {}};
          if (!check_exec(run_exec(ep, Engine::kVm, params, fill_seed, 1), ref)
                   .empty())
            return ep;
        } catch (const Error&) {
          // Not block-structured, or codegen cannot force it: next pair.
        }
      }
    }
  }
  throw std::runtime_error("no illegal interchange gives a wrong result");
}

std::vector<ExecItem> make_exec_items(const std::vector<ExecProgram>& progs,
                                      bool partitioned) {
  std::vector<ExecItem> out;
  for (size_t i = 0; i < progs.size(); ++i) {
    std::vector<Engine> engines{Engine::kVm, Engine::kNative};
    if (partitioned && !progs[i].partition.empty())
      engines.push_back(Engine::kPar);
    for (Engine e : engines)
      out.push_back({progs[i].name + "/" + engine_name(e),
                     static_cast<int>(i), e});
  }
  return out;
}

ExecReference exec_reference(const Program& source,
                             const std::map<std::string, i64>& params,
                             unsigned fill_seed) {
  ExecReference r;
  declare_arrays(source, params, r.mem);
  fill_spd(r.mem, fill_seed);
  InterpOptions o;
  o.engine = ExecEngine::kAstWalker;
  r.instances = interpret(source, params, r.mem, o).instances;
  return r;
}

ExecOutcome run_exec(const ExecProgram& ep, Engine e,
                     const std::map<std::string, i64>& params,
                     unsigned fill_seed, int threads) {
  ExecOutcome o;
  try {
    {
      Span s(Layer::kDeclare);
      declare_arrays(ep.program, params, o.mem);
    }
    {
      Span s(Layer::kFill);
      fill_spd(o.mem, fill_seed);
    }
    switch (e) {
      case Engine::kVm: {
        std::optional<VmProgram> vm;
        {
          Span s(Layer::kVmCompile);
          vm.emplace(ep.program, params, o.mem);
        }
        Span s(Layer::kVmRun);
        o.stats = vm->run();
        break;
      }
      case Engine::kNative: {
        std::shared_ptr<NativeKernel> k;
        Diagnostic why;
        {
          Span s(Layer::kNativePrepare);
          k = native_prepare(ep.program, &why);
        }
        if (!k) {
          // Never fall back: VM time must not pass for native time.
          o.fallback = true;
          o.error = "native_prepare returned null: " + why.message;
          break;
        }
        Span s(Layer::kNativeRun);
        o.stats = native_run(*k, params, o.mem, InterpOptions{});
        break;
      }
      case Engine::kPar: {
        Span s(Layer::kParRun);
        o.stats = run_partitioned(ep.program, params, o.mem, ep.partition,
                                  threads);
        break;
      }
    }
  } catch (const std::exception& ex) {
    o.error = ex.what();
  }
  return o;
}

std::string check_exec(const ExecOutcome& got, const ExecReference& ref) {
  if (!got.error.empty()) return got.error;
  if (got.stats.instances != ref.instances)
    return "instances " + std::to_string(got.stats.instances) +
           " != reference " + std::to_string(ref.instances);
  const auto& a = got.mem.arrays();
  const auto& b = ref.mem.arrays();
  if (a.size() != b.size()) return "array set differs from the reference";
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    const DenseArray& x = ia->second;
    const DenseArray& y = ib->second;
    bool same = ia->first == ib->first && x.rank() == y.rank();
    for (int d = 0; same && d < x.rank(); ++d)
      same = x.lo(d) == y.lo(d) && x.hi(d) == y.hi(d);
    if (!same) return "array " + ia->first + " differs in shape";
    if (std::memcmp(x.data().data(), y.data().data(),
                    x.data().size() * sizeof(double)) != 0)
      return "array " + ia->first + " differs from the reference";
  }
  return "";
}

}  // namespace pb
