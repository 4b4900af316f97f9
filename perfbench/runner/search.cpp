#include "search.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>

#include "codegen/simplify.hpp"
#include "ir/parser.hpp"
#include "model/cost.hpp"
#include "tile/rewrite.hpp"
#include "transform/incremental.hpp"
#include "transform/legality.hpp"

namespace pb {

using namespace inlt;

namespace {

// Mode settings shared by the session path, the replay and the
// reference. The cost model sees the codegen pad mode (PadMode's
// default), exactly as TransformSession::search configures it.
constexpr i64 kTopK = 3;

// A legal candidate as ranked by search(): (estimated lines, index),
// unscored candidates after every scored one.
struct Ranked {
  double lines = std::numeric_limits<double>::infinity();
  i64 index = 0;
  bool operator<(const Ranked& o) const {
    return lines != o.lines ? lines < o.lines : index < o.index;
  }
};

std::vector<i64> top_indices(std::vector<Ranked> v) {
  const size_t k = std::min<size_t>(v.size(), kTopK);
  std::partial_sort(v.begin(), v.begin() + static_cast<long>(k), v.end());
  std::vector<i64> out;
  for (size_t i = 0; i < k; ++i) out.push_back(v[i].index);
  return out;
}

}  // namespace

SearchSpace full_space(size_t loops) { return {loops > 4 ? 0 : 1, 1}; }

SearchSpace rank_space(size_t loops) { return {1, loops > 4 ? 1 : 2}; }

std::vector<SearchItem> make_search_items(
    const std::vector<CorpusEntry>& corpus, i64 verify_n, i64 verify_t) {
  std::vector<SearchItem> out;
  for (const CorpusEntry& e : corpus) {
    Program p = parse_program(e.text);
    const size_t loops = IvLayout(p).all_loop_positions().size();
    SearchItem full{e.name + "/full", &e, true, full_space(loops),
                    bind_params(p, verify_n, verify_t)};
    SearchItem rank{e.name + "/rank", &e, false, rank_space(loops), {}};
    out.push_back(std::move(full));
    out.push_back(std::move(rank));
  }
  return out;
}

SearchOutcome run_search(const SearchItem& it, unsigned verify_seed) {
  SearchOutcome o;
  try {
    // One thread: with two, the deferred stages' worker pair made op
    // latency swing 7-13% from run to run on a shared VM host (against
    // 2-4% serial), and the geomean p50 was lower serial anyway.
    SessionOptions so;
    so.threads = 1;
    TransformSession s = TransformSession::from_source(it.src->text, so);
    SearchOptions opt;
    opt.mode = it.full ? SearchMode::kFull : SearchMode::kLegalityOnly;
    opt.cost = true;
    opt.top_k = kTopK;
    if (it.full) {
      opt.tile = true;
      opt.verify_params = it.verify_params;
      opt.verify_seed = verify_seed;
    }
    SearchResult r = s.search(it.space, opt);
    o.legal = r.stats.legal;
    o.total = r.stats.candidates_total;
    o.pruned = r.stats.pruned_candidates;
    o.verified = r.stats.verified;
    o.verify_failed = r.stats.verify_failed;
    for (SearchHit& h : r.hits) {
      o.top.push_back(h.index);
      if (h.result.program) o.programs.push_back(std::move(*h.result.program));
    }
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  return o;
}

SearchOutcome replay_search(const SearchItem& it, unsigned verify_seed) {
  SearchOutcome o;
  try {
    Program p = [&] {
      Span s(Layer::kParse);
      return parse_program(it.src->text);
    }();
    std::optional<IvLayout> layout;
    {
      Span s(Layer::kLayout);
      layout.emplace(p);
    }
    DependenceSet deps;
    {
      Span s(Layer::kDeps);
      deps = analyze_dependences(*layout);
    }
    o.deps = static_cast<i64>(deps.deps.size());

    // The legality walk of TransformSession::search: depth-first over
    // the generator, pruning every subtree whose prefix is dead.
    struct Survivor {
      i64 index;
      IntMat m;
    };
    std::vector<Survivor> survivors;
    {
      Span s(Layer::kLegality);
      PermutationSkewGenerator gen(*layout, it.space);
      IncrementalLegality engine(*layout, deps);
      const int nslots = gen.num_slots();
      const std::vector<int> slots = layout->all_loop_positions();
      std::vector<i64> leaves_below(nslots + 1, 1);
      for (int d = nslots; d-- > 0;)
        leaves_below[d] = leaves_below[d + 1] * gen.num_options(d);
      o.total = leaves_below[0];
      IntMat m = IntMat::identity(layout->size());
      i64 index = 0;
      std::function<void(int)> rec = [&](int depth) {
        if (depth == nslots) {
          if (engine.current_legal())
            survivors.push_back({index, m});
          else
            ++o.pruned;
          ++index;
          return;
        }
        for (i64 k = 0; k < gen.num_options(depth); ++k) {
          IntVec r = gen.row(k);
          for (int j = 0; j < layout->size(); ++j) m(slots[depth], j) = r[j];
          gen.push(k);
          if (engine.push_row(r)) {
            rec(depth + 1);
          } else {
            o.pruned += leaves_below[depth + 1];
            index += leaves_below[depth + 1];
          }
          engine.pop_row();
          gen.pop();
        }
      };
      rec(0);
    }

    // The deferred stages, per survivor in enumeration order:
    // complete + cost, then (full mode) codegen, tile and verify.
    std::optional<VerifyReference> ref;
    if (it.full && !survivors.empty()) {
      Span s(Layer::kVerifyRef);
      ref.emplace(p, it.verify_params, FillKind::kSpd, verify_seed);
    }
    ProjectionCache cache;  // the session's FM memo, one per op
    ModelOptions mopts;
    std::vector<Ranked> ranked;
    std::vector<Program> programs;  // index-aligned with ranked
    for (Survivor& c : survivors) {
      std::optional<AstRecovery> recovery;
      {
        Span s(Layer::kComplete);
        try {
          recovery.emplace(recover_ast(*layout, c.m));
        } catch (const Error&) {
          continue;  // not block-structured: rejected
        }
      }
      Ranked r{std::numeric_limits<double>::infinity(), c.index};
      {
        Span s(Layer::kModel);
        try {
          r.lines =
              estimate_cost(*layout, deps, c.m, *recovery, mopts).total_lines;
        } catch (const Error&) {
          // Unrankable, not illegal: sorts after every scored hit.
        }
      }
      if (!it.full) {
        ranked.push_back(r);
        continue;
      }
      std::optional<Program> prog;
      {
        Span s(Layer::kCodegen);
        ScopedProjectionCache install(&cache);
        try {
          prog = simplify_program(generate_code(*layout, deps, c.m).program);
        } catch (const Error&) {
        }
      }
      if (!prog) continue;  // codegen rejected it
      // apply_tile, call by call: fresh analysis, plan, rewrite.
      ++o.tiles_tried;
      try {
        std::optional<IvLayout> tl;
        {
          Span s(Layer::kLayout);
          tl.emplace(*prog);
        }
        std::optional<DependenceSet> td;
        {
          Span s(Layer::kDeps);
          try {
            td = analyze_dependences(*tl);
          } catch (const InvalidProgramError&) {
          }
        }
        if (td) {
          TilePlan plan;
          {
            Span s(Layer::kTilePlan);
            plan = plan_tile(*tl, *td, TileOptions{}, ModelOptions{});
          }
          if (plan.applied) {
            Span s(Layer::kTileApply);
            try {
              TileResult tr = tile_band(*prog, plan.spec);
              tl.reset();  // points into *prog
              prog = std::move(tr.program);
              ++o.tiles_applied;
            } catch (const TileError&) {
            }
          }
        }
      } catch (const Error&) {
        // Structural mismatch: the hit keeps its untiled program.
      }
      {
        Span s(Layer::kVerifyCheck);
        VerifyResult v = ref->check(*prog);
        ++o.verified;
        if (!v.equivalent) ++o.verify_failed;
      }
      ranked.push_back(r);
      programs.push_back(std::move(*prog));
    }
    o.legal = static_cast<i64>(ranked.size());
    o.top = top_indices(ranked);
    if (it.full) {
      for (i64 idx : o.top)
        for (size_t i = 0; i < ranked.size(); ++i)
          if (ranked[i].index == idx) o.programs.push_back(programs[i]);
      for (const Program& q : programs) o.out_lines += printed_lines(q);
    }
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  return o;
}

SearchReference search_reference(const SearchItem& it) {
  Program p = parse_program(it.src->text);
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  PermutationSkewGenerator gen(layout, it.space);
  const std::vector<IntMat> cands = materialize_candidates(layout, gen);
  std::vector<Ranked> legal;
  for (size_t i = 0; i < cands.size(); ++i) {
    const IntMat& m = cands[i];
    std::optional<AstRecovery> rec;
    try {
      rec.emplace(recover_ast(layout, m));
      if (!check_legality(layout, deps, m, *rec).legal()) continue;
    } catch (const Error&) {
      continue;
    }
    Ranked r{std::numeric_limits<double>::infinity(), static_cast<i64>(i)};
    try {
      r.lines = estimate_cost(layout, deps, m, *rec, ModelOptions{}).total_lines;
    } catch (const Error&) {
    }
    legal.push_back(r);
  }
  return {static_cast<i64>(legal.size()), top_indices(legal)};
}

std::string check_search(const SearchOutcome& got,
                         const SearchReference& ref) {
  if (!got.error.empty()) return "threw: " + got.error;
  if (got.verify_failed > 0)
    return std::to_string(got.verify_failed) + " candidates failed verify";
  if (got.legal != ref.legal)
    return "legal " + std::to_string(got.legal) + " != reference " +
           std::to_string(ref.legal);
  if (got.top != ref.top) return "top-3 indices differ from the reference";
  if (got.verified > 0 && got.programs.size() != got.top.size())
    return "a top hit has no generated program";
  return "";
}

i64 outcome_lines(const SearchOutcome& o) {
  i64 n = 0;
  for (const Program& p : o.programs) n += printed_lines(p);
  return n;
}

}  // namespace pb
