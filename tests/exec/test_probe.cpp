// Differential test of the array-sizing probe (VmProgram::probe_ranges)
// against a brute-force walk that visits every executed iteration.
// The probe's vertex rule visits only a nest's vertex iterations and
// falls back to plain iteration when some inner range is empty; its
// per-array subscript extremes must equal the brute force exactly —
// on the gallery, tools/testdata, transformed and tiled variants, the
// pipeline fuzz generator's programs and hand-written edge nests, at
// several sizes including zero-trip ones.
#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>

#include "codegen/generate.hpp"
#include "codegen/simplify.hpp"
#include "common/fuzz_programs.hpp"
#include "dependence/analyzer.hpp"
#include "exec/vm.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "tile/band.hpp"
#include "tile/rewrite.hpp"
#include "transform/transforms.hpp"

namespace inlt {
namespace {

using Env = std::map<std::string, i64>;
using Ranges = std::map<std::string, VmProgram::Range>;

Program load_testdata(const std::string& name) {
  std::ifstream in(std::string(INLT_TESTDATA_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "cannot open " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return parse_program(os.str());
}

// No collapsing: every executed statement instance notes every access.
void brute_walk(const Node& n, Env& env, Ranges& out) {
  for (const Guard& g : n.guards())
    if (!g.holds(env)) return;
  if (n.is_stmt()) {
    for (const ArrayAccess& a : n.stmt_data().accesses()) {
      auto [it, fresh] = out.try_emplace(a.array);
      VmProgram::Range& r = it->second;
      for (size_t d = 0; d < a.subscripts.size(); ++d) {
        i64 v = a.subscripts[d].eval(env);
        if (fresh) {
          r.lo.push_back(v);
          r.hi.push_back(v);
        } else {
          r.lo[d] = std::min(r.lo[d], v);
          r.hi[d] = std::max(r.hi[d], v);
        }
      }
    }
    return;
  }
  i64 lo = n.lower().eval_lower(env);
  i64 hi = n.upper().eval_upper(env);
  for (i64 v = lo; v <= hi; v += n.step()) {
    env[n.var()] = v;
    for (const NodePtr& c : n.children()) brute_walk(*c, env, out);
  }
  env.erase(n.var());
}

Ranges brute_ranges(const Program& p, const Env& params) {
  Ranges out;
  Env env = params;
  for (const NodePtr& root : p.roots()) brute_walk(*root, env, out);
  return out;
}

std::string ranges_text(const Ranges& rs) {
  std::ostringstream os;
  for (const auto& [name, r] : rs) {
    os << name << ":";
    for (size_t d = 0; d < r.lo.size(); ++d)
      os << " [" << r.lo[d] << ", " << r.hi[d] << "]";
    os << "\n";
  }
  return os.str();
}

const std::vector<i64> kSizes = {0, 1, 2, 3, 5, 16};

void expect_probe_exact(const Program& p, const std::string& what) {
  for (i64 n : kSizes) {
    Env params{{"N", n}};
    Ranges probed = VmProgram::probe_ranges(p, params);
    Ranges brute = brute_ranges(p, params);
    EXPECT_EQ(ranges_text(probed), ranges_text(brute))
        << what << " at N=" << n << "\n"
        << print_program(p);
  }
}

std::vector<std::pair<std::string, Program>> sources() {
  std::vector<std::pair<std::string, Program>> out;
  out.emplace_back("fig1", gallery::fig1_running_example());
  out.emplace_back("simplified_cholesky", gallery::simplified_cholesky());
  out.emplace_back("fig3", gallery::fig3_perfect_nest());
  out.emplace_back("augmentation", gallery::augmentation_example());
  out.emplace_back("cholesky", gallery::cholesky());
  out.emplace_back("cholesky_dist",
                   gallery::simplified_cholesky_distributed());
  out.emplace_back("lu", gallery::lu());
  for (const char* f : {"cholesky.loop", "skew_example.loop", "stencil.loop"})
    out.emplace_back(f, load_testdata(f));
  return out;
}

TEST(ProbeDifferential, GalleryAndTestdata) {
  for (const auto& [what, p] : sources()) expect_probe_exact(p, what);
}

// Tiling adds clamped (min/max) tile bounds and, for imperfect bands,
// guards: the vertex rule must stop at those levels.
TEST(ProbeDifferential, TiledSources) {
  int tiled = 0;
  for (const auto& [what, p] : sources()) {
    IvLayout layout(p);
    DependenceSet deps = analyze_dependences(layout);
    for (const LoopBand& band : detect_bands(layout, deps).bands) {
      for (i64 size : {2, 3}) {
        TileSpec spec;
        spec.vars = band.vars;
        spec.sizes.assign(band.vars.size(), size);
        TileResult r;
        try {
          r = tile_band(p, spec);
        } catch (const TileError&) {
          continue;
        }
        ++tiled;
        expect_probe_exact(r.program, what + " tiled " + band.vars.front() +
                                          " size " + std::to_string(size));
      }
    }
  }
  EXPECT_GT(tiled, 0);
}

// Codegen output: cover-mode bounds, ceil/floor denominators from
// scaling, divisibility guards and skewed wavefronts.
TEST(ProbeDifferential, TransformedSources) {
  Program stencil = load_testdata("stencil.loop");
  IvLayout sl(stencil);
  expect_probe_exact(generate_code(sl, analyze_dependences(sl),
                                   loop_skew(sl, "J", "I", 1))
                         .program,
                     "skewed stencil");

  Program fig3 = gallery::fig3_perfect_nest();
  IvLayout fl(fig3);
  expect_probe_exact(
      generate_code(fl, analyze_dependences(fl),
                    mat_mul(loop_skew(fl, "I", "J", 1),
                            loop_scaling(fl, "J", 2)))
          .program,
      "scaled+skewed fig3");

  Program chol = gallery::cholesky();
  IvLayout cl(chol);
  expect_probe_exact(generate_code(cl, analyze_dependences(cl),
                                   loop_interchange(cl, "J", "L"))
                         .program,
                     "interchanged cholesky");
}

TEST(ProbeDifferential, PipelineFuzzPrograms) {
  int accepted = 0;
  for (unsigned seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(seed * 2654435761u);
    for (int trial = 0; trial < 25; ++trial) {
      Program p = testutil::random_program(rng);
      expect_probe_exact(p, "fuzz source");
      IvLayout layout(p);
      DependenceSet deps = analyze_dependences(layout);
      IntMat m = testutil::random_matrix(rng, layout);
      CodegenResult res;
      try {
        res = generate_code(layout, deps, m);
      } catch (const TransformError&) {
        continue;
      }
      ++accepted;
      expect_probe_exact(res.program, "fuzz generated");
      expect_probe_exact(simplify_program(res.program), "fuzz simplified");
    }
  }
  EXPECT_GT(accepted, 0);
}

TEST(ProbeDifferential, TargetedNests) {
  const std::vector<std::pair<std::string, std::string>> nests = {
      {"inner range empty at the last outer iteration (K = N)", R"(
param N
do K = 1, N
  S1: A(K, K) = sqrt(A(K, K))
  do I = K + 1, N
    S2: A(I, K) = A(I, K) / A(K, K)
    do J = K + 1, I
      S3: A(I, J) = A(I, J) - A(I, K) * A(J, K)
    end
  end
end
)"},
      {"inner range empty at the first outer iteration", R"(
param N
do I = 1, N
  do J = N - I + 2, N
    do K = J - 1, N
      S1: A(I + K, J - I) = A(K, J) + 1.0
    end
  end
end
)"},
      {"inner range empty past the middle", R"(
param N
do T = 1, 2
  do I = 1, N
    do J = I, N - I + 1
      S1: B(J - I, 2 * T + I + J) = B(J, I) * 0.5
    end
  end
end
)"},
      {"non-unit leaf step", R"(
param N
do I = 1, N
  do J = I, 2 * N, 3
    S1: A(J, I) = A(J - 1, I) + 1.0
  end
end
)"},
      {"non-unit step on the collapsed loop", R"(
param N
do I = 1, N, 2
  do J = I, N
    do K = 1, J
      S1: C(I, J + K) = C(I, J) + 1.0
    end
  end
end
)"},
      {"non-unit step on a descendant", R"(
param N
do I = 1, N
  do J = 1, N, 2
    do K = J, J + 1
      S1: A(K, I) = A(K, I) + 1.0
    end
  end
end
)"},
      {"denominator bounds", R"(
param N
do I = 1, N
  do J = ceil(I, 2), floor(N + I, 3)
    do K = J, floor(2 * J + 1, 2)
      S1: A(J, K - I) = A(I, J) + 1.0
    end
  end
end
)"},
      {"denominator bounds, extreme at an interior outer iteration", R"(
param N
do I = 1, N
  do J = 1, floor(N + I, 3)
    S1: A(3 * J - I) = 1.0
  end
  do J = ceil(I, 2), N
    S2: B(2 * J - I) = 1.0
  end
end
)"},
      {"multi-term bounds, extreme at a breakpoint", R"(
param N
do I = 1, N
  do J = max(1, I - 2), min(N, I + 2)
    S1: A(2 * J - I) = 1.0
  end
end
)"},
      {"multi-term tight bounds", R"(
param N
do I = 1, N
  do J = max(1, I - 2), min(N, I + 2)
    do K = max(I, J), N
      S1: A(I, J + K) = A(J, I) + 1.0
    end
  end
end
)"},
      {"multi-term cover bounds", R"(
param N
do I = 1, N
  do J = min(I, 3), max(I, N - 1)
    S1: A(I, J) = A(J, I) + 1.0
  end
end
)"},
      {"guards on statements and loops", R"(
param N
do I = 1, N
  do J = 1, N
    if ((I + J) mod 2 == 0)
      S1: A(I, J) = A(I, J) + 1.0
    endif
    if (I - J >= 0)
      S2: B(I - J) = B(I - J) + A(I, J)
    endif
  end
  if (I - 3 >= 0)
    do K = 1, I
      S3: C(K, I - 3) = 1.0
    end
  endif
end
)"},
      {"statements between loop levels", R"(
param N
do I = 1, N
  S1: X(I) = X(I - 1) + 1.0
  do J = 1, I
    S2: Y(I, J) = X(J) * 0.5
    do K = J, I
      S3: Z(K - J, I) = Y(I, K)
    end
    S4: W(J + I) = Y(I, J)
  end
  S5: V(2 * I) = W(I)
  do L = I, N
    S6: U(L - I) = V(L)
  end
end
)"},
      {"syrk-shaped", R"(
param N
do I = 1, N
  do J = 1, I
    S1: C(I, J) = C(I, J) * 0.5
  end
  do K = 1, N
    do J = 1, I
      S2: C(I, J) = C(I, J) + A(J, K) * A(I, K)
    end
  end
end
)"},
      {"trmm-shaped", R"(
param N
do I = 1, N
  do J = 1, N
    do K = I + 1, N
      S1: B(I, J) = B(I, J) + A(K, I) * B(K, J)
    end
    S2: B(I, J) = B(I, J) * 2.0
  end
end
)"},
      {"negative coefficients and offsets", R"(
param N
do I = 1, N
  do J = -I, N - 2 * I
    do K = J - N, -J
      S1: A(J + I, 3 * I - J) = A(-K, K + I) + 1.0
    end
  end
end
)"},
      {"depth-5 triangle", R"(
param N
do I = 1, N
  do J = 1, I
    do K = J, I
      do L = 1, K
        do M = L, J + 1
          S1: A(I - M, J + L, K) = A(M, L, I) + 1.0
        end
      end
    end
  end
end
)"},
  };
  for (const auto& [what, text] : nests) {
    SCOPED_TRACE(what);
    expect_probe_exact(parse_program(text), what);
  }
}

// Only vertex iterations are visited: at a size where every interior
// iteration would take hours, the probe returns at once and exact.
TEST(ProbeDifferential, VertexRuleSkipsInteriorIterations) {
  Program syrk = parse_program(R"(
param N
do I = 1, N
  do K = 1, N
    do J = 1, I
      S1: C(I, J) = C(I, J) + A(J, K) * A(I, K)
    end
  end
end
)");
  const i64 n = 1'000'000'000;
  Ranges r = VmProgram::probe_ranges(syrk, {{"N", n}});
  EXPECT_EQ(ranges_text(r), "A: [1, " + std::to_string(n) + "] [1, " +
                                std::to_string(n) + "]\nC: [1, " +
                                std::to_string(n) + "] [1, " +
                                std::to_string(n) + "]\n");
}

// An empty range at the last K falls back to iterating K; the I loop
// below still collapses, so the probe is linear in N.
TEST(ProbeDifferential, FallbackKeepsInnerLevelsCollapsed) {
  const i64 n = 100'000;
  Ranges r = VmProgram::probe_ranges(gallery::cholesky(), {{"N", n}});
  ASSERT_TRUE(r.count("A"));
  EXPECT_EQ(r.at("A").lo, (std::vector<i64>{1, 1}));
  EXPECT_EQ(r.at("A").hi, (std::vector<i64>{n, n}));
}

TEST(ProbeDifferential, AbsurdParametersOverflowLoudly) {
  // A subscript that overflows only at a vertex of a collapsed nest.
  Program sub = parse_program(R"(
param N
do I = 1, N
  do J = 1, I
    S1: A(3000000000 * J) = 1.0
  end
end
)");
  EXPECT_THROW(VmProgram::probe_ranges(sub, {{"N", 4000000000}}),
               OverflowError);
  // A descendant bound that overflows.
  Program bound = parse_program(R"(
param N
do I = 1, N
  do J = 1, 3000000000 * I
    S1: A(J) = 1.0
  end
end
)");
  EXPECT_THROW(VmProgram::probe_ranges(bound, {{"N", 4000000000}}),
               OverflowError);
}

}  // namespace
}  // namespace inlt
