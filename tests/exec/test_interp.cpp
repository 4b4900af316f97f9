// Interpreter and verification substrate.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <tuple>

#include "exec/verify.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "kernels/cholesky.hpp"

namespace inlt {
namespace {

TEST(DenseArray, BoundsCheckedAccess) {
  DenseArray a({0, 0}, {3, 3});
  a.set({2, 3}, 1.5);
  EXPECT_EQ(a.get({2, 3}), 1.5);
  EXPECT_EQ(a.get({0, 0}), 0.0);
  EXPECT_THROW(a.get({4, 0}), Error);
  EXPECT_THROW(a.get({0, -1}), Error);
  EXPECT_THROW(a.get({0}), Error);  // rank mismatch
}

TEST(DenseArray, NegativeOrigins) {
  DenseArray a({-2}, {5});
  a.set({-2}, 7.0);
  EXPECT_EQ(a.get({-2}), 7.0);
}

// Row-major walk over every index tuple of `a`; element k of the walk
// is raw_data()[k].
void for_each_index(const DenseArray& a,
                    const std::function<void(const std::vector<i64>&)>& fn) {
  if (a.rank() == 0) return;
  std::vector<i64> idx(a.rank());
  for (int d = 0; d < a.rank(); ++d) idx[d] = a.lo(d);
  for (;;) {
    fn(idx);
    int d = a.rank() - 1;
    while (d >= 0 && idx[d] == a.hi(d)) {
      idx[d] = a.lo(d);
      --d;
    }
    if (d < 0) break;
    ++idx[d];
  }
}

TEST(DenseArray, ForEachIndexCoversAll) {
  DenseArray a({1, -1}, {2, 1});
  a.raw_data()[4] = 9.0;  // flat element 4 is (2, 0)
  int count = 0;
  for_each_index(a, [&](const std::vector<i64>& idx) {
    if (count == 4) {
      EXPECT_EQ(a.get(idx), 9.0);
    }
    ++count;
  });
  EXPECT_EQ(count, 2 * 3);
  EXPECT_EQ(a.data().size(), 2u * 3u);
}

// Pin of the input fills: every engine and the verifier run both sides
// on the same fill, so only this digest notices a changed fill. The
// values fold in std::hash of the array name, so they hold for the
// libstdc++ hash the tree is built with.
std::uint64_t memory_digest(const Memory& mem) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  auto eat = [&](const void* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<const unsigned char*>(p)[i];
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& [name, arr] : mem.arrays()) {
    eat(name.data(), name.size());
    for (int d = 0; d < arr.rank(); ++d) {
      i64 lo = arr.lo(d), hi = arr.hi(d);
      eat(&lo, sizeof lo);
      eat(&hi, sizeof hi);
    }
    eat(arr.data().data(), arr.data().size() * sizeof(double));
  }
  return h;
}

struct FillShape {
  const char* what;
  std::vector<std::tuple<std::string, std::vector<i64>, std::vector<i64>>>
      arrays;
};

TEST(Fill, DigestsPinned) {
  const std::vector<FillShape> shapes = {
      {"square lo 0", {{"A", {0, 0}, {5, 5}}}},
      {"square lo 1", {{"A", {1, 1}, {6, 6}}}},
      {"square 1x1", {{"A", {2, 2}, {2, 2}}}},
      {"non-square", {{"B", {1, 0}, {4, 6}}}},
      {"equal extents, shifted lo", {{"B", {0, 1}, {5, 6}}}},
      {"rank 1, negative lo", {{"X", {-3}, {7}}}},
      {"rank 3", {{"T", {0, 1, -1}, {2, 3, 1}}}},
      {"two names", {{"A", {1, 1}, {4, 4}}, {"C", {1, 1}, {4, 4}}}},
      {"rank 0", {{"S", {}, {}}}},
  };
  // {fill_spd seed 1, fill_spd seed 7, randomize seed 1, randomize seed 7},
  // recorded from the per-index fills that preceded the flat loops.
  const std::vector<std::array<std::uint64_t, 4>> expected = {
      {0xa478c0f6b8ef66c1, 0x661ab067a0f1b5fd,
       0xb9753a3673e6aa31, 0x2e745c77f7e35d96},
      {0x28a9c04eec46127c, 0x0c33b114624ed417,
       0xf0f4a5b0018ec5b1, 0x1c207c8b992d9f16},
      {0x0adb4284ae7d7ac3, 0x5d7704d19941318e,
       0x897cb42ed90c1759, 0x36ab6ab0c8c4aff0},
      {0xe1bda2f34e231f3f, 0x60f9b85e63cc70e5,
       0x6580798001cb8eba, 0xd5d286e5df26acc9},
      {0xd2cfa5819913bd12, 0xb866dfa3746ed93e,
       0x659f4a86562d5093, 0x7043ead9e33937e8},
      {0x311cae84ef5e5488, 0xe045b30ff210125a,
       0xaca8a4950a322fa2, 0xc2a5db0a60a43143},
      {0x50093ab1725c0c16, 0x4d92c245f6ed53dc,
       0xf1399ad86f30b532, 0x35c87be47809781f},
      {0x06667c1f82883954, 0x6d420b9a916d95d2,
       0x1b3bc736e29598fd, 0x9114eefabfc18571},
      {0x8aa984d6299805c2, 0x8aa984d6299805c2,
       0x8aa984d6299805c2, 0x8aa984d6299805c2},
  };
  ASSERT_EQ(shapes.size(), expected.size());
  for (size_t s = 0; s < shapes.size(); ++s) {
    int col = 0;
    for (bool spd : {true, false}) {
      for (unsigned seed : {1u, 7u}) {
        Memory mem;
        for (const auto& [name, lo, hi] : shapes[s].arrays)
          mem.declare(name, lo, hi);
        if (spd)
          fill_spd(mem, seed);
        else
          randomize(mem, seed);
        EXPECT_EQ(memory_digest(mem), expected[s][col])
            << shapes[s].what << (spd ? " fill_spd" : " randomize")
            << " seed " << seed << ": 0x" << std::hex << memory_digest(mem);
        ++col;
      }
    }
  }
}

TEST(Interp, SimpleSumLoop) {
  Program p = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = A(I - 1) + 1.0
end
)");
  Memory mem;
  declare_arrays(p, {{"N", 5}}, mem);
  InterpStats st = interpret(p, {{"N", 5}}, mem);
  EXPECT_EQ(st.instances, 5);
  EXPECT_EQ(mem.at("A").get({5}), 5.0);  // prefix sums of zeros + 1
}

TEST(Interp, GuardsSuppressExecution) {
  Program p = parse_program(R"(
param N
do I = 1, N
  if (I - 3 >= 0)
    S1: A(I) = 1.0
  endif
end
)");
  Memory mem;
  declare_arrays(p, {{"N", 5}}, mem);
  InterpStats st = interpret(p, {{"N", 5}}, mem);
  EXPECT_EQ(st.instances, 3);      // I = 3, 4, 5
  EXPECT_EQ(st.guard_failures, 2); // I = 1, 2
}

TEST(Interp, InstanceBudgetEnforced) {
  Program p = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = 1.0
end
)");
  Memory mem;
  declare_arrays(p, {{"N", 100}}, mem);
  InterpOptions opts;
  opts.max_instances = 10;
  EXPECT_THROW(interpret(p, {{"N", 100}}, mem, opts), Error);
}

TEST(Interp, CholeskyMatchesNativeKernel) {
  // The interpreter on the gallery Cholesky must agree with the native
  // kij kernel on the lower triangle.
  i64 n = 12;
  Program p = gallery::cholesky();
  Memory mem;
  declare_arrays(p, {{"N", n}}, mem);
  fill_spd(mem, 99);

  // Mirror memory into the kernel layout (1-based -> 0-based).
  kernels::Matrix a(static_cast<size_t>(n) * n);
  for (i64 i = 1; i <= n; ++i)
    for (i64 j = 1; j <= n; ++j)
      a[static_cast<size_t>(i - 1) * n + (j - 1)] = mem.at("A").get({i, j});

  interpret(p, {{"N", n}}, mem);
  kernels::cholesky_kij(a, static_cast<size_t>(n));

  double worst = 0.0;
  for (i64 i = 1; i <= n; ++i)
    for (i64 j = 1; j <= i; ++j)
      worst = std::max(worst,
                       std::abs(mem.at("A").get({i, j}) -
                                a[static_cast<size_t>(i - 1) * n + (j - 1)]));
  EXPECT_LT(worst, 1e-9);
}

TEST(Interp, FuncIsPureAndEnvIndependent) {
  // f(I) in two different loop structures produces the same values.
  Program p1 = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = f(I)
end
)");
  Program p2 = parse_program(R"(
param N
do Z = 1, N
  do I = Z, Z
    S1: A(I) = f(I)
  end
end
)");
  Memory m1, m2;
  declare_arrays(p1, {{"N", 6}}, m1);
  declare_arrays(p2, {{"N", 6}}, m2);
  interpret(p1, {{"N", 6}}, m1);
  interpret(p2, {{"N", 6}}, m2);
  EXPECT_EQ(m1.max_abs_diff(m2), 0.0);
}

TEST(Verify, DetectsInequivalence) {
  Program a = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = A(I - 1) + 1.0
end
)");
  Program b = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = A(I - 1) + 2.0
end
)");
  VerifyResult v = verify_equivalence(a, b, {{"N", 4}}, FillKind::kRandom);
  EXPECT_FALSE(v.equivalent);
}

TEST(Verify, DetectsReorderedRecurrence) {
  // Reversing a recurrence changes the result.
  Program a = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = A(I - 1) * 0.5 + 1.0
end
)");
  Program b = parse_program(R"(
param N
do I = -N, -1
  S1: A(-I) = A(-I - 1) * 0.5 + 1.0
end
)");
  VerifyResult v = verify_equivalence(a, b, {{"N", 5}}, FillKind::kRandom);
  EXPECT_FALSE(v.equivalent);
}

TEST(Verify, EquivalentOnIdentity) {
  Program p = gallery::cholesky();
  VerifyResult v = verify_equivalence(p, p, {{"N", 6}});
  EXPECT_TRUE(v.equivalent);
  EXPECT_EQ(v.max_diff, 0.0);
}

}  // namespace
}  // namespace inlt
