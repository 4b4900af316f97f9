// C2 — §1's motivating claim: "All six permutations of these three
// loops compute the same result, but their performance, even on
// sequential machines, can be quite different."
//
// One series per loop order of the update statement's (K, J, L) space
// of gallery::cholesky(), each the code the framework generates by
// completing that order (§6), swept over matrix size on the native
// engine. In the classical (k, row i, column j) names the paper's KJL
// is kij, KLJ kji, LKJ jki and LJK jik. The two J-outer orders (ikj,
// ijk) are not expressible under the diagonal embedding (EXPERIMENTS.md
// C1); the bench lists them as inexpressible.
#include "generated_bench.hpp"
#include "ir/gallery.hpp"

int main(int argc, char** argv) {
  using namespace inlt;
  bench::add_orders("BM_Cholesky", gallery::cholesky(),
                    {"KJL", "KLJ", "LKJ", "LJK", "JKL", "JLK"},
                    {64, 128, 256, 512});
  return bench::run_main(argc, argv);
}
