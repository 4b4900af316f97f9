// Companion to C2 for the second classical factorization: LU loop
// orders ("matrix factorization codes" generally are §1's motivating
// imperfect nests). One series per order of the update statement's
// (K, J, L) space of gallery::lu(), generated by completion (§6) and
// run on the native engine. As for Cholesky, KJL is kij, KLJ kji, LKJ
// jki and LJK jik; the J-outer orders are listed as inexpressible.
#include "generated_bench.hpp"
#include "ir/gallery.hpp"

int main(int argc, char** argv) {
  using namespace inlt;
  bench::add_orders("BM_Lu", gallery::lu(),
                    {"KJL", "KLJ", "LKJ", "LJK", "JKL", "JLK"},
                    {64, 128, 256, 512});
  return bench::run_main(argc, argv);
}
