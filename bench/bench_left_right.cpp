// C3 — §6's result: the completion procedure turns right-looking
// Cholesky (the kij source, Fig 8 left) into left-looking Cholesky
// (jki, Fig 8 right). This bench times exactly those two generated
// forms, plus the kji right-looking column form, at sizes where the
// locality difference shows, on the native engine.
#include "generated_bench.hpp"
#include "ir/gallery.hpp"

int main(int argc, char** argv) {
  using namespace inlt;
  // right-looking kij, right-looking kji, left-looking jki
  bench::add_orders("BM_Cholesky", gallery::cholesky(),
                    {"KJL", "KLJ", "LKJ"}, {128, 256, 512, 1024});
  return bench::run_main(argc, argv);
}
