// C4 — §5.5: the B/A imperfect nest as written vs the framework's
// skewed, simplified code for it. The transformation separates the B
// recurrence from the triangular A fill; the bench measures what that
// separation buys on the native engine.
#include "generated_bench.hpp"
#include "ir/gallery.hpp"

int main(int argc, char** argv) {
  using namespace inlt;
  const Program source = gallery::augmentation_example();
  auto src = std::make_shared<bench::Source>(source);
  const std::vector<i64> sizes = {256, 512, 1024, 2048, 4096};
  bench::add_series("BM_Skew", src, "source", source, sizes);
  bench::add_series("BM_Skew", src, "skew_I_J_-1",
                    bench::skewed(source, "I", "J", -1), sizes);
  return bench::run_main(argc, argv);
}
