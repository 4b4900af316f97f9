// C8 — the locality price of the wavefront order: the Gauss-Seidel
// stencil as written vs the framework's skewed wavefront for it (the
// transformation examples/wavefront_parallel.cpp derives), on one
// core through the native engine. The wavefront makes the inner loop a
// doall at the cost of diagonal memory strides; this measures that
// cost.
#include "generated_bench.hpp"
#include "ir/parser.hpp"

int main(int argc, char** argv) {
  using namespace inlt;
  const Program source = parse_program(R"(
param N
do I = 1, N
  do J = 1, N
    S1: U(I, J) = U(I - 1, J) + U(I, J - 1)
  end
end
)");
  auto src = std::make_shared<bench::Source>(source);
  const std::vector<i64> sizes = {256, 512, 1024, 2048};
  bench::add_series("BM_GaussSeidel", src, "source", source, sizes);
  bench::add_series("BM_GaussSeidel", src, "skew_I_J_1",
                    bench::skewed(source, "I", "J", 1), sizes);
  return bench::run_main(argc, argv);
}
