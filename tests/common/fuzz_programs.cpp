#include "common/fuzz_programs.hpp"

#include <algorithm>
#include <sstream>

#include "ir/parser.hpp"
#include "transform/transforms.hpp"

namespace inlt::testutil {

Program random_program(std::mt19937& rng) {
  std::uniform_int_distribution<int> coin(0, 1), off(0, 2);
  std::ostringstream os;
  os << "param N\n";
  os << "do I = 1, N\n";
  // A statement at depth 1 (padded in the instance-vector space).
  if (coin(rng))
    os << "  S1: X(I) = X(I - " << off(rng) << ") + 1.5\n";
  else
    os << "  S1: X(I) = Y(I - 1, I) * 0.5 + 1.0\n";
  os << "  do J = " << (coin(rng) ? "1" : "I") << ", N\n";
  if (coin(rng))
    os << "    S2: Y(I, J) = X(I) + Y(I - 1, J)\n";
  else
    os << "    S2: Y(I, J) = Y(I, J - 1) + X(I - " << off(rng) << ")\n";
  os << "  end\n";
  if (coin(rng)) os << "  S3: Z(I) = Y(I, " << (coin(rng) ? "I" : "N") << ")\n";
  os << "end\n";
  return parse_program(os.str());
}

IntMat random_matrix(std::mt19937& rng, const IvLayout& layout) {
  std::uniform_int_distribution<int> pick(0, 4);
  IntMat m = IntMat::identity(layout.size());
  for (int step = 0; step < 2; ++step) {
    switch (pick(rng)) {
      case 0:
        m = mat_mul(loop_interchange(layout, "I", "J"), m);
        break;
      case 1:
        m = mat_mul(loop_skew(layout, "I", "J", rng() % 2 ? 1 : -1), m);
        break;
      case 2:
        m = mat_mul(loop_skew(layout, "J", "I", rng() % 2 ? 1 : -1), m);
        break;
      case 3:
        m = mat_mul(loop_reversal(layout, "J"), m);
        break;
      default: {
        // Statement reordering of the root loop's children.
        const Node* root = layout.program().roots()[0].get();
        int c = root->num_children();
        std::vector<int> perm(c);
        for (int i = 0; i < c; ++i) perm[i] = i;
        std::shuffle(perm.begin(), perm.end(), rng);
        m = mat_mul(statement_reorder(layout, "I", perm), m);
        break;
      }
    }
  }
  return m;
}

}  // namespace inlt::testutil
