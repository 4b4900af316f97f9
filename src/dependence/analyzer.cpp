#include "dependence/analyzer.hpp"

#include <set>
#include <sstream>
#include <tuple>

#include "dependence/system.hpp"
#include "support/check.hpp"
#include "support/trace.hpp"

namespace inlt {

std::vector<DepVector> DependenceSet::columns() const {
  std::vector<DepVector> out;
  out.reserve(deps.size());
  for (const Dependence& d : deps) out.push_back(d.vector);
  return out;
}

std::string DependenceSet::to_string() const {
  std::ostringstream os;
  for (const Dependence& d : deps)
    os << dep_kind_name(d.kind) << " " << d.src << " -> " << d.dst << " on "
       << d.array << ": " << dep_to_string(d.vector) << "\n";
  return os.str();
}

DependenceSet analyze_dependences(const IvLayout& layout, PadMode pad) {
  DependenceSet result;
  // Dedup on the identifying fields, compared in place.
  auto key = [&](size_t i) {
    const Dependence& d = result.deps[i];
    return std::tie(d.src, d.dst, d.kind, d.array, d.vector);
  };
  auto less = [&](size_t a, size_t b) { return key(a) < key(b); };
  std::set<size_t, decltype(less)> seen(less);
  for (const PairSystem& ps : build_pair_systems(layout)) {
    ScopedSpan span("dep.pair", "dependence");
    if (span.active()) {
      span.arg("src", ps.src);
      span.arg("dst", ps.dst);
      span.arg("array", ps.array);
      span.arg("kind", dep_kind_name(ps.kind));
    }
    DepVector vec;
    vec.reserve(layout.size());
    for (int q = 0; q < layout.size(); ++q) {
      LinExpr dv = position_value_expr(ps.base, layout, ps.dst, q,
                                       /*src_side=*/false, pad);
      LinExpr sv = position_value_expr(ps.base, layout, ps.src, q,
                                       /*src_side=*/true, pad);
      vec.push_back(classify_delta(ps.base, lin_subtract(ps.base, dv, sv)));
    }
    result.deps.push_back({ps.src, ps.dst, ps.kind, ps.array, std::move(vec)});
    if (!seen.insert(result.deps.size() - 1).second) result.deps.pop_back();
  }
  return result;
}

}  // namespace inlt
