#include "common/scan_reference.hpp"

#include "linalg/project.hpp"
#include "support/check.hpp"

namespace inlt::testutil {

namespace {

// Can delta >= k (sign +1) or delta <= k (sign -1)?
bool feasible_beyond(const ConstraintSystem& cs, const LinExpr& delta, i64 k,
                     i64 sign) {
  LinExpr e = delta;
  for (i64& c : e.coef) c *= sign;
  e.constant = sign * e.constant - sign * k;
  ConstraintSystem with = cs;
  with.add_ge(std::move(e));
  return integer_feasible(with);
}

}  // namespace

DepEntry classify_delta_scan(const ConstraintSystem& cs, const LinExpr& delta,
                             i64 limit) {
  if (delta.is_constant()) return DepEntry::exact(delta.constant);
  auto feas_ge = [&](i64 k) { return feasible_beyond(cs, delta, k, 1); };
  auto feas_le = [&](i64 k) { return feasible_beyond(cs, delta, k, -1); };

  bool hi_inf = feas_ge(limit + 1);
  bool lo_inf = feas_le(-limit - 1);
  i64 hi = 0, lo = 0;
  if (!hi_inf) {
    hi = -limit - 1;  // every value lies below the window
    for (i64 k = limit; k >= -limit; --k)
      if (feas_ge(k)) {
        hi = k;
        break;
      }
  }
  if (!lo_inf) {
    lo = limit + 1;
    for (i64 k = -limit; k <= limit; ++k)
      if (feas_le(k)) {
        lo = k;
        break;
      }
  }
  if (lo_inf && hi_inf) return DepEntry::star();
  if (lo_inf) return DepEntry::at_most(hi);
  if (hi_inf) return DepEntry::at_least(lo);
  if (lo > hi) throw Error("scan found an empty interval");
  return DepEntry::range(lo, hi);
}

}  // namespace inlt::testutil
