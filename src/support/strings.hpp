// Small string-formatting helpers shared across inlt modules.
#pragma once

#include <sstream>
#include <string>
#include <vector>

namespace inlt {

/// Join the string forms of a range with a separator.
template <typename Range>
std::string join(const Range& items, const std::string& sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& item : items) {
    if (!first) os << sep;
    first = false;
    os << item;
  }
  return os.str();
}

}  // namespace inlt
