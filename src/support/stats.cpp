#include "support/stats.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "support/json.hpp"

namespace inlt {

Stats& Stats::global() {
  static Stats s;
  return s;
}

std::atomic<i64>& Stats::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<std::atomic<i64>>(0);
  return *slot;
}

void Stats::add(const std::string& name, i64 delta) {
  counter(name).fetch_add(delta, std::memory_order_relaxed);
}

i64 Stats::value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end()
             ? 0
             : it->second->load(std::memory_order_relaxed);
}

i64 StatsSnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

StatsSnapshot StatsSnapshot::operator-(const StatsSnapshot& base) const {
  StatsSnapshot d = *this;
  for (auto& [name, v] : d.counters) {
    auto it = base.counters.find(name);
    if (it != base.counters.end()) v -= it->second;
  }
  return d;
}

StatsSnapshot Stats::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatsSnapshot s;
  for (const auto& [name, c] : counters_)
    s.counters[name] = c->load(std::memory_order_relaxed);
  return s;
}

void Stats::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->store(0, std::memory_order_relaxed);
}

std::string Stats::to_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t width = 0;
  for (const auto& [name, c] : counters_) width = std::max(width, name.size());
  std::ostringstream os;
  for (const auto& [name, c] : counters_)
    os << std::left << std::setw(static_cast<int>(width) + 2) << name
       << c->load(std::memory_order_relaxed) << "\n";
  return os.str();
}

std::string Stats::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name)
       << "\":" << c->load(std::memory_order_relaxed);
  }
  os << "}}";
  return os.str();
}

}  // namespace inlt
