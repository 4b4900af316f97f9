#include "support/stats.hpp"

#include <bit>
#include <iomanip>
#include <sstream>

#include "support/json.hpp"

namespace inlt {

int hist_bucket(i64 value) {
  if (value <= 0) return 0;
  int b = std::bit_width(static_cast<std::uint64_t>(value));
  return b < kHistBuckets ? b : kHistBuckets - 1;
}

i64 hist_bucket_lo(int b) {
  return b <= 0 ? 0 : static_cast<i64>(1) << (b - 1);
}

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

HistogramCell& Stats::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<HistogramCell>();
  return *slot;
}

void Stats::add_sample(const std::string& name, i64 value) {
  histogram(name).record(value);
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
  for (auto& [name, h] : d.histograms) {
    auto it = base.histograms.find(name);
    if (it != base.histograms.end()) {
      h.count -= it->second.count;
      h.sum -= it->second.sum;
      for (int b = 0; b < kHistBuckets; ++b)
        h.buckets[b] -= it->second.buckets[b];
    }
  }
  return d;
}

StatsSnapshot Stats::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatsSnapshot s;
  for (const auto& [name, c] : counters_)
    s.counters[name] = c->load(std::memory_order_relaxed);
  for (const auto& [name, h] : histograms_) {
    StatsSnapshot::HistogramValue v;
    v.count = h->count();
    v.sum = h->sum();
    for (int b = 0; b < kHistBuckets; ++b) v.buckets[b] = h->bucket(b);
    s.histograms[name] = v;
  }
  return s;
}

void Stats::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->store(0, std::memory_order_relaxed);
  for (auto& [name, h] : histograms_) h->reset();
}

std::string Stats::to_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t width = 0;
  for (const auto& [name, c] : counters_) width = std::max(width, name.size());
  for (const auto& [name, h] : histograms_)
    width = std::max(width, name.size());
  std::ostringstream os;
  for (const auto& [name, c] : counters_)
    os << std::left << std::setw(static_cast<int>(width) + 2) << name
       << c->load(std::memory_order_relaxed) << "\n";
  for (const auto& [name, h] : histograms_) {
    i64 count = h->count();
    os << std::left << std::setw(static_cast<int>(width) + 2) << name
       << "n=" << count;
    if (count > 0)
      os << " mean=" << std::fixed << std::setprecision(1)
         << static_cast<double>(h->sum()) / static_cast<double>(count);
    for (int b = 0; b < kHistBuckets; ++b) {
      i64 n = h->bucket(b);
      if (n > 0) os << " " << hist_bucket_lo(b) << ":" << n;
    }
    os << "\n";
  }
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
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":{\"count\":" << h->count()
       << ",\"sum\":" << h->sum() << ",\"buckets\":{";
    bool bfirst = true;
    for (int b = 0; b < kHistBuckets; ++b) {
      i64 n = h->bucket(b);
      if (n == 0) continue;
      if (!bfirst) os << ",";
      bfirst = false;
      os << "\"" << hist_bucket_lo(b) << "\":" << n;
    }
    os << "}}";
  }
  os << "}}";
  return os.str();
}

}  // namespace inlt
