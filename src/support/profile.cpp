// ProfileReport aggregation and rendering (see profile.hpp).
#include "support/profile.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>

#include "support/json.hpp"

namespace inlt {

i64 ProfileReport::total_busy_ns() const {
  i64 n = 0;
  for (const WorkerProfile& w : per_worker) n += w.busy_ns;
  return n;
}

i64 ProfileReport::total_wait_ns() const {
  i64 n = 0;
  for (const WorkerProfile& w : per_worker) n += w.barrier_wait_ns;
  return n;
}

i64 ProfileReport::serial_ns() const {
  if (per_worker.empty()) return 0;
  const WorkerProfile& w0 = per_worker.front();
  return std::max<i64>(0, wall_ns - w0.busy_ns - w0.barrier_wait_ns);
}

double ProfileReport::utilization(int worker) const {
  if (wall_ns <= 0 || worker < 0 ||
      worker >= static_cast<int>(per_worker.size()))
    return 0.0;
  return static_cast<double>(per_worker[worker].busy_ns) /
         static_cast<double>(wall_ns);
}

double ProfileReport::avg_utilization() const {
  if (per_worker.empty()) return 0.0;
  double s = 0;
  for (size_t w = 0; w < per_worker.size(); ++w)
    s += utilization(static_cast<int>(w));
  return s / static_cast<double>(per_worker.size());
}

double ProfileReport::load_imbalance() const {
  i64 total = total_busy_ns();
  if (total <= 0 || per_worker.empty()) return 0.0;
  i64 mx = 0;
  for (const WorkerProfile& w : per_worker) mx = std::max(mx, w.busy_ns);
  double mean =
      static_cast<double>(total) / static_cast<double>(per_worker.size());
  return mean > 0 ? static_cast<double>(mx) / mean : 0.0;
}

double ProfileReport::barrier_share() const {
  if (wall_ns <= 0 || per_worker.empty()) return 0.0;
  return static_cast<double>(total_wait_ns()) /
         (static_cast<double>(wall_ns) *
          static_cast<double>(per_worker.size()));
}

double ProfileReport::measured_parallel_fraction() const {
  double par = static_cast<double>(total_busy_ns());
  double ser = static_cast<double>(serial_ns());
  return par + ser > 0 ? par / (par + ser) : 0.0;
}

namespace {

double ms(i64 ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

std::string ProfileReport::to_text() const {
  std::ostringstream os;
  os << std::fixed;
  os << "parallel execution profile\n"
     << "  workers: " << workers << "  partitioned runs: " << runs
     << "  wall: " << std::setprecision(3) << ms(wall_ns) << " ms\n"
     << "  parallel work: " << std::setprecision(3) << ms(total_busy_ns())
     << " ms  serial (worker 0): " << ms(serial_ns())
     << " ms  barrier wait: " << ms(total_wait_ns()) << " ms\n"
     << "  utilization: " << std::setprecision(1) << avg_utilization() * 100
     << "% avg  load imbalance: " << std::setprecision(2) << load_imbalance()
     << "  barrier share: " << std::setprecision(1) << barrier_share() * 100
     << "%\n"
     << "  measured parallel fraction: " << std::setprecision(3)
     << measured_parallel_fraction();
  if (predicted_parallel_fraction >= 0) {
    os << "  (model predicted: " << std::setprecision(3)
       << predicted_parallel_fraction;
    if (predicted_speedup > 0)
      os << ", Amdahl speedup " << std::setprecision(2) << predicted_speedup
         << "x at " << workers << " threads";
    os << ")";
  }
  os << "\n";
  os << "  per worker:\n";
  for (size_t w = 0; w < per_worker.size(); ++w) {
    const WorkerProfile& p = per_worker[w];
    os << "    w" << w << ": busy " << std::setprecision(3) << ms(p.busy_ns)
       << " ms (" << std::setprecision(1)
       << utilization(static_cast<int>(w)) * 100 << "%)  wait "
       << std::setprecision(3) << ms(p.barrier_wait_ns) << " ms  chunks "
       << p.chunks << " (+" << p.empty_chunks << " empty)  instances "
       << p.instances << "\n";
  }
  if (!levels.empty()) {
    os << "  per doall level:\n";
    for (const LevelProfile& l : levels) {
      double mean = l.chunks > 0 && workers > 0
                        ? static_cast<double>(l.busy_ns) /
                              static_cast<double>(workers)
                        : 0.0;
      os << "    " << l.var << ": " << l.activations << " activations, "
         << l.chunks << " chunks, busy " << std::setprecision(3)
         << ms(l.busy_ns) << " ms, imbalance " << std::setprecision(2)
         << (mean > 0 ? static_cast<double>(l.max_worker_busy_ns) / mean
                      : 0.0)
         << "\n";
    }
  }
  return os.str();
}

std::string ProfileReport::to_json() const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"workers\":" << workers << ",\"runs\":" << runs
     << ",\"wall_ns\":" << wall_ns << ",\"busy_ns\":" << total_busy_ns()
     << ",\"serial_ns\":" << serial_ns()
     << ",\"barrier_wait_ns\":" << total_wait_ns()
     << ",\"avg_utilization\":" << avg_utilization()
     << ",\"load_imbalance\":" << load_imbalance()
     << ",\"barrier_share\":" << barrier_share()
     << ",\"measured_parallel_fraction\":" << measured_parallel_fraction();
  if (predicted_parallel_fraction >= 0)
    os << ",\"predicted_parallel_fraction\":" << predicted_parallel_fraction
       << ",\"predicted_speedup\":" << predicted_speedup;
  os << ",\"per_worker\":[";
  for (size_t w = 0; w < per_worker.size(); ++w) {
    const WorkerProfile& p = per_worker[w];
    if (w) os << ",";
    os << "{\"worker\":" << w << ",\"busy_ns\":" << p.busy_ns
       << ",\"barrier_wait_ns\":" << p.barrier_wait_ns
       << ",\"chunks\":" << p.chunks
       << ",\"empty_chunks\":" << p.empty_chunks
       << ",\"instances\":" << p.instances
       << ",\"loop_iterations\":" << p.loop_iterations
       << ",\"utilization\":" << utilization(static_cast<int>(w)) << "}";
  }
  os << "],\"levels\":[";
  for (size_t i = 0; i < levels.size(); ++i) {
    const LevelProfile& l = levels[i];
    if (i) os << ",";
    os << "{\"var\":" << json_quote(l.var)
       << ",\"activations\":" << l.activations << ",\"chunks\":" << l.chunks
       << ",\"busy_ns\":" << l.busy_ns
       << ",\"max_worker_busy_ns\":" << l.max_worker_busy_ns << "}";
  }
  os << "]}";
  return os.str();
}

ExecProfiler& ExecProfiler::global() {
  static ExecProfiler p;
  return p;
}

void ExecProfiler::enable() {
  g_enabled_.store(true, std::memory_order_relaxed);
}

void ExecProfiler::disable() {
  g_enabled_.store(false, std::memory_order_relaxed);
}

void ExecProfiler::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  reports_.clear();
}

void ExecProfiler::add_report(ProfileReport r) {
  std::lock_guard<std::mutex> lk(mu_);
  reports_.push_back(std::move(r));
}

size_t ExecProfiler::report_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return reports_.size();
}

std::vector<ProfileReport> ExecProfiler::reports() const {
  std::lock_guard<std::mutex> lk(mu_);
  return reports_;
}

ProfileReport ExecProfiler::merged() const {
  std::vector<ProfileReport> all = reports();
  ProfileReport out;
  if (all.empty()) return out;
  out.runs = 0;
  std::map<std::string, size_t> level_of;
  for (const ProfileReport& r : all) {
    out.workers = std::max(out.workers, r.workers);
    out.runs += r.runs;
    out.wall_ns += r.wall_ns;
    if (out.per_worker.size() < r.per_worker.size())
      out.per_worker.resize(r.per_worker.size());
    for (size_t w = 0; w < r.per_worker.size(); ++w) {
      const WorkerProfile& src = r.per_worker[w];
      WorkerProfile& dst = out.per_worker[w];
      dst.worker = static_cast<int>(w);
      dst.busy_ns += src.busy_ns;
      dst.barrier_wait_ns += src.barrier_wait_ns;
      dst.chunks += src.chunks;
      dst.empty_chunks += src.empty_chunks;
      dst.instances += src.instances;
      dst.loop_iterations += src.loop_iterations;
    }
    for (const LevelProfile& l : r.levels) {
      auto [it, fresh] = level_of.emplace(l.var, out.levels.size());
      if (fresh) out.levels.push_back(LevelProfile{l.var, 0, 0, 0, 0});
      LevelProfile& dst = out.levels[it->second];
      dst.activations += l.activations;
      dst.chunks += l.chunks;
      dst.busy_ns += l.busy_ns;
      // Summing per-run maxima keeps max/mean >= 1 across runs (an
      // upper bound on the busiest worker's aggregate share).
      dst.max_worker_busy_ns += l.max_worker_busy_ns;
    }
    // Keep the most recent prediction, if any run carried one.
    if (r.predicted_parallel_fraction >= 0) {
      out.predicted_parallel_fraction = r.predicted_parallel_fraction;
      out.predicted_speedup = r.predicted_speedup;
    }
  }
  return out;
}

}  // namespace inlt
