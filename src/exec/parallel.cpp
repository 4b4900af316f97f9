// Worker pool, barrier and partitioned-run driver (see parallel.hpp).
#include "exec/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>

#include "exec/vm.hpp"
#include "support/check.hpp"
#include "support/profile.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

namespace inlt {

namespace {
constexpr const char* kAborted = "parallel execution aborted";
}

ExecBarrier::ExecBarrier(int parties) : parties_(parties) {
  INLT_CHECK_MSG(parties >= 1, "ExecBarrier needs at least one party");
}

const char* ExecBarrier::aborted_message() { return kAborted; }

void ExecBarrier::arrive_and_wait() {
  std::unique_lock<std::mutex> lk(mu_);
  if (aborted_) throw Error(kAborted);
  if (++waiting_ == parties_) {
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  std::uint64_t gen = generation_;
  cv_.wait(lk, [&] { return aborted_ || generation_ != gen; });
  if (aborted_) throw Error(kAborted);
}

void ExecBarrier::abort() {
  std::lock_guard<std::mutex> lk(mu_);
  aborted_ = true;
  cv_.notify_all();
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

WorkerPool& WorkerPool::shared() {
  static WorkerPool pool;
  return pool;
}

void WorkerPool::grow(int n) {
  // Called with mu_ held; new threads capture the current round so
  // they don't mistake history for a start signal.
  while (static_cast<int>(threads_.size()) < n) {
    int id = static_cast<int>(threads_.size());
    threads_.emplace_back(
        [this, id, seen = round_] { thread_main(id, seen); });
  }
}

void WorkerPool::thread_main(int id, std::uint64_t seen) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    start_cv_.wait(lk, [&] { return shutdown_ || round_ != seen; });
    if (shutdown_) return;
    seen = round_;
    if (id < parties_) {
      const std::function<void(int)>* task = task_;
      lk.unlock();
      (*task)(id);
      lk.lock();
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void WorkerPool::run(int parties, const std::function<void(int)>& task) {
  INLT_CHECK_MSG(parties >= 1, "WorkerPool::run needs at least one party");
  std::lock_guard<std::mutex> serial(run_mu_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    grow(parties);
    task_ = &task;
    parties_ = parties;
    remaining_ = parties;
    ++round_;
  }
  start_cv_.notify_all();
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return remaining_ == 0; });
  task_ = nullptr;
}

InterpStats run_partitioned(const Program& p,
                            const std::map<std::string, i64>& params,
                            Memory& mem,
                            const std::vector<std::string>& partition,
                            int num_threads, const InterpOptions& opts) {
  INLT_CHECK_MSG(!opts.observer && !opts.cache_probe,
                 "partitioned execution is VM-only: no observer or probe");
  VmProgram proto(p, params, mem);
  // A serial run is the same loop as worker 0 of 1 with nothing marked.
  std::vector<std::string> levels;
  if (num_threads > 1) levels = proto.mark_partition(partition);
  if (levels.empty()) return proto.run(opts);

  ScopedSpan span("vm.run_parallel", "exec");
  const int n = num_threads;
  // Worker 0 drives the prototype; the others get private clones bound
  // to the same Memory (marks copy along).
  std::vector<VmProgram> clones(static_cast<size_t>(n) - 1, proto);
  ExecBarrier barrier(n);
  std::vector<InterpStats> st(static_cast<size_t>(n));
  std::vector<std::string> errors(static_cast<size_t>(n));

  // Profiling is decided once per run: workers only carry a sink when
  // the profiler was enabled at dispatch. The counter-track atomics
  // are installed whenever either profiler or tracer is on — workers
  // re-check Tracer::enabled() per chunk before touching them.
  const bool profiled = ExecProfiler::enabled();
  const bool traced = Tracer::enabled();
  std::vector<WorkerProfile> wp;
  std::atomic<int> active_workers{0};
  std::atomic<i64> chunks_done{0};
  if (profiled) {
    wp.resize(static_cast<size_t>(n));
    for (int w = 0; w < n; ++w) {
      wp[static_cast<size_t>(w)].worker = w;
      wp[static_cast<size_t>(w)].levels.resize(levels.size());
    }
  }
  if (profiled || traced) {
    for (int w = 0; w < n; ++w) {
      VmProgram::WorkerInstr wi;
      if (profiled) wi.prof = &wp[static_cast<size_t>(w)];
      wi.active_workers = &active_workers;
      wi.chunks_done = &chunks_done;
      VmProgram& vm = w == 0 ? proto : clones[static_cast<size_t>(w) - 1];
      vm.set_instrumentation(wi);
    }
  }

  const i64 wall_t0 = profiled ? now_ns() : 0;
  WorkerPool::shared().run(n, [&](int w) {
    if (traced)
      Tracer::global().set_thread_name("exec worker " + std::to_string(w));
    try {
      VmProgram& vm = w == 0 ? proto : clones[static_cast<size_t>(w) - 1];
      st[static_cast<size_t>(w)] = vm.run_worker(w, n, barrier, opts);
    } catch (const std::exception& e) {
      errors[static_cast<size_t>(w)] = e.what();
      barrier.abort();  // release the team; their waits throw kAborted
    }
  });
  const i64 wall_ns = profiled ? now_ns() - wall_t0 : 0;

  // Report the originating failure, not the abort echoes it caused.
  for (const std::string& e : errors)
    if (!e.empty() && e != kAborted) throw Error(e);
  for (const std::string& e : errors)
    if (!e.empty()) throw Error(e);

  InterpStats total;
  for (const InterpStats& s : st) {
    total.instances += s.instances;
    total.loop_iterations += s.loop_iterations;
    total.guard_failures += s.guard_failures;
  }
  Stats::global().add("exec.par.runs");
  Stats::global().add("exec.par.workers", n);
  Stats::global().add("exec.par.instances", total.instances);

  if (profiled) {
    ProfileReport rep;
    rep.workers = n;
    rep.wall_ns = wall_ns;
    for (const std::string& var : levels)
      rep.levels.push_back(LevelProfile{var, 0, 0, 0, 0});
    for (int w = 0; w < n; ++w) {
      WorkerProfile& p = wp[static_cast<size_t>(w)];
      p.instances = st[static_cast<size_t>(w)].instances;
      p.loop_iterations = st[static_cast<size_t>(w)].loop_iterations;
      for (size_t l = 0; l < levels.size(); ++l) {
        const LevelTally& t = p.levels[l];
        LevelProfile& lp = rep.levels[l];
        lp.chunks += t.chunks;
        lp.busy_ns += t.busy_ns;
        lp.max_worker_busy_ns = std::max(lp.max_worker_busy_ns, t.busy_ns);
        // Every worker sees every activation; count it once (worker 0).
        if (w == 0) lp.activations = t.activations;
      }
      rep.per_worker.push_back(std::move(p));
    }
    ExecProfiler::global().add_report(std::move(rep));
  }
  return total;
}

}  // namespace inlt
