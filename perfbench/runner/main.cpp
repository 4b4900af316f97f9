// inlt benchmark runner.
//
//   inlt_perfbench --workload search|exec_small|exec_large --seed S
//                  --seconds T --trace 0|1 [--corpus DIR] [--work DIR]
//                  [--inject-wrong]
//
// One closed-loop client runs the workload's items in a seeded
// shuffled order, round after round, until --seconds have passed (the
// last round always completes). Every op's output is checked against
// an independent reference outside the timed span. Metric lines go to
// stdout as `metric <name> <value> <unit> samples=<n>`; the last line
// is one JSON object {correct, attempted, failed, metrics}.
//
// --trace 0 reports the end-to-end metrics. Set-up time and peak
// memory are measured in kSetupReps forked children, each starting from
// the same fresh process state with an empty $INLTC_CACHE_DIR.
// --trace 1 reports the per-layer ledger: every op runs once untraced
// and once traced (spans around each layer call, see bench.hpp).
// README.md beside this directory maps each metric to its layer.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "exec.hpp"
#include "exec/native.hpp"
#include "search.hpp"
#include "support/profile.hpp"
#include "support/stats.hpp"

namespace fs = std::filesystem;

namespace pb {
namespace {

constexpr int kThreads = 2;     // partitioned-VM workers
constexpr int kSetupReps = 3;  // forked set-up children per run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string corpus = "perfbench/corpus";
  std::string work = ".bench_build/perfbench-work";
  bool inject_wrong = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "inlt_perfbench: " << why
            << "\nusage: inlt_perfbench --workload search|exec_small|"
               "exec_large --seed S --seconds T --trace 0|1 [--corpus DIR] "
               "[--work DIR] [--inject-wrong]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--inject-wrong") {
      a.inject_wrong = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v);
      } else if (k == "--corpus") {
        a.corpus = v;
      } else if (k == "--work") {
        a.work = v;
      } else {
        usage("unknown flag " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.workload != "search" && a.workload != "exec_small" &&
      a.workload != "exec_large")
    usage("unknown workload '" + a.workload + "'");
  if (!have_seed) usage("--seed is required");
  if (!(a.seconds > 0) || (a.trace != 0 && a.trace != 1))
    usage("bad --seconds or --trace");
  return a;
}

// -- workloads -------------------------------------------------------

// A workload is a list of items; run() executes one op of an item and
// keeps its outcome until check() has compared it with the reference.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the item list (untimed; also runs in each set-up child).
  virtual void build_items() = 0;
  /// Compute the reference answers (untimed; parent only).
  virtual void build_references() = 0;
  virtual size_t size() const = 0;
  virtual std::string item_name(size_t i) const = 0;
  /// One op. `traced`: the variant with spans around layer calls.
  virtual void run(size_t i, bool traced) = 0;
  /// "" when the last op of item i was correct. Before the references
  /// exist only failures to run are detected.
  virtual std::string check(size_t i) = 0;
  /// The gen_lines metric.
  virtual i64 gen_lines() const = 0;
  /// Per-layer counts gathered from traced ops (name -> value, unit).
  virtual void layer_counts(
      std::map<std::string, std::pair<double, std::string>>& out) const = 0;
};

class SearchWorkload : public Workload {
 public:
  SearchWorkload(const std::vector<CorpusEntry>& corpus, unsigned fill_seed)
      : corpus_(corpus), fill_seed_(fill_seed) {}

  void build_items() override {
    items_ = make_search_items(corpus_, /*verify_n=*/24, /*verify_t=*/2);
    last_.resize(items_.size());
  }
  void build_references() override {
    for (const SearchItem& it : items_) refs_.push_back(search_reference(it));
  }
  size_t size() const override { return items_.size(); }
  std::string item_name(size_t i) const override { return items_[i].name; }

  void run(size_t i, bool traced) override {
    if (!traced) {
      last_[i] = run_search(items_[i], fill_seed_);
      return;
    }
    last_[i] = replay_search(items_[i], fill_seed_);
    ++traced_ops_;
    deps_ += last_[i].deps;
    out_lines_ += last_[i].out_lines;
    pruned_ += last_[i].pruned;
    total_ += last_[i].total;
    tiles_tried_ += last_[i].tiles_tried;
    tiles_applied_ += last_[i].tiles_applied;
  }

  std::string check(size_t i) override {
    SearchOutcome& o = last_[i];
    std::string err;
    if (refs_.empty()) {
      if (!o.error.empty()) err = "threw: " + o.error;
    } else {
      err = check_search(o, refs_[i]);
    }
    if (err.empty() && items_[i].full && lines_.count(i) == 0)
      lines_[i] = outcome_lines(o);
    o = SearchOutcome{};
    return err;
  }

  i64 gen_lines() const override {
    i64 n = 0;
    for (const auto& [i, lines] : lines_) n += lines;
    return n;
  }

  void layer_counts(std::map<std::string, std::pair<double, std::string>>&
                        out) const override {
    const double ops = std::max<i64>(traced_ops_, 1);
    out["dependence.deps"] = {static_cast<double>(deps_) / ops, "count"};
    out["codegen.out_lines"] = {static_cast<double>(out_lines_) / ops,
                                "count"};
    out["transform.pruned_ratio"] = {
        total_ ? static_cast<double>(pruned_) / static_cast<double>(total_)
               : 0.0,
        "ratio"};
    out["tile.applied_ratio"] = {
        tiles_tried_ ? static_cast<double>(tiles_applied_) /
                           static_cast<double>(tiles_tried_)
                     : 0.0,
        "ratio"};
  }

 private:
  const std::vector<CorpusEntry>& corpus_;
  unsigned fill_seed_;
  std::vector<SearchItem> items_;
  std::vector<SearchReference> refs_;
  std::vector<SearchOutcome> last_;
  std::map<size_t, i64> lines_;  // full items: printed lines of the top 3
  i64 traced_ops_ = 0, deps_ = 0, out_lines_ = 0, pruned_ = 0, total_ = 0;
  i64 tiles_tried_ = 0, tiles_applied_ = 0;
};

class ExecWorkload : public Workload {
 public:
  ExecWorkload(const std::vector<CorpusEntry>& corpus, i64 n, i64 t,
               bool partitioned, bool inject_wrong, unsigned fill_seed)
      : corpus_(corpus),
        n_(n),
        t_(t),
        partitioned_(partitioned),
        inject_wrong_(inject_wrong),
        fill_seed_(fill_seed) {}

  void build_items() override {
    progs_ = make_exec_programs(corpus_);
    items_ = make_exec_items(progs_, partitioned_);
    if (inject_wrong_) {
      progs_.push_back(make_wrong_program(corpus_, n_, t_, fill_seed_));
      items_.push_back({progs_.back().name + "/vm",
                        static_cast<int>(progs_.size() - 1), Engine::kVm});
    }
    for (const ExecProgram& p : progs_)
      params_.push_back(bind_params(p.program, n_, t_));
    last_.resize(items_.size());
  }

  void build_references() override {
    // The walker is slow at N=192: compute the references on two
    // threads, one source program at a time each.
    std::vector<int> srcs;
    for (size_t i = 0; i < progs_.size(); ++i)
      if (progs_[i].name == corpus_[progs_[i].source].name + "/src") {
        srcs.push_back(static_cast<int>(i));
        refs_[progs_[i].source];  // insert now; threads fill in place
      }
    std::atomic<size_t> next{0};
    std::string error;
    std::mutex mu;
    auto worker = [&] {
      for (size_t k; (k = next.fetch_add(1)) < srcs.size();) {
        const ExecProgram& p = progs_[srcs[k]];
        try {
          refs_.at(p.source) = exec_reference(p.program, params_[srcs[k]],
                                              fill_seed_);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mu);
          error = p.name + ": " + e.what();
        }
      }
    };
    std::thread helper(worker);
    worker();
    helper.join();
    if (!error.empty()) throw std::runtime_error("reference: " + error);
  }
  size_t size() const override { return items_.size(); }
  std::string item_name(size_t i) const override { return items_[i].name; }

  void run(size_t i, bool traced) override {
    const ExecItem& it = items_[i];
    const bool profile = traced && it.engine == Engine::kPar;
    if (profile) inlt::ExecProfiler::global().enable();
    const i64 hits0 = traced && it.engine == Engine::kNative
                          ? inlt::Stats::global().value("exec.native.lru_hits")
                          : 0;
    last_[i] = run_exec(progs_[it.prog], it.engine, params_[it.prog],
                        fill_seed_, kThreads);
    if (last_[i].fallback) ++fallbacks_;
    if (traced && it.engine == Engine::kNative) {
      ++native_ops_;
      lru_hits_ += inlt::Stats::global().value("exec.native.lru_hits") - hits0;
    }
    if (profile) {
      inlt::ExecProfiler::global().disable();
      for (const inlt::ProfileReport& r :
           inlt::ExecProfiler::global().reports()) {
        busy_ns_ += r.total_busy_ns();
        wait_ns_ += r.total_wait_ns();
        capacity_ns_ += r.wall_ns * r.workers;
      }
      inlt::ExecProfiler::global().clear();
    }
  }

  std::string check(size_t i) override {
    ExecOutcome& o = last_[i];
    std::string err;
    if (refs_.empty())
      err = o.error;
    else
      err = check_exec(o, refs_.at(progs_[items_[i].prog].source));
    o = ExecOutcome{};
    return err;
  }

  i64 gen_lines() const override {
    i64 n = 0;
    for (const ExecProgram& p : progs_) n += printed_lines(p.program);
    return n;
  }

  void layer_counts(std::map<std::string, std::pair<double, std::string>>&
                        out) const override {
    const double cap = static_cast<double>(std::max<i64>(capacity_ns_, 1));
    out["exec.par.barrier_wait_share"] = {
        static_cast<double>(wait_ns_) / cap, "ratio"};
    out["exec.par.busy_share"] = {static_cast<double>(busy_ns_) / cap,
                                  "ratio"};
    out["exec.native.lru_hits"] = {
        static_cast<double>(lru_hits_) /
            static_cast<double>(std::max<i64>(native_ops_, 1)),
        "count"};
    out["exec.native.fallbacks"] = {static_cast<double>(fallbacks_), "count"};
  }

 private:
  const std::vector<CorpusEntry>& corpus_;
  i64 n_, t_;
  bool partitioned_, inject_wrong_;
  unsigned fill_seed_;
  std::vector<ExecProgram> progs_;
  std::vector<std::map<std::string, i64>> params_;  // per program
  std::vector<ExecItem> items_;
  std::map<int, ExecReference> refs_;  // by corpus nest
  std::vector<ExecOutcome> last_;
  i64 fallbacks_ = 0, native_ops_ = 0, lru_hits_ = 0;
  i64 busy_ns_ = 0, wait_ns_ = 0, capacity_ns_ = 0;
};

std::unique_ptr<Workload> make_workload(const Args& a,
                                        const std::vector<CorpusEntry>& corpus,
                                        unsigned fill_seed) {
  if (a.workload == "search")
    return std::make_unique<SearchWorkload>(corpus, fill_seed);
  if (a.workload == "exec_small")
    return std::make_unique<ExecWorkload>(corpus, 16, 2, false,
                                          a.inject_wrong, fill_seed);
  // The partitioned-VM items run in the traced run only, for the
  // exec.par rows of the ledger. Their two-thread barrier runs swing by
  // 40% from run to run on a shared VM host (one vCPU descheduled
  // stalls both workers), which put every end-to-end metric of the
  // workload past its bound; without them the p50 holds within 2%.
  return std::make_unique<ExecWorkload>(corpus, 192, 4, a.trace == 1,
                                        a.inject_wrong, fill_seed);
}

// -- running ---------------------------------------------------------

struct Tally {
  i64 attempted = 0;
  i64 failed = 0;
  void note(const std::string& item, const std::string& err) {
    ++attempted;
    if (err.empty()) return;
    if (failed < 5) std::cerr << "FAIL " << item << ": " << err << "\n";
    ++failed;
  }
};

void use_cache_dir(const std::string& dir) {
  fs::create_directories(dir);
  ::setenv("INLTC_CACHE_DIR", dir.c_str(), 1);
  inlt::native_lru_clear();
}

// One pass over every item in `order`, each op checked. Returns the
// pass's wall seconds.
double run_pass(Workload& w, const std::vector<size_t>& order, Tally& tally) {
  const i64 t0 = now_ns();
  for (size_t i : order) {
    w.run(i, false);
    tally.note(w.item_name(i), w.check(i));
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

std::vector<size_t> shuffled(size_t n, Rng& rng) {
  std::vector<size_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  rng.shuffle(v);
  return v;
}

// Peak resident memory, read from VmHWM. reset_peak_rss() returns
// freed heap pages and lowers the watermark to the current size (Linux
// clear_refs "5"), so preparing the inputs is not counted.
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      f >> kib;
      return kib / 1024.0;
    }
    f.ignore(1 << 16, '\n');
  }
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct SetupSample {
  double seconds = 0;
  double rss_mb = 0;
  i64 attempted = 0;
  i64 failed = 0;
};

// Cold set-up in a forked child: fresh process state, an empty cache
// directory, the system's first pass over the items, and the peak
// memory of that pass. The pass runs in corpus order, not the seeded
// one, so the heap grows the same way in every child and every run.
SetupSample setup_in_child(const Args& a,
                           const std::vector<CorpusEntry>& corpus,
                           unsigned fill_seed, const std::string& cache_dir) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    SetupSample s;
    int rc = 0;
    try {
      std::unique_ptr<Workload> w = make_workload(a, corpus, fill_seed);
      w->build_items();  // benchmark input preparation, untimed
      std::vector<size_t> order(w->size());
      std::iota(order.begin(), order.end(), size_t{0});
      use_cache_dir(cache_dir);
      reset_peak_rss();
      Tally tally;
      s.seconds = run_pass(*w, order, tally);
      s.rss_mb = peak_rss_mb();
      s.attempted = tally.attempted;
      s.failed = tally.failed;
    } catch (const std::exception& e) {
      std::cerr << "set-up child: " << e.what() << "\n";
      rc = 1;
    }
    if (::write(fds[1], &s, sizeof s) != static_cast<ssize_t>(sizeof s))
      rc = 1;
    ::close(fds[1]);
    std::cerr.flush();
    ::_exit(rc);
  }
  ::close(fds[1]);
  SetupSample s;
  const ssize_t got = ::read(fds[0], &s, sizeof s);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof s) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    throw std::runtime_error("set-up child failed");
  return s;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  i64 samples;
  std::string note;
};

void print_metric(const Metric& m) {
  std::cout << "metric " << m.name << " " << m.value << " " << m.unit
            << " samples=" << m.samples;
  if (!m.note.empty()) std::cout << " " << m.note;
  std::cout << "\n";
}

std::string json_result(const Tally& t, const std::vector<Metric>& ms) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (t.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i)
    os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
       << ms[i].value << ", \"unit\": \"" << ms[i].unit << "\"}";
  os << "}}";
  return os.str();
}

// Per-item median, combined as a geometric mean over items; and the
// tail: each op's latency over its item's median, pooled over the
// workload, at a fixed percentile, scaled by that geometric mean.
struct LatencySummary {
  double p50_ms = 0;
  double tail_ms = 0;
  i64 samples = 0;
  i64 beyond = 0;  ///< samples above the tail percentile
  i64 items = 0;
};

// The tail percentile of each workload: the highest of p99/p90/p75
// that leaves at least ten pooled samples beyond it in a 20 s run, with
// room to spare both ways. It is fixed, not recomputed from each run's
// sample count, so that the number of rounds a run completes (4 to 6
// on search) cannot move the percentile; above p99 the ~50 us
// exec_small ops measure the shared host's interrupts and preemption.
double tail_percentile(const std::string& workload) {
  if (workload == "search") return 75;      // 26 items x 4-6 rounds
  if (workload == "exec_large") return 90;  // 52 items x 15-30 rounds
  return 99;                                // exec_small: 52 x ~600 rounds
}

LatencySummary summarize(const std::vector<std::vector<i64>>& lat,
                         double tail_pct) {
  LatencySummary s;
  double log_sum = 0;
  std::vector<double> ratios;
  for (const std::vector<i64>& v : lat) {
    if (v.empty()) continue;
    std::vector<double> ms;
    for (i64 ns : v) ms.push_back(static_cast<double>(ns) / 1e6);
    const double med = median(ms);
    log_sum += std::log(med);
    ++s.items;
    for (double x : ms) ratios.push_back(x / med);
  }
  if (s.items == 0) return s;
  s.p50_ms = std::exp(log_sum / static_cast<double>(s.items));
  std::sort(ratios.begin(), ratios.end());
  const size_t n = ratios.size();
  const size_t rank = static_cast<size_t>(
      std::max(1.0, std::ceil(tail_pct / 100 * static_cast<double>(n))));
  s.samples = static_cast<i64>(n);
  s.beyond = static_cast<i64>(n - rank);
  s.tail_ms = s.p50_ms * ratios[rank - 1];
  return s;
}

// The per-layer metrics the traced run prints, in order, with units.
const std::vector<std::pair<std::string, std::string>>& layer_table() {
  static const std::vector<std::pair<std::string, std::string>> t = [] {
    std::vector<std::pair<std::string, std::string>> v;
    for (int l = 0; l < kLayers; ++l)
      v.emplace_back(layer_metric(static_cast<Layer>(l)), "ms");
    const std::pair<const char*, const char*> more[] = {
        {"dependence.deps", "count"},
        {"linalg.fm_eliminations", "count"},
        {"linalg.fm_cache_hit_ratio", "ratio"},
        {"transform.pruned_ratio", "ratio"},
        {"codegen.out_lines", "count"},
        {"tile.applied_ratio", "ratio"},
        {"exec.par.barrier_wait_share", "ratio"},
        {"exec.par.busy_share", "ratio"},
        {"exec.native.compile_ms", "ms"},
        {"exec.native.compiles", "count"},
        {"exec.native.lru_hits", "count"},
        {"exec.native.fallbacks", "count"},
        {"pipeline.session_ms", "ms"},
        {"pipeline.untraced_ms", "ms"},
        {"unattributed_ms", "ms"},
        {"trace.overhead_pct", "%"},
    };
    for (const auto& [name, unit] : more) v.emplace_back(name, unit);
    return v;
  }();
  return t;
}

// Removes the run's work directory (caches, kernels) on every exit.
struct WorkDir {
  std::string path;
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

int run_main(const Args& a) {
  const std::vector<CorpusEntry> corpus = load_corpus(a.corpus);
  Rng rng(a.seed);
  const unsigned fill_seed = static_cast<unsigned>(rng.next() & 0x7fffffff);
  const WorkDir work{a.work + "/" + a.workload + "-" +
                        std::to_string(::getpid())};
  fs::create_directories(work.path);
  auto cache_dir = [&](const std::string& tag) {
    return work.path + "/cache-" + tag;
  };

  Tally tally;
  std::vector<double> setup, rss;
  if (a.trace == 0) {
    // Forked before this process has run any system code or started a
    // thread, so every child starts from the same fresh state.
    for (int r = 0; r < kSetupReps; ++r) {
      SetupSample s =
          setup_in_child(a, corpus, fill_seed, cache_dir(std::to_string(r)));
      setup.push_back(s.seconds);
      rss.push_back(s.rss_mb);
      tally.attempted += s.attempted;
      tally.failed += s.failed;
      std::cerr << "set-up " << r << ": " << s.seconds << " s\n";
    }
  }

  std::unique_ptr<Workload> w = make_workload(a, corpus, fill_seed);
  i64 t_phase = now_ns();
  auto phase = [&](const char* what) {
    const i64 t = now_ns();
    std::cerr << what << ": " << static_cast<double>(t - t_phase) / 1e9
              << " s\n";
    t_phase = t;
  };
  w->build_items();
  phase("items");
  w->build_references();
  phase("references");
  const size_t n = w->size();
  SpanLog& log = SpanLog::global();
  inlt::Stats& stats = inlt::Stats::global();
  std::map<std::string, std::pair<double, std::string>> layer;

  if (a.trace == 0) {
    // Warm-up pass, untimed: kernels come from the last child's cache.
    use_cache_dir(cache_dir(std::to_string(kSetupReps - 1)));
    run_pass(*w, shuffled(n, rng), tally);
  } else {
    // Cold pass with spans on, for the compile rows of the ledger.
    use_cache_dir(cache_dir("trace"));
    const i64 compiles0 = stats.value("exec.native.compiles");
    log.enable(true);
    for (size_t i : shuffled(n, rng)) {
      log.begin_op("cold " + w->item_name(i));
      w->run(i, false);
      log.end_op();
      tally.note(w->item_name(i), w->check(i));
    }
    log.enable(false);
    layer["exec.native.compile_ms"] = {
        static_cast<double>(
            log.layer_ns()[static_cast<int>(Layer::kNativePrepare)]) /
            1e6,
        "ms"};
    layer["exec.native.compiles"] = {
        static_cast<double>(stats.value("exec.native.compiles") - compiles0),
        "count"};
    log.reset_sums();
  }
  phase(a.trace == 0 ? "warm-up" : "cold pass");

  // Timed phase: closed loop, whole rounds, until --seconds pass.
  std::vector<std::vector<i64>> lat(n), traced_lat(n);
  i64 untraced_ns = 0, fm_elims = 0, fm_hits = 0, fm_misses = 0;
  const i64 start = now_ns();
  const i64 budget = static_cast<i64>(a.seconds * 1e9);
  i64 rounds = 0;
  auto traced_op = [&](size_t i) {
    const i64 e0 = stats.value("fm.eliminations");
    const i64 h0 = stats.value("fm.cache_hits");
    const i64 m0 = stats.value("fm.cache_misses");
    log.enable(true);
    log.begin_op(w->item_name(i));
    w->run(i, true);
    traced_lat[i].push_back(log.end_op());
    log.enable(false);
    fm_elims += stats.value("fm.eliminations") - e0;
    fm_hits += stats.value("fm.cache_hits") - h0;
    fm_misses += stats.value("fm.cache_misses") - m0;
    tally.note(w->item_name(i) + " (traced)", w->check(i));
  };
  do {
    // The traced run pairs every op with its traced variant; odd rounds
    // run the traced one first, so neither always finds the other's
    // warm caches.
    const bool traced_first = a.trace == 1 && rounds % 2 == 1;
    for (size_t i : shuffled(n, rng)) {
      if (traced_first) traced_op(i);
      const i64 t0 = now_ns();
      w->run(i, false);
      const i64 t1 = now_ns();
      lat[i].push_back(t1 - t0);
      untraced_ns += t1 - t0;
      tally.note(w->item_name(i), w->check(i));
      if (a.trace == 1 && !traced_first) traced_op(i);
    }
    ++rounds;
  } while (now_ns() - start < budget);

  i64 ops = 0, busy_ns = 0;
  for (const auto& v : lat) {
    ops += static_cast<i64>(v.size());
    for (i64 x : v) busy_ns += x;
  }
  std::cout << "workload " << a.workload << " seed " << a.seed << " items "
            << n << " rounds " << rounds << " ops " << ops << "\n";

  std::vector<Metric> out;
  if (a.trace == 0) {
    const double tail_pct = tail_percentile(a.workload);
    const LatencySummary s = summarize(lat, tail_pct);
    std::ostringstream tail_note;
    tail_note << "percentile=p" << tail_pct << " beyond=" << s.beyond;
    if (s.beyond < 10) tail_note << " (fewer than 10 samples beyond)";
    out = {
        {"setup_s", median(setup), "s", static_cast<i64>(setup.size()), ""},
        {"ops_per_s", static_cast<double>(ops) * 1e9 / static_cast<double>(busy_ns),
         "1/s", ops, ""},
        {"latency_ms.p50", s.p50_ms, "ms", s.samples,
         "items=" + std::to_string(s.items)},
        {"latency_ms.tail", s.tail_ms, "ms", s.samples, tail_note.str()},
        {"peak_rss_mb", median(rss), "MB", static_cast<i64>(rss.size()), ""},
        {"gen_lines", static_cast<double>(w->gen_lines()), "lines", ops, ""},
    };
    for (const Metric& m : out) print_metric(m);
    // Not in the result object: it is 0 on a correct run, and the
    // object carries attempted and failed already.
    print_metric({"fail_rate",
                  static_cast<double>(tally.failed) /
                      static_cast<double>(std::max<i64>(tally.attempted, 1)),
                  "ratio", tally.attempted, ""});
  } else {
    const double tops = static_cast<double>(std::max<i64>(log.ops(), 1));
    double attributed = 0;
    for (int l = 0; l < kLayers; ++l) {
      const double ms = static_cast<double>(log.layer_ns()[l]) / 1e6 / tops;
      layer[layer_metric(static_cast<Layer>(l))] = {ms, "ms"};
      attributed += ms;
    }
    const double wall = static_cast<double>(log.op_wall_ns()) / 1e6 / tops;
    const double untraced = static_cast<double>(untraced_ns) / 1e6 / tops;
    layer["pipeline.session_ms"] = {wall, "ms"};
    layer["pipeline.untraced_ms"] = {untraced, "ms"};
    layer["unattributed_ms"] = {wall - attributed, "ms"};
    layer["trace.overhead_pct"] = {100.0 * (wall - untraced) / untraced, "%"};
    layer["linalg.fm_eliminations"] = {static_cast<double>(fm_elims) / tops,
                                       "count"};
    layer["linalg.fm_cache_hit_ratio"] = {
        fm_hits + fm_misses ? static_cast<double>(fm_hits) /
                                  static_cast<double>(fm_hits + fm_misses)
                            : 0.0,
        "ratio"};
    w->layer_counts(layer);
    std::cout << "ledger: layer rows " << attributed << " ms + unattributed "
              << wall - attributed << " ms = traced wall " << wall
              << " ms per op (untraced " << untraced << " ms per op)\n";
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> u, t;
      for (i64 x : lat[i]) u.push_back(static_cast<double>(x) / 1e6);
      for (i64 x : traced_lat[i]) t.push_back(static_cast<double>(x) / 1e6);
      if (u.empty() || t.empty()) continue;
      std::cout << "item " << w->item_name(i) << " samples=" << u.size()
                << " untraced_p50_ms=" << median(u)
                << " traced_p50_ms=" << median(t) << "\n";
    }
    for (const auto& [name, unit] : layer_table()) {
      auto it = layer.find(name);
      const double v = it == layer.end() ? 0.0 : it->second.first;
      out.push_back({name, v, unit, log.ops(), ""});
      print_metric(out.back());
    }
    // Beside the work directory: .bench_build/ when run by run.py.
    const std::string path =
        (fs::path(a.work).parent_path() /
         ("perfbench-trace-" + a.workload + "-seed" + std::to_string(a.seed) +
          ".json"))
            .string();
    if (log.write_chrome(path))
      std::cout << "trace: " << path << " (" << log.dropped()
                << " spans dropped)\n";
  }
  std::cout << json_result(tally, out) << std::endl;
  return 0;
}
}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  const pb::Args a = pb::parse_args(argc, argv);
  try {
    return pb::run_main(a);
  } catch (const std::exception& e) {
    std::cerr << "inlt_perfbench: " << e.what() << "\n";
    return 1;
  }
}
