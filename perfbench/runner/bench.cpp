#include "bench.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ir/printer.hpp"

namespace pb {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

}  // namespace

std::vector<CorpusEntry> load_corpus(const std::string& dir) {
  std::istringstream manifest(read_file(dir + "/corpus.txt"));
  std::vector<CorpusEntry> out;
  std::string line;
  while (std::getline(manifest, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string file;
    ls >> file;
    std::string property;
    std::getline(ls >> std::ws, property);
    const std::string ext = ".loop";
    if (file.size() <= ext.size() ||
        file.compare(file.size() - ext.size(), ext.size(), ext) != 0 ||
        property.empty())
      throw std::runtime_error("corpus.txt: malformed line: " + line);
    out.push_back({file.substr(0, file.size() - ext.size()),
                   read_file(dir + "/" + file), property});
  }
  if (out.empty()) throw std::runtime_error("corpus.txt lists no nest");
  return out;
}

std::map<std::string, i64> bind_params(const inlt::Program& p, i64 n, i64 t) {
  std::map<std::string, i64> out;
  for (const std::string& name : p.params()) {
    if (name == "N")
      out[name] = n;
    else if (name == "T")
      out[name] = t;
    else
      throw std::runtime_error("no binding for parameter " + name);
  }
  return out;
}

i64 printed_lines(const inlt::Program& p) {
  const std::string text = inlt::print_program(p);
  i64 lines = 0;
  for (char c : text) lines += c == '\n';
  return lines;
}

const char* layer_metric(Layer l) {
  static constexpr const char* kNames[kLayers] = {
      "ir.parse_ms",           "instance.layout_ms",
      "dependence.analyze_ms", "transform.legality_ms",
      "transform.complete_ms", "model.estimate_ms",
      "codegen.generate_ms",   "tile.plan_ms",
      "tile.apply_ms",         "exec.verify.reference_ms",
      "exec.verify.check_ms",  "exec.declare_ms",
      "exec.fill_ms",          "exec.vm.compile_ms",
      "exec.vm.run_ms",        "exec.native.prepare_ms",
      "exec.native.run_ms",    "exec.par.run_ms",
  };
  return kNames[static_cast<int>(l)];
}

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

void SpanLog::begin_op(const std::string& item) {
  op_ = static_cast<int>(op_items_.size());
  op_items_.push_back(item);
  op_t0_ = now_ns();
}

i64 SpanLog::end_op() {
  const i64 t1 = now_ns();
  if (spans_.size() < kMaxSpans)
    spans_.push_back({-1, op_, op_t0_, t1});
  else
    ++dropped_;
  wall_ns_ += t1 - op_t0_;
  ++ops_;
  op_ = -1;
  return t1 - op_t0_;
}

void SpanLog::add(Layer l, i64 t0, i64 t1) {
  layer_ns_[static_cast<int>(l)] += t1 - t0;
  if (spans_.size() < kMaxSpans)
    spans_.push_back({static_cast<int>(l), op_, t0, t1});
  else
    ++dropped_;
}

void SpanLog::reset_sums() {
  layer_ns_.fill(0);
  wall_ns_ = 0;
  ops_ = 0;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const i64 base = spans_.empty() ? 0 : spans_.front().t0;
  f << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    const char* name =
        r.layer < 0 ? "op" : layer_metric(static_cast<Layer>(r.layer));
    f << (i ? ",\n" : "") << "{\"name\":\"" << name
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
      << static_cast<double>(r.t0 - base) / 1e3
      << ",\"dur\":" << static_cast<double>(r.t1 - r.t0) / 1e3
      << ",\"args\":{\"op\":" << r.op;
    if (r.op >= 0 && r.op < static_cast<int>(op_items_.size()))
      f << ",\"item\":\"" << op_items_[r.op] << "\"";
    f << "}}";
  }
  f << "\n],\"droppedSpans\":" << dropped_ << "}\n";
  return static_cast<bool>(f);
}

}  // namespace pb
