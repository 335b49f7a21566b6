#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_set>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
// Dynamic initialisation runs before main(), so this is as close to the
// process's start as the binary itself can observe.
const int64_t kProcessStartNs = NowNs();
}  // namespace

double SecondsSinceStart() {
  return static_cast<double>(NowNs() - kProcessStartNs) / 1e9;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                   values.end());
  return values[index];
}

double RunRounds(double seconds, const std::function<void()> &round) {
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  do {
    round();
  } while (NowNs() < deadline);
  return static_cast<double>(NowNs() - start) / 1e9;
}

bool SameRows(const std::vector<mb2::Tuple> &a,
              const std::vector<mb2::Tuple> &b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); r++) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); c++) {
      const mb2::Value &x = a[r][c];
      const mb2::Value &y = b[r][c];
      if (x.type() != y.type()) return false;
      if (x.type() == mb2::TypeId::kInteger) {
        if (x.AsInt() != y.AsInt()) return false;
      } else if (x.type() == mb2::TypeId::kDouble) {
        if (x.AsDouble() != y.AsDouble()) return false;
      } else if (x.Compare(y) != 0) {
        return false;
      }
    }
  }
  return true;
}

void Report::Add(const std::string &name, double value, const std::string &unit) {
  metrics.push_back({name, value, unit});
}

void Report::Fail(const std::string &what) {
  correct = false;
  if (failures_printed_ < 10) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    failures_printed_++;
  }
}

std::string Report::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); i++) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << buf << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

void AddEndToEnd(double setup_s, int64_t start_ns, int seconds,
                 const std::vector<int64_t> &end_ns, const std::vector<double> &op_us,
                 Report *report) {
  const auto windows = static_cast<size_t>(std::max(1, seconds));
  std::vector<std::vector<double>> per_window(windows);
  for (size_t i = 0; i < end_ns.size(); i++) {
    const int64_t w = (end_ns[i] - start_ns) / 1'000'000'000;
    if (w >= 0 && static_cast<size_t>(w) < windows) {
      per_window[static_cast<size_t>(w)].push_back(op_us[i]);
    }
  }
  std::vector<double> rate, p50, p99;
  for (const std::vector<double> &w : per_window) {
    rate.push_back(static_cast<double>(w.size()));
    p50.push_back(Percentile(w, 0.50));
    p99.push_back(Percentile(w, 0.99));
  }
  report->Add("setup_s", setup_s, "s");
  report->Add("ops_per_s", Median(rate), "op/s");
  report->Add("op_p50_us", Median(p50), "us");
  report->Add("op_p99_us", Median(p99), "us");
  report->Add("peak_rss_mb", PeakRssMb(), "MiB");
}

const std::vector<MetricDef> &PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"write_p50_us", "us"},
      {"write_p99_us", "us"},
      {"wal_bytes_per_write", "B"},
      {"net.ping_p50_us", "us"},
      {"net.unattributed_p50_us", "us"},
      {"net.encode_us", "us"},
      {"net.decode_us", "us"},
      {"net.bytes_per_op", "B"},
      {"catalog.knob_read_ns", "ns"},
      {"sql.tokenize_us", "us"},
      {"sql.normalize_us", "us"},
      {"sql.cache_lookup_us", "us"},
      {"sql.instantiate_us", "us"},
      {"sql.cache_hit_ratio", "ratio"},
      {"sql.parse_bind_us", "us"},
      {"plan.join_regret", "ratio"},
      {"exec.point_us", "us"},
      {"exec.write_us", "us"},
      {"exec.scan_agg_us", "us"},
      {"exec.join_us", "us"},
      {"txn.begin_us", "us"},
      {"txn.commit_us", "us"},
      {"txn.aborts", "count"},
      {"wal.flush_us", "us"},
      {"wal.records_per_write", "count"},
      {"storage.heap_scan_us", "us"},
      {"storage.pool_hit_ratio", "ratio"},
      {"storage.pool_misses_per_op", "count"},
      {"modeling.translate_us", "us"},
      {"modeling.predict_ous_us", "us"},
      {"modeling.ous_per_call", "count"},
      {"modeling.predict_interval_us", "us"},
      {"modeling.ou_cache_hit_ratio", "ratio"},
      {"ml.predict_row_ns", "ns"},
      {"ml.train_s", "s"},
      {"runner.sweep_s", "s"},
      {"selfdriving.evaluate_us", "us"},
      {"selfdriving.replan_us", "us"},
      {"selfdriving.replans_per_decision", "count"},
      {"obs.on_off_ratio", "ratio"},
      {"trace.sum_to_whole", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

void AddPerLayer(const std::vector<std::pair<std::string, double>> &measured,
                 Report *report) {
  for (const auto &[name, value] : measured) {
    const auto &defs = PerLayerMetrics();
    if (std::none_of(defs.begin(), defs.end(),
                     [&](const MetricDef &d) { return name == d.name; })) {
      report->Fail("unknown per-layer metric " + name);
    }
  }
  for (const MetricDef &def : PerLayerMetrics()) {
    double value = 0.0;
    for (const auto &[name, v] : measured) {
      if (name == def.name) value = v;
    }
    report->Add(def.name, value, def.unit);
  }
}

Tracer::Scope::Scope(Tracer *tracer, const char *name, uint64_t op)
    : tracer_(tracer), index_(tracer->spans_.size()) {
  Span span;
  span.name = name;
  span.op = op;
  span.id = static_cast<uint32_t>(index_ + 1);
  span.parent = tracer->stack_.empty() ? 0 : tracer->stack_.back();
  tracer->stack_.push_back(span.id);
  span.start_ns = NowNs();
  tracer->spans_.push_back(span);
}

Tracer::Scope::~Scope() {
  tracer_->spans_[index_].end_ns = NowNs();
  tracer_->stack_.pop_back();
}

double Tracer::MedianUs(std::string_view name) const {
  std::vector<double> out;
  for (const Span &s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return Median(std::move(out));
}

double Tracer::MedianUsWithin(std::string_view name,
                              std::string_view op_class) const {
  std::unordered_set<uint64_t> ops;
  for (const Span &s : spans_) {
    if (op_class == s.name) ops.insert(s.op);
  }
  std::vector<double> out;
  for (const Span &s : spans_) {
    if (name == s.name && ops.count(s.op) != 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return Median(std::move(out));
}

bool Tracer::Write(const std::string &path) const {
  std::FILE *f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op,id,parent,name,start_ns,end_ns\n");
  for (const Span &s : spans_) {
    std::fprintf(f, "%llu,%u,%u,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(s.op), s.id, s.parent, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
