#pragma once

/// \file bench.h
/// Pieces shared by the perfbench workloads: command-line options, the
/// clock, sample statistics, the result report printed as the last line of
/// standard output, and the span tracer of the traced mode.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/value.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string dir;  ///< scratch directory for the WAL, heap file and trace
};

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();
/// Seconds since the process started (static initialisation of this
/// binary), the base of every workload's `setup_s`.
double SecondsSinceStart();
/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Runs `round` (one whole round of a workload's operations) until
/// `seconds` have passed since the call, and at least once. Returns the
/// elapsed seconds.
double RunRounds(double seconds, const std::function<void()> &round);

/// Exact comparison of two result rows, value by value: integers must be
/// integers with the same value; doubles compare bit-exactly as numbers.
bool SameRows(const std::vector<mb2::Tuple> &a, const std::vector<mb2::Tuple> &b);

/// Result of one run. `Fail` marks an output check as failed; the run then
/// prints `"correct": false` and exits non-zero.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string &name, double value, const std::string &unit);
  /// Records a failed check (the first few are printed to stderr).
  void Fail(const std::string &what);
  std::string Json() const;

 private:
  int failures_printed_ = 0;
};

/// Adds the end-to-end metrics every workload reports: setup_s, ops_per_s,
/// op_p50_us, op_p99_us and peak_rss_mb (read now). The measured phase,
/// which began at `start_ns` and lasted at least `seconds`, is cut into
/// one-second windows; throughput, p50 and p99 are computed per window from
/// the operations that completed in it (`end_ns`, `op_us` are parallel),
/// and each metric is the median over the windows, so a burst of outside
/// load that hits a few windows does not move it.
void AddEndToEnd(double setup_s, int64_t start_ns, int seconds,
                 const std::vector<int64_t> &end_ns, const std::vector<double> &op_us,
                 Report *report);

/// Every per-layer metric, in report order, with its unit. The traced mode
/// of every workload prints all of them; a layer that is not on a
/// workload's path reads 0 there (README.md, "Layers").
struct MetricDef {
  const char *name;
  const char *unit;
};
const std::vector<MetricDef> &PerLayerMetrics();
/// Adds every per-layer metric to `report`, taking the value from
/// `measured` by name (0 when absent). Unknown names in `measured` are a bug
/// and fail the report.
void AddPerLayer(const std::vector<std::pair<std::string, double>> &measured,
                 Report *report);

/// One recorded span: a call into a layer's public entry point, timed from
/// the benchmark's own code. Spans of one operation share `op`; `parent` is
/// the id of the enclosing span (0 = none).
struct Span {
  const char *name = nullptr;
  uint64_t op = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder for the traced mode. Single-threaded: the traced
/// replay runs on one thread. Spans are written out once, at exit.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer *tracer, const char *name, uint64_t op);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

   private:
    Tracer *tracer_;
    size_t index_;
  };

  Tracer() { spans_.reserve(1 << 16); }

  /// Median duration of spans called `name` (0 when there are none).
  double MedianUs(std::string_view name) const;
  /// Median over spans called `name` whose operation carries a span called
  /// `op_class` (e.g. the tokenize time of point reads only).
  double MedianUsWithin(std::string_view name, std::string_view op_class) const;

  /// Writes one CSV line per span: op,id,parent,name,start_ns,end_ns.
  bool Write(const std::string &path) const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
};

}  // namespace perfbench
