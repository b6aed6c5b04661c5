// Shared pieces of the perfbench harness: the pass configuration and
// result every workload fills, the in-memory span recorder of the traced
// run, percentiles with the ten-beyond rule and process statistics.
//
// Timing rule: the harness times every operation around its own call
// into the program (steady_clock); no latency the program reports about
// itself is used.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds between two steady_clock points.
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// One finished span: a benchmark call into a layer's public function.
/// Spans of one operation share `op`; `parent` is the index of the span
/// that caused this one, -1 for a root.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t op = 0;
  int parent = -1;
};

/// Records spans in memory when enabled; a disabled tracer records
/// nothing and costs one branch per call site. Single-threaded callers
/// only (the multi-client workload gives each client its own tracer).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its index (-1 when disabled).
  int Begin(const char* name, uint64_t op, int parent = -1);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations in microseconds of every span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Appends another tracer's spans (parents re-based).
  void Absorb(const Tracer& other);

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Inputs of one pass of a workload.
struct PassConfig {
  uint64_t seed = 1;
  /// Scales the fixed work: a workload runs seconds x its rate units
  /// (waves, jobs, ops), however fast or slow the machine is.
  double seconds = 10.0;
  /// Independent set-ups performed; setup_s is their median. The timed
  /// phase runs on the first; the others follow it, timed only.
  int setup_reps = 1;
  bool traced = false;
  /// Directory for on-disk state (index pages, WALs); created and
  /// removed by the pass.
  std::string workdir;
};

/// What one pass measured and checked.
struct PassResult {
  bool correct = true;
  std::string error;  // first failed check
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> setup_s;  // one per set-up repetition
  /// Peak resident set (MiB) after the first set-up, the timed phase and
  /// the checks, before the further set-ups.
  double peak_rss_mb = 0.0;
  /// Operations completed in the timed phase, the time the clients spent
  /// inside the program's calls (summed over clients), and the number of
  /// clients that ran side by side.
  uint64_t completed = 0;
  double busy_us = 0.0;
  int clients = 1;
  /// Independent latency samples in the order taken, client by client
  /// when there are several (a wave is one sample).
  std::vector<double> sample_latency_us;
  /// Per-layer metrics (traced passes only): name -> value.
  std::map<std::string, double> layer;
  Tracer tracer{false};

  /// Records the first failed check.
  void Fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

/// Quantile q in [0, 1] of `v` by linear interpolation between closest
/// ranks (the definition of numpy's default and Python's
/// statistics.quantiles(method="inclusive")). 0 for an empty input.
double Quantile(std::vector<double> v, double q);

/// True when at least ten of `n` samples lie above the q-quantile, i.e.
/// the percentile is supported by a tail and not a single outlier.
bool TailSupported(size_t n, double q);

double Median(std::vector<double> v);

/// Samples per block of the tail estimate: the least count that leaves
/// ten samples beyond a p99.
constexpr size_t kTailBlock = 1000;

/// The p99 of each block when `samples` (in the order they were taken)
/// are cut into consecutive blocks of kTailBlock; the remainder joins the
/// last block. Empty when there are fewer than kTailBlock samples.
std::vector<double> BlockP99s(const std::vector<double>& samples);

/// Peak resident set of this process so far, MiB.
double PeakRssMb();

/// Returns the heap's free pages to the OS (malloc_trim). Called before
/// each set-up repetition, outside its timing, so that each starts from
/// memory as a fresh process would.
void ReleaseFreedMemory();

/// Order-sensitive FNV-1a over 64-bit values.
uint64_t HashIds(const std::vector<uint64_t>& ids);

/// Total bytes of the regular files under `dir` (recursive).
uint64_t DirectoryBytes(const std::string& dir);

/// Value of a process-wide MetricsRegistry counter.
uint64_t CounterValue(const std::string& name);

/// a / b, or 0 when b is 0 (a layer that did no work of that kind).
inline double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Operations completed per second spent inside the program's calls; the
/// rates of clients that ran side by side add up.
inline double Throughput(const PassResult& r) {
  return Ratio(static_cast<double>(r.completed) * r.clients * 1e6, r.busy_us);
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
