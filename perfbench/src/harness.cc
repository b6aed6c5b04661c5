#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <system_error>

#include "common/metrics.h"

namespace perfbench {

int Tracer::Begin(const char* name, uint64_t op, int parent) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.op = op;
  s.parent = parent;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    }
  }
  return out;
}

void Tracer::Absorb(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  const int64_t shift = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            other.origin_ - origin_)
                            .count();
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    s.start_ns += shift;
    s.end_ns += shift;
    spans_.push_back(s);
  }
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

bool TailSupported(size_t n, double q) {
  // Samples strictly above the quantile's rank position.
  const double pos = q * static_cast<double>(n == 0 ? 0 : n - 1);
  const size_t at_or_below = static_cast<size_t>(std::floor(pos)) + 1;
  return n >= at_or_below && n - at_or_below >= 10;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

std::vector<double> BlockP99s(const std::vector<double>& samples) {
  const size_t blocks = samples.size() / kTailBlock;
  std::vector<double> p99s;
  for (size_t b = 0; b < blocks; ++b) {
    const auto first = samples.begin() + static_cast<long>(b * kTailBlock);
    const auto last = b + 1 == blocks
                          ? samples.end()
                          : first + static_cast<long>(kTailBlock);
    p99s.push_back(Quantile(std::vector<double>(first, last), 0.99));
  }
  return p99s;
}

double PeakRssMb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void ReleaseFreedMemory() { ::malloc_trim(0); }

uint64_t HashIds(const std::vector<uint64_t>& ids) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t v : ids) {
    h ^= v;
    h *= 0x100000001b3ULL;
  }
  h ^= ids.size();
  h *= 0x100000001b3ULL;
  return h;
}

uint64_t DirectoryBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

uint64_t CounterValue(const std::string& name) {
  return exearth::common::MetricsRegistry::Default().GetCounter(name)->value();
}

}  // namespace perfbench
