// Output checks that do not trust the program: each compares what the
// program returned with an answer computed independently (brute force
// over the generated coordinates, a model namespace kept by the harness)
// or with a property the answer must have. Every check returns an empty
// string when it passes and a description of the first difference
// otherwise; the self-tests plant errors to prove each one fires.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dfs/filesystem.h"
#include "geo/geometry.h"

namespace perfbench {

namespace geo = exearth::geo;

/// Brute-force point-in-box answers over the coordinates the harness
/// generated itself (points sorted by x, then a linear y screen).
class PointOracle {
 public:
  PointOracle(const std::vector<double>& xs, const std::vector<double>& ys,
              const std::vector<uint64_t>& ids);
  /// Ids of the points inside `box` (boundary inclusive), ascending.
  std::vector<uint64_t> Select(const geo::Box& box) const;

 private:
  struct Pt {
    double x, y;
    uint64_t id;
  };
  std::vector<Pt> by_x_;
};

/// Order-sensitive digest of one wave's answers: the hash of each
/// member's ids (ascending, as both the program and the oracle return
/// them) folded in member order. The serving workloads keep one digest
/// per wave in the timed phase and rebuild it from the oracle afterwards,
/// so the check's state is eight bytes per wave.
class WaveDigest {
 public:
  /// Folds in the next member's answer, given as HashIds of its ids.
  void Add(uint64_t answer_hash);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Compares the digests the program's answers produced with the
/// oracle's, wave by wave.
std::string CheckWaveDigests(const std::vector<uint64_t>& got,
                             const std::vector<uint64_t>& want);

/// The namespace the harness expects: directory path -> file name ->
/// size in bytes.
struct NamespaceModel {
  std::map<std::string, std::map<std::string, uint64_t>> dirs;
};

/// Hash of a directory listing in name order (what `list` must return).
uint64_t HashNames(std::vector<std::string> names);

/// Lists every model directory and stats every model file through `fs`:
/// listings must equal the model's names exactly, stats its sizes.
std::string CompareNamespace(const NamespaceModel& model,
                             exearth::dfs::FileSystem* fs);

/// Restriction of `pairs` to those whose first element is in `sample`
/// must equal `reference` (the exhaustive answer for the sample), as
/// sets. Used for link discovery (indices) and joins (subject ids).
template <typename T>
std::string CheckSampledPairs(std::vector<std::pair<T, T>> pairs,
                              std::vector<T> sample,
                              std::vector<std::pair<T, T>> reference,
                              const std::string& what) {
  std::sort(sample.begin(), sample.end());
  std::vector<std::pair<T, T>> got;
  for (const auto& p : pairs) {
    if (std::binary_search(sample.begin(), sample.end(), p.first)) {
      got.push_back(p);
    }
  }
  std::sort(got.begin(), got.end());
  std::sort(reference.begin(), reference.end());
  if (got == reference) return "";
  for (const auto& r : reference) {
    if (!std::binary_search(got.begin(), got.end(), r)) {
      return what + ": missing pair (" + std::to_string(r.first) + ", " +
             std::to_string(r.second) + ") of the exhaustive answer";
    }
  }
  return what + ": " + std::to_string(got.size()) +
         " pairs on the sample, exhaustive answer has " +
         std::to_string(reference.size());
}

/// An intersects join is symmetric: join(B, A) is join(A, B) reversed.
std::string CheckSymmetric(
    const std::vector<std::pair<uint64_t, uint64_t>>& ab,
    const std::vector<std::pair<uint64_t, uint64_t>>& ba);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
