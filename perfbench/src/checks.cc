#include "checks.h"

#include "harness.h"

namespace perfbench {

PointOracle::PointOracle(const std::vector<double>& xs,
                         const std::vector<double>& ys,
                         const std::vector<uint64_t>& ids) {
  by_x_.reserve(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) by_x_.push_back({xs[i], ys[i], ids[i]});
  std::sort(by_x_.begin(), by_x_.end(),
            [](const Pt& a, const Pt& b) { return a.x < b.x; });
}

std::vector<uint64_t> PointOracle::Select(const geo::Box& box) const {
  std::vector<uint64_t> out;
  auto it = std::lower_bound(
      by_x_.begin(), by_x_.end(), box.min_x,
      [](const Pt& p, double x) { return p.x < x; });
  for (; it != by_x_.end() && it->x <= box.max_x; ++it) {
    if (it->y >= box.min_y && it->y <= box.max_y) out.push_back(it->id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void WaveDigest::Add(uint64_t answer_hash) {
  h_ = (h_ ^ answer_hash) * 0x100000001b3ULL;
  h_ ^= h_ >> 29;
}

std::string CheckWaveDigests(const std::vector<uint64_t>& got,
                             const std::vector<uint64_t>& want) {
  if (got.size() != want.size()) {
    return "select check: " + std::to_string(got.size()) +
           " waves answered, " + std::to_string(want.size()) + " expected";
  }
  for (size_t w = 0; w < got.size(); ++w) {
    if (got[w] != want[w]) {
      return "select wave " + std::to_string(w) +
             ": answers differ from brute force";
    }
  }
  return "";
}

uint64_t HashNames(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& n : names) {
    for (unsigned char c : n) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;  // separator: {"ab"} and {"a","b"} differ
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string CompareNamespace(const NamespaceModel& model,
                             exearth::dfs::FileSystem* fs) {
  for (const auto& [dir, files] : model.dirs) {
    auto listed = fs->List(dir);
    if (!listed.ok()) {
      return "list " + dir + ": " + listed.status().ToString();
    }
    std::vector<std::string> got = *listed;
    std::sort(got.begin(), got.end());
    std::vector<std::string> want;
    for (const auto& [name, size] : files) want.push_back(name);
    if (got != want) {
      for (const std::string& w : want) {
        if (!std::binary_search(got.begin(), got.end(), w)) {
          return "list " + dir + ": acknowledged file '" + w + "' is missing";
        }
      }
      return "list " + dir + ": " + std::to_string(got.size()) +
             " entries, model has " + std::to_string(want.size());
    }
    for (const auto& [name, size] : files) {
      const std::string path = dir + "/" + name;
      auto info = fs->GetFileInfo(path);
      if (!info.ok()) return "stat " + path + ": " + info.status().ToString();
      if (info->is_directory || info->size_bytes != size) {
        return "stat " + path + ": size " + std::to_string(info->size_bytes) +
               ", model says " + std::to_string(size);
      }
    }
  }
  return "";
}

std::string CheckSymmetric(
    const std::vector<std::pair<uint64_t, uint64_t>>& ab,
    const std::vector<std::pair<uint64_t, uint64_t>>& ba) {
  std::vector<std::pair<uint64_t, uint64_t>> flipped;
  flipped.reserve(ba.size());
  for (const auto& [b, a] : ba) flipped.emplace_back(a, b);
  std::sort(flipped.begin(), flipped.end());
  std::vector<std::pair<uint64_t, uint64_t>> sorted_ab = ab;
  std::sort(sorted_ab.begin(), sorted_ab.end());
  if (flipped == sorted_ab) return "";
  return "intersects join is not symmetric: " + std::to_string(ab.size()) +
         " pairs one way, " + std::to_string(ba.size()) + " the other";
}

}  // namespace perfbench
