// The four workloads. Each Run* function performs one pass: set-up, a
// timed phase of fixed work, the output checks, then config.setup_reps - 1
// further set-ups, timed only (setup_s is the median of all). With
// config.traced it also records spans and fills PassResult::layer with
// its per-layer metrics.
//
// The generators are exposed so the self-tests can check that a seed
// fixes the operation sequence.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "geo/geometry.h"
#include "harness.h"

namespace perfbench {

PassResult RunServeScatter(const PassConfig& config);
PassResult RunServeHot(const PassConfig& config);
PassResult RunMetaChurn(const PassConfig& config);
PassResult RunLinkJoin(const PassConfig& config);

/// serve_scatter's requests: every box unique, uniform over the world.
class ScatterWaveGen {
 public:
  explicit ScatterWaveGen(uint64_t seed);
  /// The next wave's boxes (member i belongs to tenant i % 8).
  std::vector<geo::Box> Next();

 private:
  exearth::common::Rng rng_;
};

/// serve_hot's requests: (tenant, pool query) pairs drawn from Zipf
/// users and a Zipf-popular query pool.
struct HotMember {
  uint32_t tenant = 0;
  uint32_t query = 0;
};
class HotWaveGen {
 public:
  explicit HotWaveGen(uint64_t seed);
  std::vector<HotMember> Next();

 private:
  exearth::common::Rng rng_;
};
/// The query pool of serve_hot for `seed`.
std::vector<geo::Box> HotQueryPool(uint64_t seed);

/// One namenode operation of meta_churn with the outcome the model
/// predicts.
enum class MetaOpType { kCreate, kRename, kRemove, kStat, kList };
struct MetaOp {
  MetaOpType type = MetaOpType::kCreate;
  std::string path;
  std::string to;          // kRename destination
  std::string data;        // kCreate payload (inline file contents)
  uint64_t size = 0;       // kCreate size; kStat expected size
  uint64_t list_hash = 0;  // kList expected listing hash
};
const char* MetaOpName(MetaOpType t);

/// The fixed plan of one meta_churn client: the files preloaded in
/// set-up, the timed op sequence (each op with the outcome the model
/// predicts) and the namespace the client's directories must hold after
/// the last op.
struct MetaClientPlan {
  std::vector<MetaOp> preload;
  std::vector<MetaOp> ops;
  NamespaceModel final_model;
};
MetaClientPlan PlanMetaClient(uint64_t seed, int client, size_t ops,
                              size_t files_per_dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
