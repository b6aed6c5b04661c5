// Self-tests of the harness's own pieces: the percentile and ten-beyond
// rule, the fixed-work generators (a seed fixes the op sequence), and
// each output checker catching a planted error.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "dfs/hopsfs.h"
#include "harness.h"
#include "link/spatial_links.h"
#include "repl/replicated_store.h"
#include "strabon/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;
int g_checks = 0;

void Expect(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  // Same values as Python's statistics.quantiles(method="inclusive").
  Expect(Near(Quantile({1, 2, 3, 4, 5}, 0.5), 3.0), "median of 1..5");
  Expect(Near(Quantile({4, 1, 3, 2}, 0.5), 2.5), "median of 1..4");
  Expect(Near(Quantile({1, 2, 3, 4}, 0.25), 1.75), "q1 of 1..4");
  Expect(Near(Quantile({10}, 0.99), 10.0), "single sample");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Expect(Near(Quantile(v, 0.99), 990.01), "p99 of 1..1000");
  // Ten-beyond rule: p99 needs ~1000 samples, p50 needs 20.
  Expect(TailSupported(1000, 0.99), "p99 supported at n=1000");
  Expect(!TailSupported(500, 0.99), "p99 unsupported at n=500");
  Expect(!TailSupported(0, 0.99), "p99 unsupported at n=0");
  Expect(TailSupported(20, 0.5), "p50 supported at n=20");
  Expect(!TailSupported(19, 0.5), "p50 unsupported at n=19");
  Expect(TailSupported(kTailBlock, 0.99), "a tail block supports its p99");
  // Block p99s: three blocks of 1..1000; the remainder joins the last.
  std::vector<double> blocks;
  for (int b = 0; b < 3; ++b) blocks.insert(blocks.end(), v.begin(), v.end());
  std::vector<double> p99s = BlockP99s(blocks);
  Expect(p99s.size() == 3 && Near(p99s[0], 990.01) && Near(p99s[2], 990.01),
         "block p99s of three blocks");
  blocks.resize(2500);
  p99s = BlockP99s(blocks);
  Expect(p99s.size() == 2 &&
             Near(p99s[1], Quantile(std::vector<double>(blocks.begin() + 1000,
                                                        blocks.end()),
                                    0.99)),
         "short remainder joins the last block");
  Expect(BlockP99s(std::vector<double>(999, 1.0)).empty(),
         "no tail block below 1000 samples");
  PassResult pass;
  pass.completed = 4;
  pass.busy_us = 20.0;
  Expect(Near(Throughput(pass), 2e5), "throughput: ops per busy second");
  pass.clients = 2;
  Expect(Near(Throughput(pass), 4e5), "throughput: side-by-side clients add up");
  size_t beyond = 0;
  for (double x : v) beyond += x > Quantile(v, 0.99) ? 1 : 0;
  Expect(beyond == 10, "exactly ten samples beyond p99 of 1..1000");
}

bool SameOps(const std::vector<MetaOp>& a, const std::vector<MetaOp>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type != b[i].type || a[i].path != b[i].path ||
        a[i].to != b[i].to || a[i].data != b[i].data ||
        a[i].size != b[i].size || a[i].list_hash != b[i].list_hash) {
      return false;
    }
  }
  return true;
}

bool SameBoxes(const std::vector<geo::Box>& a, const std::vector<geo::Box>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].min_x != b[i].min_x || a[i].min_y != b[i].min_y ||
        a[i].max_x != b[i].max_x || a[i].max_y != b[i].max_y) {
      return false;
    }
  }
  return true;
}

void TestFixedWork() {
  ScatterWaveGen s1(7), s2(7), s3(8);
  bool same = true, differs = false;
  for (int w = 0; w < 20; ++w) {
    const auto a = s1.Next(), b = s2.Next(), c = s3.Next();
    same = same && SameBoxes(a, b);
    differs = differs || !SameBoxes(a, c);
  }
  Expect(same, "scatter waves repeat for a seed");
  Expect(differs, "scatter waves change with the seed");

  HotWaveGen h1(7), h2(7);
  same = true;
  for (int w = 0; w < 20; ++w) {
    const auto a = h1.Next(), b = h2.Next();
    for (size_t i = 0; i < a.size(); ++i) {
      same = same && a[i].tenant == b[i].tenant && a[i].query == b[i].query;
    }
  }
  Expect(same, "hot waves repeat for a seed");
  Expect(SameBoxes(HotQueryPool(7), HotQueryPool(7)),
         "hot query pool repeats for a seed");

  const MetaClientPlan p1 = PlanMetaClient(7, 0, 2000, 20);
  const MetaClientPlan p2 = PlanMetaClient(7, 0, 2000, 20);
  const MetaClientPlan p3 = PlanMetaClient(8, 0, 2000, 20);
  Expect(SameOps(p1.preload, p2.preload) && SameOps(p1.ops, p2.ops),
         "meta ops repeat for a seed");
  Expect(!SameOps(p1.ops, p3.ops), "meta ops change with the seed");
  size_t kinds[5] = {};
  for (const MetaOp& op : p1.ops) ++kinds[static_cast<int>(op.type)];
  bool all = true;
  for (size_t k : kinds) all = all && k > 0;
  Expect(all, "meta plan uses every op type");
}

void TestSelectChecker() {
  const std::vector<double> xs = {1, 2, 3, 4, 5}, ys = {1, 2, 3, 4, 5};
  const std::vector<uint64_t> ids = {11, 12, 13, 14, 15};
  const PointOracle oracle(xs, ys, ids);
  const std::vector<geo::Box> boxes = {geo::Box::Of(1.5, 1.5, 4, 4),
                                       geo::Box::Of(0, 0, 1, 1)};
  Expect(oracle.Select(boxes[0]) == std::vector<uint64_t>({12, 13, 14}),
         "oracle: inclusive boundary");
  // Digests of a two-member wave: the oracle's, and the program's with a
  // correct, a dropped-id and a wrong-id answer.
  auto digest = [](const std::vector<std::vector<uint64_t>>& answers) {
    WaveDigest d;
    for (const auto& ids : answers) d.Add(HashIds(ids));
    return d.value();
  };
  const std::vector<uint64_t> want = {
      digest({oracle.Select(boxes[0]), oracle.Select(boxes[1])})};
  Expect(CheckWaveDigests({digest({{12, 13, 14}, {11}})}, want).empty(),
         "select check passes");
  Expect(!CheckWaveDigests({digest({{12, 14}, {11}})}, want).empty(),
         "select check catches a dropped id");
  Expect(!CheckWaveDigests({digest({{12, 13, 15}, {11}})}, want).empty(),
         "select check catches a wrong id");
  Expect(!CheckWaveDigests({digest({{11}, {12, 13, 14}})}, want).empty(),
         "select check catches answers swapped between members");
}

void TestNamespaceChecker() {
  exearth::repl::ReplOptions opt;  // volatile: no data_dir
  opt.num_shards = 2;
  auto store = std::move(exearth::repl::ReplicatedKvStore::Open(opt)).value();
  exearth::dfs::HopsFsCluster cluster(exearth::dfs::HopsFsCluster::Options{},
                                      store.get(), 2);
  exearth::dfs::HopsFsNameNode nn(&cluster);
  Expect(nn.Mkdir("/a").ok() && nn.Create("/a/x", 4, "abcd").ok(),
         "namespace set-up");
  NamespaceModel model;
  model.dirs["/a"]["x"] = 4;
  Expect(CompareNamespace(model, &nn).empty(), "namespace check passes");
  NamespaceModel lost = model;
  lost.dirs["/a"]["y"] = 8;  // acknowledged create the store lost
  const std::string err = CompareNamespace(lost, &nn);
  Expect(err.find("missing") != std::string::npos,
         "namespace check catches a lost create");
  NamespaceModel resized = model;
  resized.dirs["/a"]["x"] = 5;
  Expect(!CompareNamespace(resized, &nn).empty(),
         "namespace check catches a wrong size");
  Expect(HashNames({"a", "b"}) == HashNames({"b", "a"}) &&
             HashNames({"ab"}) != HashNames({"a", "b"}),
         "listing hash ignores order, keeps names apart");
}

void TestLinkCheckers() {
  exearth::common::Rng rng(3);
  std::vector<geo::Geometry> a, b;
  for (int i = 0; i < 40; ++i) {
    a.emplace_back(exearth::strabon::RandomPolygon(
        rng.UniformDouble(0, 300), rng.UniformDouble(0, 300), 60, 8, &rng));
    b.emplace_back(exearth::strabon::RandomPolygon(
        rng.UniformDouble(0, 300), rng.UniformDouble(0, 300), 60, 8, &rng));
  }
  exearth::link::SpatialLinkOptions indexed, nested;
  nested.use_index = false;
  const auto got = exearth::link::DiscoverSpatialLinks(a, b, indexed);
  const auto ref = exearth::link::DiscoverSpatialLinks(a, b, nested);
  std::vector<std::pair<uint64_t, uint64_t>> got_pairs, ref_pairs;
  for (const auto& [i, j] : got.links) got_pairs.emplace_back(i, j);
  for (const auto& [i, j] : ref.links) ref_pairs.emplace_back(i, j);
  std::vector<uint64_t> sample;
  for (uint64_t i = 0; i < 40; i += 2) sample.push_back(i);
  std::vector<std::pair<uint64_t, uint64_t>> ref_sample;
  for (const auto& p : ref_pairs) {
    if (p.first % 2 == 0) ref_sample.push_back(p);
  }
  Expect(!ref_sample.empty(), "link fixture has links on the sample");
  Expect(CheckSampledPairs(got_pairs, sample, ref_sample, "links").empty(),
         "link check passes");
  auto missing = got_pairs;
  for (size_t i = 0; i < missing.size(); ++i) {
    if (missing[i].first % 2 == 0) {
      missing.erase(missing.begin() + static_cast<long>(i));
      break;
    }
  }
  Expect(CheckSampledPairs(missing, sample, ref_sample, "links")
                 .find("missing") != std::string::npos,
         "link check catches a missing link");
  auto extra = got_pairs;
  extra.emplace_back(0, 1000);  // b has 40 entries: no such link
  Expect(!CheckSampledPairs(extra, sample, ref_sample, "links").empty(),
         "link check catches an invented link");

  std::vector<std::pair<uint64_t, uint64_t>> ab = {{1, 2}, {3, 4}};
  std::vector<std::pair<uint64_t, uint64_t>> ba = {{4, 3}, {2, 1}};
  Expect(CheckSymmetric(ab, ba).empty(), "symmetry check passes");
  ba.pop_back();
  Expect(!CheckSymmetric(ab, ba).empty(), "symmetry check catches a gap");
}

}  // namespace

int RunSelfTests() {
  TestPercentiles();
  TestFixedWork();
  TestSelectChecker();
  TestNamespaceChecker();
  TestLinkCheckers();
  std::printf("selftest: %d of %d checks passed\n", g_checks - g_failures,
              g_checks);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
