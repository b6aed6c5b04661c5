// serve_scatter and serve_hot: closed-loop waves through
// serve::QueryBroker::ExecuteWave over a 50k-point GeoStore whose index
// was frozen to disk and reopened through a buffer pool smaller than the
// index (a restarted server).
//
// serve_scatter: every box is unique, so every request misses the cache
// and the time goes to batching's shared traversal and the index probe,
// SIMD screen and refinement.
// serve_hot: Zipf users over the tenants and a Zipf-popular query pool
// whose (tenant, query) working set exceeds the result cache, so cache
// hits, misses and evictions, quota, admission and fair ordering
// dominate and index work is small.

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "checks.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "rdf/term.h"
#include "serve/broker.h"
#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"
#include "strabon/geostore.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace serve = exearth::serve;
namespace storage = exearth::storage;
namespace strabon = exearth::strabon;
using exearth::common::Rng;

constexpr size_t kPoints = 50000;
constexpr double kWorld = 100000.0;
// Boxes cover 1e-4 of the world's area: ~5 points each.
constexpr double kBoxSide = kWorld * 0.01;
constexpr uint32_t kTenants = 8;
constexpr size_t kWaveSize = 64;
// Waves per second of --seconds (fixed work: the count depends only on
// --seconds, never on how fast the waves run).
constexpr double kScatterWavesPerSecond = 200.0;
constexpr double kHotWavesPerSecond = 6000.0;
// serve_hot: 64 users, Zipf(1.1), user u -> tenant u % 8; a pool of 2048
// queries, Zipf(0.9), inside one popular region covering 1/64 of the
// world. 8 x 2048 reachable (tenant, query) pairs against the broker's
// default 4096-entry cache. The region keeps the misses' index work
// small, as the workload intends.
constexpr size_t kHotUsers = 64;
constexpr double kHotUserZipf = 1.1;
constexpr size_t kHotPool = 2048;
constexpr double kHotQueryZipf = 0.9;
constexpr double kHotRegionSide = kWorld / 8;
// The traced pass replays (and records spans for) at most this many
// waves, evenly spaced, to bound its memory and trace file.
constexpr size_t kReplayedWaves = 1000;

// A select box whose lower corner is uniform in [x0, x0 + side - box)^2.
geo::Box RandomBox(Rng* rng, double x0 = 0, double y0 = 0,
                   double side = kWorld) {
  const double x = x0 + rng->UniformDouble(0, side - kBoxSide);
  const double y = y0 + rng->UniformDouble(0, side - kBoxSide);
  return geo::Box::Of(x, y, x + kBoxSide, y + kBoxSide);
}

// The point world: coordinates kept by the harness for the oracle, the
// store the broker serves from, and what the restart cost.
struct ServeWorld {
  std::vector<double> xs, ys;
  std::vector<uint64_t> ids;
  strabon::GeoStore store;
  double index_load_us = 0.0;
  uint64_t index_page_misses = 0;
};

std::unique_ptr<ServeWorld> SetUpWorld(uint64_t seed, const std::string& dir) {
  auto w = std::make_unique<ServeWorld>();
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 101);
  w->xs.resize(kPoints);
  w->ys.resize(kPoints);
  std::vector<std::string> iris(kPoints);
  for (size_t i = 0; i < kPoints; ++i) {
    w->xs[i] = rng.UniformDouble(0, kWorld);
    w->ys[i] = rng.UniformDouble(0, kWorld);
    iris[i] = exearth::common::StrFormat("http://perfbench/point/%zu", i);
    w->store.AddFeature(iris[i], geo::Geometry(geo::Point{w->xs[i], w->ys[i]}));
  }
  EEA_CHECK_OK(w->store.Build().status());
  w->ids.resize(kPoints);
  for (size_t i = 0; i < kPoints; ++i) {
    auto id = w->store.triples().dict().Lookup(exearth::rdf::Term::Iri(iris[i]));
    EEA_CHECK(id.has_value());
    w->ids[i] = *id;
  }

  // Freeze the index to pages on disk, then reopen it as a restarted
  // server would: a fresh storage manager and a pool a quarter of the
  // index's size.
  std::filesystem::create_directories(dir);
  const std::string pages = dir + "/index.pages";
  std::filesystem::remove(pages);
  storage::PageId head = storage::kInvalidPageId;
  uint32_t index_pages = 0;
  {
    auto sm = storage::DiskStorageManager::Open(pages);
    EEA_CHECK_OK(sm.status());
    storage::BufferPool pool(sm->get(), 4096);
    EEA_CHECK_OK(w->store.FreezeIndexTo(&pool, &head));
    EEA_CHECK_OK(pool.FlushAll());
    EEA_CHECK_OK((*sm)->Sync());
    index_pages = (*sm)->page_count();
  }
  auto sm = storage::DiskStorageManager::Open(pages);
  EEA_CHECK_OK(sm.status());
  storage::BufferPool pool(sm->get(), std::max<size_t>(8, index_pages / 4));
  const auto t0 = Clock::now();
  EEA_CHECK_OK(w->store.LoadFrozenIndex(&pool, head));
  w->index_load_us = MicrosBetween(t0, Clock::now());
  w->index_page_misses = pool.stats().misses;
  return w;
}

std::unique_ptr<serve::QueryBroker> MakeBroker(const strabon::GeoStore* store) {
  // Default options: batching on, 4096-entry cache, one worker.
  auto broker = std::make_unique<serve::QueryBroker>(serve::BrokerOptions{});
  broker->set_store(store);
  for (uint32_t t = 0; t < kTenants; ++t) {
    serve::TenantOptions opt;
    // Quotas far above the offered rate: nothing is shed.
    opt.quota_rps = 1e9;
    opt.quota_burst = 1e9;
    opt.weight = 1 + t % 4;
    broker->RegisterTenant(exearth::common::StrFormat("tenant-%u", t), opt);
  }
  return broker;
}

// The counters the traced pass reads around each ExecuteWave.
struct ServeCounts {
  uint64_t traversals = 0, groups = 0, batched = 0;
  uint64_t hits = 0, misses = 0, evicted = 0;

  static ServeCounts Read() {
    auto& reg = exearth::common::MetricsRegistry::Default();
    static exearth::common::Counter* const c[6] = {
        reg.GetCounter("strabon.geostore.select_traversals"),
        reg.GetCounter("serve.batch.groups"),
        reg.GetCounter("serve.batch.batched_requests"),
        reg.GetCounter("serve.cache.hits"),
        reg.GetCounter("serve.cache.misses"),
        reg.GetCounter("serve.cache.evicted")};
    return {c[0]->value(), c[1]->value(), c[2]->value(),
            c[3]->value(), c[4]->value(), c[5]->value()};
  }
  void AddDelta(const ServeCounts& before, const ServeCounts& after) {
    traversals += after.traversals - before.traversals;
    groups += after.groups - before.groups;
    batched += after.batched - before.batched;
    hits += after.hits - before.hits;
    misses += after.misses - before.misses;
    evicted += after.evicted - before.evicted;
  }
};

// Accumulates the per-layer figures of a traced serving pass.
struct ServeTrace {
  uint64_t requests = 0;
  uint64_t replayed_requests = 0;
  ServeCounts counts;
  double wave_us = 0.0, replay_us = 0.0;
  std::vector<double> batch_us, solo_us;
  strabon::SpatialQueryStats batch_stats, solo_stats;
  uint64_t solo_queries = 0;

  void Add(const strabon::SpatialQueryStats& s,
           strabon::SpatialQueryStats* into) {
    into->candidates += s.candidates;
    into->geometry_tests += s.geometry_tests;
    into->envelope_hits += s.envelope_hits;
    into->nodes_visited += s.nodes_visited;
    into->results += s.results;
  }

  void Report(const ServeWorld& world, PassResult* out) const {
    auto& m = out->layer;
    m["serve.self_us_per_request"] =
        Ratio(wave_us - replay_us, static_cast<double>(replayed_requests));
    m["serve.cache_hit_ratio"] =
        Ratio(static_cast<double>(counts.hits),
              static_cast<double>(counts.hits + counts.misses));
    m["serve.cache_evictions_per_1k"] =
        Ratio(1000.0 * static_cast<double>(counts.evicted),
              static_cast<double>(requests));
    m["serve.members_per_batch_group"] =
        Ratio(static_cast<double>(counts.batched),
              static_cast<double>(counts.groups));
    m["strabon.batch_select_us"] = Median(batch_us);
    m["strabon.solo_select_us"] = Median(solo_us);
    m["strabon.traversals_per_request"] =
        Ratio(static_cast<double>(counts.traversals),
              static_cast<double>(requests));
    m["strabon.candidates_per_result"] =
        Ratio(static_cast<double>(batch_stats.candidates),
              static_cast<double>(batch_stats.results));
    m["geo.nodes_visited_per_query"] =
        Ratio(static_cast<double>(solo_stats.nodes_visited),
              static_cast<double>(solo_queries));
    m["geo.envelope_decided_ratio"] =
        Ratio(static_cast<double>(solo_stats.envelope_hits),
              static_cast<double>(solo_stats.geometry_tests));
    m["storage.index_load_us"] = world.index_load_us;
    m["storage.index_page_misses"] =
        static_cast<double>(world.index_page_misses);
  }
};

// One request of a wave: its tenant, its box, and its index in the
// workload's query pool (kUniqueBox for a box asked only once).
constexpr uint32_t kUniqueBox = UINT32_MAX;
struct Member {
  serve::TenantId tenant = 0;
  geo::Box box;
  uint32_t query = kUniqueBox;
};
// Fills the next wave's members. A fresh source for the same seed yields
// the same waves, so the check regenerates them instead of keeping them.
using WaveSource = std::function<void(std::vector<Member>*)>;

// One serving pass over the waves of `make_source()`.
PassResult RunServe(const PassConfig& config, double waves_per_second,
                    const std::function<WaveSource()>& make_source) {
  PassResult out;
  out.tracer = Tracer(config.traced);
  std::unique_ptr<ServeWorld> world;
  std::unique_ptr<serve::QueryBroker> broker;
  auto set_up = [&] {
    broker.reset();
    world.reset();
    ReleaseFreedMemory();
    const auto t0 = Clock::now();
    world = SetUpWorld(config.seed, config.workdir);
    broker = MakeBroker(&world->store);
    out.setup_s.push_back(MicrosBetween(t0, Clock::now()) / 1e6);
  };
  set_up();

  const size_t waves = static_cast<size_t>(config.seconds * waves_per_second);
  // The check's state: one digest of the answers per wave, and where the
  // failed requests were (their answers are not checked).
  std::vector<uint64_t> digests;
  digests.reserve(waves);
  std::vector<uint64_t> failed_at;
  ServeTrace trace;
  const size_t replay_stride = std::max<size_t>(1, waves / kReplayedWaves);
  WaveSource source = make_source();
  std::vector<Member> members;
  std::vector<serve::Offered> wave;
  for (size_t w = 0; w < waves; ++w) {
    source(&members);
    wave.clear();
    for (const Member& m : members) {
      wave.push_back({m.tenant, serve::Request::SpatialSelect(m.box)});
    }
    const int64_t now_us = static_cast<int64_t>(w + 1) * 1000;
    const ServeCounts before = config.traced ? ServeCounts::Read()
                                             : ServeCounts{};
    const bool replay = config.traced && w % replay_stride == 0;
    const int span = replay ? out.tracer.Begin("serve.ExecuteWave", w) : -1;
    const auto t0 = Clock::now();
    std::vector<serve::Response> responses = broker->ExecuteWave(wave, now_us);
    const auto t1 = Clock::now();
    out.tracer.End(span);
    const double us = MicrosBetween(t0, t1);
    out.sample_latency_us.push_back(us);
    out.attempted += wave.size();
    uint64_t completed = 0;
    WaveDigest digest;
    for (size_t i = 0; i < responses.size(); ++i) {
      const serve::Response& r = responses[i];
      if (!r.status.ok()) {
        ++out.failed;
        failed_at.push_back(w * kWaveSize + i);
        digest.Add(0);
        continue;
      }
      ++completed;
      digest.Add(HashIds(r.ids));
    }
    digests.push_back(digest.value());
    // Every member's latency is the wave's, and every wave has kWaveSize
    // members, so the median over members is the median over waves.
    out.completed += completed;
    out.busy_us += us;
    if (!config.traced) continue;

    trace.requests += wave.size();
    trace.counts.AddDelta(before, ServeCounts::Read());
    if (!replay) continue;
    trace.replayed_requests += wave.size();
    trace.wave_us += us;
    // Replay the wave's cache misses directly in the store: batched (what
    // the broker ran) and each box alone (the unbatched reference).
    std::vector<strabon::BatchSelectQuery> misses;
    for (size_t i = 0; i < responses.size(); ++i) {
      if (!responses[i].cache_hit) {
        misses.push_back({members[i].box, strabon::SpatialRelation::kIntersects});
      }
    }
    if (misses.empty()) continue;
    strabon::SpatialQueryStats bstats;
    const int bspan = out.tracer.Begin("strabon.SpatialSelectBatch", w, span);
    const auto b0 = Clock::now();
    auto batch = world->store.SpatialSelectBatch(misses, &bstats);
    const double batch_us = MicrosBetween(b0, Clock::now());
    out.tracer.End(bspan);
    if (!batch.ok()) out.Fail("replayed batch: " + batch.status().ToString());
    trace.replay_us += batch_us;
    trace.batch_us.push_back(batch_us);
    trace.Add(bstats, &trace.batch_stats);
    double solo_total = 0.0;
    for (const auto& q : misses) {
      strabon::SpatialQueryStats sstats;
      const int sspan = out.tracer.Begin("strabon.SpatialSelect", w, span);
      const auto s0 = Clock::now();
      auto solo = world->store.SpatialSelect(q.box, q.relation,
                                             /*use_index=*/true, &sstats);
      solo_total += MicrosBetween(s0, Clock::now());
      out.tracer.End(sspan);
      if (!solo.ok()) out.Fail("replayed select: " + solo.status().ToString());
      trace.Add(sstats, &trace.solo_stats);
      ++trace.solo_queries;
    }
    trace.solo_us.push_back(solo_total);
  }


  // Checks, after the timed phase: every answer (cache hits included)
  // against brute force over the generated coordinates, on the same waves
  // regenerated from the seed. A pool query's answer is computed once.
  const PointOracle oracle(world->xs, world->ys, world->ids);
  std::unordered_map<uint32_t, uint64_t> pool_answers;
  std::vector<uint64_t> want;
  want.reserve(waves);
  source = make_source();
  for (size_t w = 0; w < waves; ++w) {
    source(&members);
    WaveDigest digest;
    for (size_t i = 0; i < members.size(); ++i) {
      const Member& m = members[i];
      if (std::binary_search(failed_at.begin(), failed_at.end(),
                             w * kWaveSize + i)) {
        digest.Add(0);
        continue;
      }
      auto it = pool_answers.find(m.query);
      if (it == pool_answers.end()) {
        const uint64_t h = HashIds(oracle.Select(m.box));
        if (m.query == kUniqueBox) {
          digest.Add(h);
          continue;
        }
        it = pool_answers.emplace(m.query, h).first;
      }
      digest.Add(it->second);
    }
    want.push_back(digest.value());
  }
  const std::string err = CheckWaveDigests(digests, want);
  if (!err.empty()) out.Fail(err);
  if (config.traced) trace.Report(*world, &out);
  out.peak_rss_mb = PeakRssMb();
  for (int rep = 1; rep < config.setup_reps; ++rep) set_up();
  broker.reset();
  world.reset();
  std::filesystem::remove_all(config.workdir);
  return out;
}

}  // namespace

ScatterWaveGen::ScatterWaveGen(uint64_t seed)
    : rng_(seed * 0x9e3779b97f4a7c15ULL + 202) {}

std::vector<geo::Box> ScatterWaveGen::Next() {
  std::vector<geo::Box> out(kWaveSize);
  for (auto& b : out) b = RandomBox(&rng_);
  return out;
}

HotWaveGen::HotWaveGen(uint64_t seed)
    : rng_(seed * 0x9e3779b97f4a7c15ULL + 303) {}

std::vector<HotMember> HotWaveGen::Next() {
  std::vector<HotMember> out(kWaveSize);
  for (auto& m : out) {
    m.tenant = static_cast<uint32_t>(rng_.Zipf(kHotUsers, kHotUserZipf) %
                                     kTenants);
    m.query = static_cast<uint32_t>(rng_.Zipf(kHotPool, kHotQueryZipf));
  }
  return out;
}

std::vector<geo::Box> HotQueryPool(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 404);
  const double x0 = rng.UniformDouble(0, kWorld - kHotRegionSide);
  const double y0 = rng.UniformDouble(0, kWorld - kHotRegionSide);
  std::vector<geo::Box> pool(kHotPool);
  for (auto& b : pool) b = RandomBox(&rng, x0, y0, kHotRegionSide);
  return pool;
}

PassResult RunServeScatter(const PassConfig& config) {
  return RunServe(config, kScatterWavesPerSecond, [&config]() -> WaveSource {
    auto gen = std::make_shared<ScatterWaveGen>(config.seed);
    return [gen](std::vector<Member>* members) {
      const std::vector<geo::Box> boxes = gen->Next();
      members->clear();
      for (size_t i = 0; i < boxes.size(); ++i) {
        members->push_back(
            {static_cast<serve::TenantId>(i % kTenants), boxes[i], kUniqueBox});
      }
    };
  });
}

PassResult RunServeHot(const PassConfig& config) {
  auto pool = std::make_shared<const std::vector<geo::Box>>(
      HotQueryPool(config.seed));
  return RunServe(config, kHotWavesPerSecond, [&config, pool]() -> WaveSource {
    auto gen = std::make_shared<HotWaveGen>(config.seed);
    return [gen, pool](std::vector<Member>* members) {
      members->clear();
      for (const HotMember& m : gen->Next()) {
        members->push_back({m.tenant, (*pool)[m.query], m.query});
      }
    };
  });
}

}  // namespace perfbench
