// link_join: jobs alternate between link::DiscoverSpatialLinks on two
// seeded polygon tiles and GeoStore::SpatialJoin between two
// multipolygon feature classes. This reaches polygon refinement in the
// geo kernels and the link and join copies of the operator loop, none of
// which the point-select workloads touch.
//
// The jobs run on the caller's thread, the default of both calls. With
// two workers a job's time rode on how fast a second vCPU of the shared
// host ran: over five alternating pairs of runs, one worker read 92.6 to
// 96.4 jobs/s and two workers 98 to 148. The traced pass still times the
// per-call pool: it replays some discoveries with two workers.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "link/spatial_links.h"
#include "rdf/term.h"
#include "strabon/geostore.h"
#include "strabon/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace link = exearth::link;
namespace rdf = exearth::rdf;
namespace strabon = exearth::strabon;
using exearth::common::Rng;
using exearth::common::StrFormat;
using Pairs = std::vector<std::pair<uint64_t, uint64_t>>;
using Links = std::vector<std::pair<size_t, size_t>>;

// Four inputs of each kind, cycled through by the jobs: tile pairs of
// 6000 ten-vertex polygons (diameter ~60), and feature stores holding two
// classes of 3200 two-part multipolygons (eight vertices, diameter ~50).
// Densities give each shape about one partner. A job takes 3 to 12 ms,
// so a run of --seconds 15 holds 1500 jobs, enough for a block p99.
constexpr int kInputs = 4;
constexpr size_t kTilePolygons = 6000;
constexpr size_t kClassFeatures = 3200;
// The traced pass replays every kPoolReplayStride-th discovery with
// kPoolWorkers workers (a per-call thread pool).
constexpr size_t kPoolWorkers = 2;
constexpr size_t kPoolReplayStride = 4;
// Jobs per second of --seconds.
constexpr double kJobsPerSecond = 100.0;
// Seeded sample checked against the exhaustive nested loop.
constexpr size_t kSample = 48;

// Link inputs alternate between intersects and containment: only the
// containment screen can reject a candidate before the exact test.
link::SpatialLinkRelation LinkRelation(int input) {
  return input % 2 == 0 ? link::SpatialLinkRelation::kIntersects
                        : link::SpatialLinkRelation::kContains;
}

double WorldFor(size_t n, double size) {
  return std::sqrt(static_cast<double>(n)) * size * 1.6;
}

std::vector<geo::Geometry> Tile(uint64_t seed, uint64_t which, double size) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 606 + which);
  const double world = WorldFor(kTilePolygons, 60.0);
  std::vector<geo::Geometry> out;
  out.reserve(kTilePolygons);
  for (size_t i = 0; i < kTilePolygons; ++i) {
    const double cx = rng.UniformDouble(0, world);
    const double cy = rng.UniformDouble(0, world);
    out.emplace_back(strabon::RandomPolygon(cx, cy, size, 10, &rng));
  }
  return out;
}

// The two joined classes, and the sample of class A checked against the
// exhaustive nested loop.
constexpr char kClassA[] = "http://perfbench/class/A";
constexpr char kClassB[] = "http://perfbench/class/B";
constexpr char kSampleA[] = "http://perfbench/class/SampleA";

std::vector<size_t> SampleIndices(Rng* rng, size_t n) {
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  for (size_t i = 0; i < kSample; ++i) {
    std::swap(all[i], all[i + rng->Uniform(n - i)]);
  }
  all.resize(kSample);
  std::sort(all.begin(), all.end());
  return all;
}

// One join input: a store with classes A and B, and the ids of A's sample.
struct JoinInput {
  strabon::GeoStore store;
  std::vector<uint64_t> sample_ids;
};

std::unique_ptr<JoinInput> MakeJoinInput(Rng* rng) {
  auto in = std::make_unique<JoinInput>();
  const double world = WorldFor(kClassFeatures, 50.0);
  const rdf::Term type = rdf::Term::Iri(rdf::vocab::kRdfType);
  std::vector<std::string> sample_iris;
  const std::vector<size_t> sample = SampleIndices(rng, kClassFeatures);
  for (const char* cls : {kClassA, kClassB}) {
    const bool is_a = cls == kClassA;
    for (size_t i = 0; i < kClassFeatures; ++i) {
      const std::string iri = StrFormat("%s/%zu", cls, i);
      const double cx = rng->UniformDouble(0, world);
      const double cy = rng->UniformDouble(0, world);
      geo::MultiPolygon mp;
      for (int part = 0; part < 2; ++part) {
        mp.polygons.push_back(strabon::RandomPolygon(
            cx + rng->Gaussian(0, 25.0), cy + rng->Gaussian(0, 25.0), 50.0, 8,
            rng));
      }
      in->store.AddFeature(iri, geo::Geometry(std::move(mp)));
      in->store.triples().Add(rdf::Term::Iri(iri), type, rdf::Term::Iri(cls));
      if (is_a && std::binary_search(sample.begin(), sample.end(), i)) {
        in->store.triples().Add(rdf::Term::Iri(iri), type,
                                rdf::Term::Iri(kSampleA));
        sample_iris.push_back(iri);
      }
    }
  }
  EEA_CHECK_OK(in->store.Build().status());
  for (const std::string& iri : sample_iris) {
    in->sample_ids.push_back(
        *in->store.triples().dict().Lookup(rdf::Term::Iri(iri)));
  }
  return in;
}

struct LinkWorld {
  std::vector<std::vector<geo::Geometry>> a, b;  // per tile pair
  std::vector<std::unique_ptr<JoinInput>> joins;
};

std::unique_ptr<LinkWorld> SetUpWorld(uint64_t seed) {
  auto w = std::make_unique<LinkWorld>();
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 707);
  for (int t = 0; t < kInputs; ++t) {
    w->a.push_back(Tile(seed, 2 * t, 60.0));
    // Containment inputs pair the tile with smaller shapes, some inside.
    const bool contains =
        LinkRelation(t) == link::SpatialLinkRelation::kContains;
    w->b.push_back(Tile(seed, 2 * t + 1, contains ? 20.0 : 60.0));
    w->joins.push_back(MakeJoinInput(&rng));
  }
  return w;
}

link::SpatialLinkOptions LinkOptions(int input, bool use_index) {
  link::SpatialLinkOptions opt;
  opt.relation = LinkRelation(input);
  opt.use_index = use_index;
  return opt;
}

uint64_t HashPairs(const std::vector<std::pair<uint64_t, uint64_t>>& pairs) {
  std::vector<uint64_t> flat;
  flat.reserve(pairs.size() * 2);
  for (const auto& [x, y] : pairs) {
    flat.push_back(x);
    flat.push_back(y);
  }
  return HashIds(flat);
}

Pairs ToPairs(const Links& links) {
  Pairs out;
  out.reserve(links.size());
  for (const auto& [x, y] : links) out.emplace_back(x, y);
  return out;
}

}  // namespace

PassResult RunLinkJoin(const PassConfig& config) {
  PassResult out;
  out.tracer = Tracer(config.traced);
  std::unique_ptr<LinkWorld> world;
  auto set_up = [&] {
    world.reset();
    ReleaseFreedMemory();
    const auto t0 = Clock::now();
    world = SetUpWorld(config.seed);
    out.setup_s.push_back(MicrosBetween(t0, Clock::now()) / 1e6);
  };
  set_up();

  const size_t jobs = static_cast<size_t>(config.seconds * kJobsPerSecond);
  // The first answer for each input is kept for the checks; every later
  // job on the same input must return the same hash.
  std::vector<Pairs> first_links(kInputs), first_join(kInputs);
  std::vector<uint64_t> link_hash(kInputs), join_hash(kInputs);
  std::vector<bool> seen_link(kInputs, false), seen_join(kInputs, false);
  uint64_t links = 0, exact_tests = 0, rejects = 0, candidates = 0;
  for (size_t j = 0; j < jobs; ++j) {
    const size_t input = (j / 2) % kInputs;
    Pairs result;
    double us = 0.0;
    bool ok = true;
    if (j % 2 == 0) {
      const int span = out.tracer.Begin("link.DiscoverSpatialLinks", j);
      const auto t0 = Clock::now();
      link::SpatialLinkResult r = link::DiscoverSpatialLinks(
          world->a[input], world->b[input],
          LinkOptions(static_cast<int>(input), true));
      us = MicrosBetween(t0, Clock::now());
      out.tracer.End(span);
      links += r.links.size();
      exact_tests += r.exact_tests;
      rejects += r.envelope_rejects;
      candidates += r.candidate_pairs;
      result = ToPairs(r.links);
      if (config.traced && (j / 2) % kPoolReplayStride == 0) {
        link::SpatialLinkOptions pooled =
            LinkOptions(static_cast<int>(input), true);
        pooled.num_threads = kPoolWorkers;
        const int pspan =
            out.tracer.Begin("link.DiscoverSpatialLinks.pooled", j, span);
        const link::SpatialLinkResult p = link::DiscoverSpatialLinks(
            world->a[input], world->b[input], pooled);
        out.tracer.End(pspan);
        if (p.links != r.links) {
          out.Fail(StrFormat("job %zu: two workers found %zu links, one "
                             "worker %zu",
                             j, p.links.size(), r.links.size()));
        }
      }
    } else {
      const int span = out.tracer.Begin("strabon.SpatialJoin", j);
      const auto t0 = Clock::now();
      auto r = world->joins[input]->store.SpatialJoin(
          kClassA, kClassB, strabon::SpatialRelation::kIntersects,
          /*use_index=*/true);
      us = MicrosBetween(t0, Clock::now());
      out.tracer.End(span);
      ok = r.ok();
      if (ok) result = std::move(r).value();
    }
    ++out.attempted;
    out.sample_latency_us.push_back(us);
    if (!ok) {
      ++out.failed;
      continue;
    }
    ++out.completed;
    out.busy_us += us;
    const uint64_t h = HashPairs(result);
    std::vector<bool>& seen = j % 2 == 0 ? seen_link : seen_join;
    std::vector<uint64_t>& hashes = j % 2 == 0 ? link_hash : join_hash;
    if (!seen[input]) {
      seen[input] = true;
      hashes[input] = h;
      (j % 2 == 0 ? first_links : first_join)[input] = std::move(result);
    } else if (hashes[input] != h) {
      out.Fail(StrFormat("job %zu: answer differs from the first job on the "
                         "same input",
                         j));
    }
  }


  // Checks: sampled rows against the exhaustive nested loop, and the
  // symmetry of the intersects join.
  Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + 808);
  for (int t = 0; t < kInputs && seen_link[t]; ++t) {
    const std::vector<size_t> sample = SampleIndices(&rng, kTilePolygons);
    std::vector<geo::Geometry> a_sample;
    for (size_t i : sample) a_sample.push_back(world->a[t][i]);
    link::SpatialLinkResult ref =
        link::DiscoverSpatialLinks(a_sample, world->b[t],
                                   LinkOptions(t, false));
    Pairs reference;
    for (const auto& [i, j] : ref.links) reference.emplace_back(sample[i], j);
    const std::string err = CheckSampledPairs<uint64_t>(
        first_links[t], std::vector<uint64_t>(sample.begin(), sample.end()),
        reference, StrFormat("links of tile pair %d", t));
    if (!err.empty()) out.Fail(err);
  }
  for (int k = 0; k < kInputs && seen_join[k]; ++k) {
    const strabon::GeoStore& store = world->joins[k]->store;
    auto ref = store.SpatialJoin(kSampleA, kClassB,
                                 strabon::SpatialRelation::kIntersects,
                                 /*use_index=*/false);
    if (!ref.ok()) {
      out.Fail("exhaustive join: " + ref.status().ToString());
      continue;
    }
    std::string err = CheckSampledPairs<uint64_t>(
        first_join[k], world->joins[k]->sample_ids, *ref,
        StrFormat("join of input %d", k));
    if (!err.empty()) out.Fail(err);
    auto ba = store.SpatialJoin(kClassB, kClassA,
                                strabon::SpatialRelation::kIntersects,
                                /*use_index=*/true);
    if (!ba.ok()) {
      out.Fail("reverse join: " + ba.status().ToString());
      continue;
    }
    err = CheckSymmetric(first_join[k], *ba);
    if (!err.empty()) out.Fail(err);
  }

  if (config.traced) {
    auto& m = out.layer;
    m["strabon.join_us"] = Median(out.tracer.DurationsUs("strabon.SpatialJoin"));
    m["link.discover_us"] =
        Median(out.tracer.DurationsUs("link.DiscoverSpatialLinks"));
    m["link.discover_pooled_us"] =
        Median(out.tracer.DurationsUs("link.DiscoverSpatialLinks.pooled"));
    m["link.exact_tests_per_link"] = Ratio(static_cast<double>(exact_tests),
                                           static_cast<double>(links));
    m["link.envelope_reject_ratio"] =
        Ratio(static_cast<double>(rejects), static_cast<double>(candidates));
  }
  out.peak_rss_mb = PeakRssMb();
  for (int rep = 1; rep < config.setup_reps; ++rep) set_up();
  return out;
}

}  // namespace perfbench
