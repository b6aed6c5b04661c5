// perfbench: one command that runs a workload through the public APIs of
// serve, strabon, geo, storage, kv/repl, dfs and link, checks every
// output, and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--trace_out <file>]
//   perfbench --selftest
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the
// per-layer metrics instead: it runs the workload untraced and then
// traced (their difference is the tracing overhead), and measures each
// per-layer metric whose home is another workload with a short traced
// pass of that workload. Spans are kept in memory and written to
// --trace_out at the end.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every output check passed.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "geo/simd.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {

int RunSelfTests();

namespace {

struct Workload {
  const char* name;
  PassResult (*run)(const PassConfig&);
};
constexpr Workload kWorkloads[] = {
    {"serve_scatter", RunServeScatter},
    {"serve_hot", RunServeHot},
    {"meta_churn", RunMetaChurn},
    {"link_join", RunLinkJoin},
};

// Every per-layer metric, with its unit and its home: the workload it is
// always measured on.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* home;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"serve.self_us_per_request", "us", "serve_hot"},
    {"serve.cache_hit_ratio", "ratio", "serve_hot"},
    {"serve.cache_evictions_per_1k", "per_1k", "serve_hot"},
    {"serve.members_per_batch_group", "count", "serve_scatter"},
    {"strabon.batch_select_us", "us", "serve_scatter"},
    {"strabon.solo_select_us", "us", "serve_scatter"},
    {"strabon.traversals_per_request", "ratio", "serve_scatter"},
    {"strabon.candidates_per_result", "ratio", "serve_scatter"},
    {"strabon.join_us", "us", "link_join"},
    {"geo.nodes_visited_per_query", "count", "serve_scatter"},
    {"geo.envelope_decided_ratio", "ratio", "serve_scatter"},
    {"storage.index_load_us", "us", "serve_scatter"},
    {"storage.index_page_misses", "count", "serve_scatter"},
    {"storage.recovery_us", "us", "meta_churn"},
    {"storage.replayed_records", "count", "meta_churn"},
    {"storage.wal_fsyncs_per_commit", "ratio", "meta_churn"},
    {"storage.wal_bytes_per_mutation", "B", "meta_churn"},
    {"repl.commit_us", "us", "meta_churn"},
    {"repl.frames_shipped_per_commit", "ratio", "meta_churn"},
    {"repl.catchup_records", "count", "meta_churn"},
    {"kv.txn_retries_per_op", "ratio", "meta_churn"},
    {"dfs.create_us", "us", "meta_churn"},
    {"dfs.rename_us", "us", "meta_churn"},
    {"dfs.remove_us", "us", "meta_churn"},
    {"dfs.stat_us", "us", "meta_churn"},
    {"dfs.list_us", "us", "meta_churn"},
    {"link.discover_us", "us", "link_join"},
    {"link.discover_pooled_us", "us", "link_join"},
    {"link.exact_tests_per_link", "ratio", "link_join"},
    {"link.envelope_reject_ratio", "ratio", "link_join"},
};

// Share of --seconds given to the short passes of the other workloads.
constexpr double kSidePassShare = 0.2;
// Independent set-ups of an untraced run; setup_s is their median.
constexpr int kSetupReps = 7;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct EndToEnd {
  double throughput = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;
};

// Throughput is taken over the whole timed phase, the median latency over
// every sample of it, and the tail is the median of the tail blocks'
// p99s. See README "Steadiness".
EndToEnd Summarize(const PassResult& r) {
  EndToEnd e;
  e.throughput = Throughput(r);
  e.p50 = Median(r.sample_latency_us);
  const std::vector<double> p99s = BlockP99s(r.sample_latency_us);
  e.p99_supported = !p99s.empty();
  e.p99 = Median(p99s);
  return e;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-34s %16llu\n  %-34s %16llu\n", "attempted",
              static_cast<unsigned long long>(attempted), "failed",
              static_cast<unsigned long long>(failed));
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void WriteTrace(const std::string& path, const std::string& workload,
                uint64_t seed, const std::vector<Metric>& metrics,
                const std::map<std::string, const Tracer*>& tracers) {
  if (path.empty()) return;
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  f << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
    << ",\n \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    f << (i ? ", " : "") << "\"" << metrics[i].name
      << "\": " << JsonNumber(metrics[i].value);
  }
  f << "},\n \"spans\": [";
  bool first = true;
  for (const auto& [pass, tracer] : tracers) {
    for (const Span& s : tracer->spans()) {
      f << (first ? "\n" : ",\n") << "  {\"pass\": \"" << pass
        << "\", \"name\": \"" << s.name << "\", \"op\": " << s.op
        << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}";
      first = false;
    }
  }
  f << "\n]}\n";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve_scatter|serve_hot|"
               "meta_churn|link_join> --seed <n> --seconds <s> --trace <0|1> "
               "[--workdir <dir>] [--trace_out <file>]\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return RunSelfTests();
    if (a.rfind("--", 0) != 0 || i + 1 >= argc) return Usage();
    args[a.substr(2)] = argv[++i];
  }
  for (const auto& [k, v] : args) {
    if (k != "workload" && k != "seed" && k != "seconds" && k != "trace" &&
        k != "workdir" && k != "trace_out") {
      std::fprintf(stderr, "perfbench: unknown flag --%s\n", k.c_str());
      return Usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args["workload"] == w.name) workload = &w;
  }
  if (workload == nullptr || args["seed"].empty() || args["seconds"].empty()) {
    return Usage();
  }
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool traced = args["trace"] == "1";
  if (!(seconds > 0.0) || seconds > 600.0) return Usage();
  const std::string workdir =
      (args["workdir"].empty() ? std::string(".bench_build/perfbench-work")
                               : args["workdir"]) +
      "/" + workload->name + "-" + std::to_string(::getpid());
  std::fprintf(stderr, "perfbench: %s seed=%llu seconds=%g trace=%d simd=%s\n",
               workload->name, static_cast<unsigned long long>(seed), seconds,
               traced ? 1 : 0, exearth::geo::simd::ActiveVariantName());

  PassConfig config;
  config.seed = seed;
  config.seconds = seconds;
  config.workdir = workdir;
  std::vector<Metric> metrics;

  if (!traced) {
    config.setup_reps = kSetupReps;
    const PassResult r = workload->run(config);
    const EndToEnd e = Summarize(r);
    metrics.push_back({"throughput_ops_s", e.throughput, "ops/s"});
    metrics.push_back({"setup_s", Median(r.setup_s), "s"});
    metrics.push_back({"peak_rss_mb", r.peak_rss_mb, "MiB"});
    if (!r.correct) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                                 r.error.c_str());
    PrintResult(r.correct, r.attempted, r.failed, metrics);
    return r.correct ? 0 : 1;
  }

  // Traced run: untraced baseline, then the same pass traced.
  const PassResult base = workload->run(config);
  config.traced = true;
  const PassResult tr = workload->run(config);
  bool correct = base.correct && tr.correct;
  std::string error = !base.correct ? base.error : tr.error;
  // Every per-layer metric comes from its home workload: from the traced
  // pass when that is the traced workload, else from a short traced pass
  // of the home workload. One name then always means the same thing.
  std::map<std::string, PassResult> side;
  for (const LayerMetric& m : kLayerMetrics) {
    const PassResult* from = &tr;
    if (std::strcmp(m.home, workload->name) != 0) {
      if (!side.count(m.home)) {
        PassConfig side_config = config;
        side_config.seconds = seconds * kSidePassShare;
        for (const Workload& w : kWorkloads) {
          if (std::strcmp(w.name, m.home) == 0) {
            side.emplace(m.home, w.run(side_config));
          }
        }
        const PassResult& s = side.at(m.home);
        if (!s.correct && correct) error = s.error;
        correct = correct && s.correct;
      }
      from = &side.at(m.home);
    }
    metrics.push_back({m.name, from->layer.at(m.name), m.unit});
  }
  const EndToEnd eb = Summarize(base), et = Summarize(tr);
  metrics.push_back({"trace.overhead_throughput_pct",
                     100.0 * Ratio(et.throughput - eb.throughput, eb.throughput),
                     "%"});
  metrics.push_back({"trace.overhead_p50_us", et.p50 - eb.p50, "us"});
  // The latency of the untraced pass: measured, but too unsteady on a
  // shared host to gate on (README "Steadiness").
  metrics.push_back({"e2e.latency_p50_us", eb.p50, "us"});
  if (eb.p99_supported) {
    metrics.push_back({"e2e.latency_p99_us", eb.p99, "us"});
  } else {
    std::fprintf(stderr,
                 "perfbench: p99 omitted: %zu samples, fewer than one "
                 "tail block\n",
                 base.sample_latency_us.size());
  }
  std::map<std::string, const Tracer*> tracers = {{workload->name, &tr.tracer}};
  for (const auto& [name, s] : side) tracers[name] = &s.tracer;
  WriteTrace(args["trace_out"], workload->name, seed, metrics, tracers);
  if (!correct) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                             error.c_str());
  PrintResult(correct, tr.attempted, tr.failed, metrics);
  return correct ? 0 : 1;
}
