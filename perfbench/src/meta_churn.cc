// meta_churn: HopsFS namespace operations over a durable, replicated
// NewSQL-style metadata store — the write path dfs -> kv/repl -> WAL
// append, fsync and shipping. Set-up preloads a namespace, closes the
// store and reopens it (every replica replays its WAL), so recovery is
// part of setup_s.
//
// Each client thread owns its directories, so its outcomes do not
// depend on how the threads interleave and a per-client model predicts
// every op's result.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "dfs/hopsfs.h"
#include "repl/replicated_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace dfs = exearth::dfs;
namespace repl = exearth::repl;
using exearth::common::Rng;
using exearth::common::StrFormat;

// Store: 4 shards, leader + 2 followers each, write quorum 1.
constexpr int kShards = 4;
constexpr int kFollowers = 2;
constexpr int kWriteQuorum = 1;
// Two client threads (at most nproc - 1 on the 4-core reference box),
// four directories each, 300 preloaded files per directory.
constexpr int kClients = 2;
constexpr int kDirsPerClient = 4;
constexpr size_t kPreloadPerDir = 300;
// Ops per client per second of --seconds; the clients run flat out.
constexpr double kOpsPerClientPerSecond = 500.0;
// Direct single-key commits timed by the traced pass.
constexpr int kDirectCommits = 256;

// The namespace of one client as the planner evolves it.
class ClientModel {
 public:
  ClientModel(uint64_t seed, int client)
      : client_(client), rng_(seed * 0x9e3779b97f4a7c15ULL + 505 + client) {}

  std::string Dir(int d) const { return StrFormat("/c%d/d%d", client_, d); }

  MetaOp Create(int dir, const std::string& name) {
    MetaOp op;
    op.type = MetaOpType::kCreate;
    op.path = Dir(dir) + "/" + name;
    op.size = 16 + rng_.Uniform(240);
    op.data.assign(op.size, static_cast<char>('a' + rng_.Uniform(26)));
    Insert(dir, name, op.size);
    return op;
  }

  MetaOp Next() {
    const double u = rng_.NextDouble();
    // Mix: 30% create, 20% rename, 15% remove, 20% stat, 15% list.
    if (u < 0.30 || files_.empty()) {
      const int dir = static_cast<int>(rng_.Uniform(kDirsPerClient));
      return Create(dir, StrFormat("f%llu", static_cast<unsigned long long>(
                                                next_name_++)));
    }
    if (u < 0.50) {
      const size_t i = rng_.Uniform(files_.size());
      const File f = files_[i];
      const int to_dir =
          (f.dir + 1 + static_cast<int>(rng_.Uniform(kDirsPerClient - 1))) %
          kDirsPerClient;
      const std::string to_name = StrFormat(
          "r%llu", static_cast<unsigned long long>(next_name_++));
      MetaOp op;
      op.type = MetaOpType::kRename;
      op.path = Dir(f.dir) + "/" + f.name;
      op.to = Dir(to_dir) + "/" + to_name;
      Erase(i);
      Insert(to_dir, to_name, f.size);
      return op;
    }
    if (u < 0.65) {
      const size_t i = rng_.Uniform(files_.size());
      MetaOp op;
      op.type = MetaOpType::kRemove;
      op.path = Dir(files_[i].dir) + "/" + files_[i].name;
      Erase(i);
      return op;
    }
    if (u < 0.85) {
      const File& f = files_[rng_.Uniform(files_.size())];
      MetaOp op;
      op.type = MetaOpType::kStat;
      op.path = Dir(f.dir) + "/" + f.name;
      op.size = f.size;
      return op;
    }
    const int dir = static_cast<int>(rng_.Uniform(kDirsPerClient));
    MetaOp op;
    op.type = MetaOpType::kList;
    op.path = Dir(dir);
    std::vector<std::string> names;
    for (const File& f : files_) {
      if (f.dir == dir) names.push_back(f.name);
    }
    op.list_hash = HashNames(std::move(names));
    return op;
  }

  NamespaceModel Model() const {
    NamespaceModel m;
    for (int d = 0; d < kDirsPerClient; ++d) m.dirs[Dir(d)];
    for (const File& f : files_) m.dirs[Dir(f.dir)][f.name] = f.size;
    return m;
  }

 private:
  struct File {
    int dir;
    std::string name;
    uint64_t size;
  };
  void Insert(int dir, const std::string& name, uint64_t size) {
    files_.push_back({dir, name, size});
  }
  void Erase(size_t i) {
    files_[i] = std::move(files_.back());
    files_.pop_back();
  }

  int client_;
  Rng rng_;
  std::vector<File> files_;
  uint64_t next_name_ = 0;
};

std::unique_ptr<repl::ReplicatedKvStore> OpenStore(uint64_t seed,
                                                   const std::string& dir) {
  repl::ReplOptions opt;
  opt.num_shards = kShards;
  opt.followers_per_shard = kFollowers;
  opt.write_quorum = kWriteQuorum;
  opt.data_dir = dir;
  opt.election_seed = seed;
  auto opened = repl::ReplicatedKvStore::Open(opt);
  EEA_CHECK_OK(opened.status());
  return std::move(opened).value();
}

exearth::common::Status RunOp(dfs::HopsFsNameNode* nn, const MetaOp& op,
                              std::string* wrong) {
  switch (op.type) {
    case MetaOpType::kCreate:
      return nn->Create(op.path, op.size, op.data);
    case MetaOpType::kRename:
      return nn->Rename(op.path, op.to);
    case MetaOpType::kRemove:
      return nn->Remove(op.path);
    case MetaOpType::kStat: {
      auto info = nn->GetFileInfo(op.path);
      if (info.ok() && (info->is_directory || info->size_bytes != op.size)) {
        *wrong = StrFormat("stat %s: size %llu, model says %llu",
                           op.path.c_str(),
                           static_cast<unsigned long long>(info->size_bytes),
                           static_cast<unsigned long long>(op.size));
      }
      return info.status();
    }
    case MetaOpType::kList: {
      auto names = nn->List(op.path);
      if (names.ok() && HashNames(*names) != op.list_hash) {
        *wrong = "list " + op.path + ": listing differs from the model";
      }
      return names.status();
    }
  }
  return exearth::common::Status::OK();
}

// What one client thread measured.
struct ClientRun {
  std::vector<double> latency_us;
  uint64_t completed = 0;
  double busy_us = 0.0;
  uint64_t failed = 0;
  std::string first_failure;
  std::string wrong;
  Tracer tracer{false};
};

void RunClient(dfs::HopsFsCluster* cluster, const std::vector<MetaOp>* ops,
               ClientRun* run) {
  dfs::HopsFsNameNode nn(cluster);
  run->latency_us.reserve(ops->size());
  for (size_t i = 0; i < ops->size(); ++i) {
    const MetaOp& op = (*ops)[i];
    std::string wrong;
    const int span = run->tracer.Begin(MetaOpName(op.type), i);
    const auto t0 = Clock::now();
    const exearth::common::Status s = RunOp(&nn, op, &wrong);
    const auto t1 = Clock::now();
    run->tracer.End(span);
    run->latency_us.push_back(MicrosBetween(t0, t1));
    run->completed += s.ok() ? 1 : 0;
    run->busy_us += run->latency_us.back();
    if (!s.ok()) {
      if (run->failed++ == 0) {
        run->first_failure = std::string(MetaOpName(op.type)) + " " +
                             op.path + ": " + s.ToString();
      }
    } else if (!wrong.empty() && run->wrong.empty()) {
      run->wrong = wrong;
    }
  }
}

}  // namespace

const char* MetaOpName(MetaOpType t) {
  switch (t) {
    case MetaOpType::kCreate: return "dfs.create";
    case MetaOpType::kRename: return "dfs.rename";
    case MetaOpType::kRemove: return "dfs.remove";
    case MetaOpType::kStat: return "dfs.stat";
    case MetaOpType::kList: return "dfs.list";
  }
  return "dfs.unknown";
}

MetaClientPlan PlanMetaClient(uint64_t seed, int client, size_t ops,
                              size_t files_per_dir) {
  ClientModel model(seed, client);
  MetaClientPlan plan;
  for (size_t k = 0; k < files_per_dir; ++k) {
    for (int d = 0; d < kDirsPerClient; ++d) {
      plan.preload.push_back(model.Create(
          d, StrFormat("p%d_%zu", d, k)));
    }
  }
  plan.ops.reserve(ops);
  for (size_t i = 0; i < ops; ++i) plan.ops.push_back(model.Next());
  plan.final_model = model.Model();
  return plan;
}

PassResult RunMetaChurn(const PassConfig& config) {
  PassResult out;
  out.tracer = Tracer(config.traced);
  const size_t ops_per_client =
      static_cast<size_t>(config.seconds * kOpsPerClientPerSecond);
  std::vector<MetaClientPlan> plans;
  NamespaceModel expected;
  for (int c = 0; c < kClients; ++c) {
    plans.push_back(
        PlanMetaClient(config.seed, c, ops_per_client, kPreloadPerDir));
    for (auto& [dir, files] : plans.back().final_model.dirs) {
      expected.dirs[dir] = files;
    }
  }
  const std::string dir = config.workdir + "/wal";
  const dfs::HopsFsCluster::Options fs_options;

  std::unique_ptr<repl::ReplicatedKvStore> store;
  std::unique_ptr<dfs::HopsFsCluster> cluster;
  double recovery_us = 0.0;
  uint64_t replayed = 0;
  uint64_t mutations = 0;
  auto set_up = [&] {
    cluster.reset();
    store.reset();
    ReleaseFreedMemory();
    std::filesystem::remove_all(config.workdir);
    const auto t0 = Clock::now();
    mutations = 0;
    {
      // Preload: each client fills its own directories in parallel.
      auto fresh = OpenStore(config.seed, dir);
      dfs::HopsFsCluster preload_cluster(fs_options, fresh.get(), kShards);
      dfs::HopsFsNameNode nn(&preload_cluster);
      for (int c = 0; c < kClients; ++c) {
        EEA_CHECK_OK(nn.Mkdir(StrFormat("/c%d", c)));
        for (int d = 0; d < kDirsPerClient; ++d) {
          EEA_CHECK_OK(nn.Mkdir(StrFormat("/c%d/d%d", c, d)));
        }
      }
      std::vector<std::thread> threads;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          dfs::HopsFsNameNode client_nn(&preload_cluster);
          for (const MetaOp& op : plans[static_cast<size_t>(c)].preload) {
            EEA_CHECK_OK(client_nn.Create(op.path, op.size, op.data));
          }
        });
      }
      for (auto& t : threads) t.join();
      mutations += static_cast<uint64_t>(kClients) * (1 + kDirsPerClient) +
                   static_cast<uint64_t>(kClients) * kDirsPerClient *
                       kPreloadPerDir;
    }
    // Restart: reopen replays every replica's WAL.
    const uint64_t replayed0 = CounterValue("storage.wal.replayed_records");
    const auto r0 = Clock::now();
    store = OpenStore(config.seed, dir);
    recovery_us = MicrosBetween(r0, Clock::now());
    replayed = CounterValue("storage.wal.replayed_records") - replayed0;
    cluster = std::make_unique<dfs::HopsFsCluster>(fs_options, store.get(),
                                                   kShards);
    out.setup_s.push_back(MicrosBetween(t0, Clock::now()) / 1e6);
  };
  set_up();

  // Timed phase: the client threads run their fixed op sequences.
  const repl::ReplStats rs0 = store->repl_stats();
  const uint64_t fsyncs0 = CounterValue("storage.wal.fsyncs");
  const uint64_t retries0 = cluster->txn_retries();
  std::vector<ClientRun> runs;
  for (int c = 0; c < kClients; ++c) {
    runs.emplace_back();
    runs.back().tracer = Tracer(config.traced);
  }
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(RunClient, cluster.get(),
                           &plans[static_cast<size_t>(c)].ops,
                           &runs[static_cast<size_t>(c)]);
    }
    for (auto& t : threads) t.join();
  }
  const repl::ReplStats rs1 = store->repl_stats();
  const uint64_t fsyncs = CounterValue("storage.wal.fsyncs") - fsyncs0;
  const uint64_t retries = cluster->txn_retries() - retries0;

  for (size_t c = 0; c < runs.size(); ++c) {
    const ClientRun& r = runs[c];
    out.attempted += plans[c].ops.size();
    out.failed += r.failed;
    out.sample_latency_us.insert(out.sample_latency_us.end(),
                                 r.latency_us.begin(), r.latency_us.end());
    out.completed += r.completed;
    out.busy_us += r.busy_us;
    if (!r.first_failure.empty()) {
      std::fprintf(stderr, "meta_churn: client %zu: %llu ops failed, first: %s\n",
                   c, static_cast<unsigned long long>(r.failed),
                   r.first_failure.c_str());
    }
    if (!r.wrong.empty()) out.Fail(r.wrong);
    for (const MetaOp& op : plans[c].ops) {
      if (op.type != MetaOpType::kStat && op.type != MetaOpType::kList) {
        ++mutations;
      }
    }
    out.tracer.Absorb(r.tracer);
  }
  out.clients = kClients;

  if (config.traced) {
    auto& m = out.layer;
    m["storage.recovery_us"] = recovery_us;
    m["storage.replayed_records"] = static_cast<double>(replayed);
    const double commits =
        static_cast<double>(rs1.commits_acked - rs0.commits_acked);
    m["storage.wal_fsyncs_per_commit"] =
        Ratio(static_cast<double>(fsyncs), commits);
    m["storage.wal_bytes_per_mutation"] =
        Ratio(static_cast<double>(DirectoryBytes(dir)),
              static_cast<double>(mutations));
    m["repl.frames_shipped_per_commit"] = Ratio(
        static_cast<double>(rs1.frames_shipped - rs0.frames_shipped), commits);
    m["repl.catchup_records"] =
        static_cast<double>(rs1.catchup_records - rs0.catchup_records);
    m["kv.txn_retries_per_op"] =
        Ratio(static_cast<double>(retries), static_cast<double>(out.attempted));
    for (MetaOpType t : {MetaOpType::kCreate, MetaOpType::kRename,
                         MetaOpType::kRemove, MetaOpType::kStat,
                         MetaOpType::kList}) {
      m[std::string(MetaOpName(t)) + "_us"] =
          Median(out.tracer.DurationsUs(MetaOpName(t)));
    }
    // Direct single-key commits on a key range of the traced pass's own
    // (outside the namespace's i| and b| rows).
    std::vector<double> commit_us;
    for (int i = 0; i < kDirectCommits; ++i) {
      const std::string key = StrFormat("perfbench-commit/%06d", i);
      const int span = out.tracer.Begin("repl.Put", static_cast<uint64_t>(i));
      const auto p0 = Clock::now();
      const exearth::common::Status s = store->Put(key, key);
      commit_us.push_back(MicrosBetween(p0, Clock::now()));
      out.tracer.End(span);
      if (!s.ok()) out.Fail("direct commit " + key + ": " + s.ToString());
    }
    m["repl.commit_us"] = Median(commit_us);
  }

  // Close, reopen and compare the recovered namespace with the model: no
  // acknowledged write may be lost.
  cluster.reset();
  store.reset();
  {
    auto recovered = OpenStore(config.seed, dir);
    dfs::HopsFsCluster recovered_cluster(fs_options, recovered.get(), kShards);
    dfs::HopsFsNameNode nn(&recovered_cluster);
    const std::string err = CompareNamespace(expected, &nn);
    if (!err.empty()) out.Fail("after reopen: " + err);
  }
  out.peak_rss_mb = PeakRssMb();
  for (int rep = 1; rep < config.setup_reps; ++rep) set_up();
  cluster.reset();
  store.reset();
  std::filesystem::remove_all(config.workdir);
  return out;
}

}  // namespace perfbench
