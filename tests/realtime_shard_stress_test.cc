// Concurrency stress for the sharded RealTimeService: N producer threads
// hammer OnInteraction (and batched Engine::Ingest with write-buffered
// compaction) concurrently, then the full service state is checked for
// equivalence against a serial replay of the same interactions. Runs
// under ASan in the asan preset and under TSan via scripts/ci.sh (tsan
// preset), where the per-shard shared_mutex discipline — including the
// buffer-merging query path racing staged ingest — is what is actually
// on trial.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/realtime.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "models/fism.h"
#include "online/engine.h"
#include "util/random.h"

namespace sccf::core {
namespace {

constexpr int kThreads = 4;
constexpr int kStepsPerUser = 10;

class RealTimeShardStressTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig cfg;
    cfg.name = "shard-stress";
    cfg.num_users = 80;
    cfg.num_items = 120;
    cfg.num_clusters = 6;
    cfg.min_actions = 8;
    cfg.max_actions = 24;
    cfg.seed = 47;
    data::SyntheticGenerator gen(cfg);
    auto ds = gen.Generate();
    SCCF_CHECK(ds.ok());
    dataset_ = new data::Dataset(std::move(ds).value());
    split_ = new data::LeaveOneOutSplit(*dataset_);

    models::Fism::Options fopts;
    fopts.dim = 16;
    fopts.epochs = 3;  // enough training that user embeddings are distinct
    fism_ = new models::Fism(fopts);
    SCCF_CHECK(fism_->Fit(*split_).ok());
  }
  static void TearDownTestSuite() {
    delete fism_;
    delete split_;
    delete dataset_;
    fism_ = nullptr;
    split_ = nullptr;
    dataset_ = nullptr;
  }

  static RealTimeService::Options ShardedOptions(IndexKind kind) {
    RealTimeService::Options opts;
    opts.beta = 10;
    opts.num_shards = 8;  // explicit: hosts with 1 hw thread still shard
    opts.index_kind = kind;
    opts.ivf.nlist = 4;
    opts.ivf.nprobe = 4;
    opts.hnsw.ef_search = 256;
    return opts;
  }

  /// Thread t owns existing users {u : u % kThreads == t} plus one cold
  /// user, so every user's interaction sequence is deterministic even
  /// under concurrent execution (threads never share a user).
  static std::vector<std::pair<int, int>> PlanForThread(int t) {
    std::vector<std::pair<int, int>> plan;
    const int num_items = static_cast<int>(dataset_->num_items());
    std::vector<int> users;
    for (int u = t; u < static_cast<int>(split_->num_users());
         u += kThreads) {
      users.push_back(u);
    }
    users.push_back(2000 + t);  // cold start
    for (int step = 0; step < kStepsPerUser; ++step) {
      for (int u : users) {
        plan.push_back({u, (u * 7 + step * 13) % num_items});
      }
    }
    return plan;
  }

  static data::Dataset* dataset_;
  static data::LeaveOneOutSplit* split_;
  static models::Fism* fism_;
};

data::Dataset* RealTimeShardStressTest::dataset_ = nullptr;
data::LeaveOneOutSplit* RealTimeShardStressTest::split_ = nullptr;
models::Fism* RealTimeShardStressTest::fism_ = nullptr;

TEST_F(RealTimeShardStressTest, ConcurrentIngestMatchesSerialReplay) {
  RealTimeService concurrent(*fism_, ShardedOptions(IndexKind::kBruteForce));
  ASSERT_TRUE(concurrent.BootstrapFromSplit(*split_).ok());

  std::vector<std::vector<std::pair<int, int>>> plans;
  for (int t = 0; t < kThreads; ++t) plans.push_back(PlanForThread(t));

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (const auto& [user, item] : plans[t]) {
        auto timing = concurrent.OnInteraction(user, item);
        if (!timing.ok()) failures.fetch_add(1);
        // Interleave reads with the writes so the fan-out/read-lock path
        // runs concurrently with other shards' ingest.
        if (user % 3 == 0) {
          auto nbrs = concurrent.Neighbors(user);
          if (!nbrs.ok() || nbrs->empty()) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_EQ(failures.load(), 0);

  // Serial replay: same interactions, one thread. Cross-thread order is
  // irrelevant to final state — each user's history (and therefore final
  // embedding and vote set) depends only on that user's own sequence,
  // which the disjoint per-thread user sets keep deterministic.
  RealTimeService serial(*fism_, ShardedOptions(IndexKind::kBruteForce));
  ASSERT_TRUE(serial.BootstrapFromSplit(*split_).ok());
  for (const auto& plan : plans) {
    for (const auto& [user, item] : plan) {
      ASSERT_TRUE(serial.OnInteraction(user, item).ok());
    }
  }

  // Full-state equivalence: user population, every history, every
  // neighborhood (exact backend => identical up to float-equal scores),
  // and the recommendation lists they induce.
  ASSERT_EQ(concurrent.num_users(), serial.num_users());
  std::vector<int> all_users;
  for (int u = 0; u < static_cast<int>(split_->num_users()); ++u) {
    all_users.push_back(u);
  }
  for (int t = 0; t < kThreads; ++t) all_users.push_back(2000 + t);

  for (int user : all_users) {
    auto h_conc = concurrent.History(user);
    auto h_ser = serial.History(user);
    ASSERT_TRUE(h_conc.ok()) << "user " << user;
    ASSERT_TRUE(h_ser.ok()) << "user " << user;
    EXPECT_EQ(*h_conc, *h_ser) << "history diverged for user " << user;

    auto n_conc = concurrent.Neighbors(user);
    auto n_ser = serial.Neighbors(user);
    ASSERT_TRUE(n_conc.ok()) << "user " << user;
    ASSERT_TRUE(n_ser.ok()) << "user " << user;
    ASSERT_EQ(n_conc->size(), n_ser->size()) << "user " << user;
    for (size_t i = 0; i < n_conc->size(); ++i) {
      EXPECT_EQ((*n_conc)[i].id, (*n_ser)[i].id)
          << "user " << user << " rank " << i;
      EXPECT_FLOAT_EQ((*n_conc)[i].score, (*n_ser)[i].score);
    }

    auto r_conc = concurrent.RecommendUserBased(user, 10);
    auto r_ser = serial.RecommendUserBased(user, 10);
    ASSERT_TRUE(r_conc.ok()) << "user " << user;
    ASSERT_TRUE(r_ser.ok()) << "user " << user;
    ASSERT_EQ(r_conc->size(), r_ser->size()) << "user " << user;
    for (size_t i = 0; i < r_conc->size(); ++i) {
      EXPECT_EQ((*r_conc)[i].id, (*r_ser)[i].id)
          << "user " << user << " rank " << i;
    }
  }
}

// Concurrent *batched* producers through the Engine facade: each thread
// packs its per-user-disjoint plan into IngestRequest batches routed
// through the per-shard write buffer (compaction_threshold > 1), with
// neighborhood reads racing the staged state. After a final Compact, the
// full state must match a serial per-event OnInteraction replay — the
// batched write path, the buffer, and the buffer-merging query path all
// under concurrency (the TSan run exercises the staged rows racing
// readers).
TEST_F(RealTimeShardStressTest, ConcurrentBatchedIngestMatchesSerialReplay) {
  online::Engine::Options opts = ShardedOptions(IndexKind::kBruteForce);
  opts.compaction_threshold = 16;
  online::Engine engine(*fism_, opts);
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());

  std::vector<std::vector<std::pair<int, int>>> plans;
  for (int t = 0; t < kThreads; ++t) plans.push_back(PlanForThread(t));

  constexpr size_t kBatchSize = 13;  // deliberately not a threshold divisor
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      online::Engine::IngestRequest req;
      for (size_t i = 0; i < plans[t].size(); ++i) {
        const auto& [user, item] = plans[t][i];
        req.events.push_back({user, item, static_cast<int64_t>(i)});
        if (req.events.size() == kBatchSize || i + 1 == plans[t].size()) {
          auto resp = engine.Ingest(req);
          if (!resp.ok() || resp->num_events != req.events.size()) {
            failures.fetch_add(1);
          }
          req.events.clear();
          // Interleave reads so the buffer-merging fan-out races other
          // threads' staged ingest.
          auto nbrs = engine.Neighbors({user, std::nullopt});
          if (!nbrs.ok() || nbrs->neighbors.empty()) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_TRUE(engine.Compact().ok());
  ASSERT_EQ(engine.pending_upserts(), 0u);

  RealTimeService serial(*fism_, ShardedOptions(IndexKind::kBruteForce));
  ASSERT_TRUE(serial.BootstrapFromSplit(*split_).ok());
  for (const auto& plan : plans) {
    for (const auto& [user, item] : plan) {
      ASSERT_TRUE(serial.OnInteraction(user, item).ok());
    }
  }

  ASSERT_EQ(engine.num_users(), serial.num_users());
  std::vector<int> all_users;
  for (int u = 0; u < static_cast<int>(split_->num_users()); ++u) {
    all_users.push_back(u);
  }
  for (int t = 0; t < kThreads; ++t) all_users.push_back(2000 + t);

  for (int user : all_users) {
    auto h_conc = engine.History({user});
    auto h_ser = serial.History(user);
    ASSERT_TRUE(h_conc.ok()) << "user " << user;
    ASSERT_TRUE(h_ser.ok()) << "user " << user;
    EXPECT_EQ(h_conc->items, *h_ser) << "history diverged for user " << user;

    auto n_conc = engine.Neighbors({user, std::nullopt});
    auto n_ser = serial.Neighbors(user);
    ASSERT_TRUE(n_conc.ok()) << "user " << user;
    ASSERT_TRUE(n_ser.ok()) << "user " << user;
    ASSERT_EQ(n_conc->neighbors.size(), n_ser->size()) << "user " << user;
    for (size_t i = 0; i < n_ser->size(); ++i) {
      EXPECT_EQ(n_conc->neighbors[i].id, (*n_ser)[i].id)
          << "user " << user << " rank " << i;
      EXPECT_FLOAT_EQ(n_conc->neighbors[i].score, (*n_ser)[i].score);
    }

    auto r_conc = engine.Recommend({user, 10, {}});
    auto r_ser = serial.RecommendUserBased(user, 10);
    ASSERT_TRUE(r_conc.ok()) << "user " << user;
    ASSERT_TRUE(r_ser.ok()) << "user " << user;
    ASSERT_EQ(r_conc->candidates.size(), r_ser->size()) << "user " << user;
    for (size_t i = 0; i < r_ser->size(); ++i) {
      EXPECT_EQ(r_conc->candidates[i].id, (*r_ser)[i].id)
          << "user " << user << " rank " << i;
    }
  }
}

// Cold-shard wall-clock compaction: rows staged behind an unreachable
// count threshold must reach the backend index with NO further ingest
// and NO queries — only the background compaction thread touches the
// shards. This is the liveness property the count-only policy lacked
// (scripts/ci.sh smoke-gates this test in release too). Under TSan the
// sweep's lock-free age probe racing pending_upserts() readers is what
// is on trial.
TEST_F(RealTimeShardStressTest, ColdShardBackgroundCompactionDrains) {
  online::Engine::Options opts = ShardedOptions(IndexKind::kBruteForce);
  opts.compaction_threshold = 1000000;  // count trigger never fires
  opts.compaction_interval_ms = 25;
  opts.background_compaction = true;
  online::Engine engine(*fism_, opts);
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());
  ASSERT_TRUE(engine.background_compaction_running());

  // One batch touching several shards, then hands off the machine: the
  // shards go cold immediately.
  online::Engine::IngestRequest req;
  req.identify = false;
  const int num_items = static_cast<int>(dataset_->num_items());
  for (int u = 0; u < 24; ++u) {
    req.events.push_back({u, (u * 5 + 3) % num_items, 0});
  }
  ASSERT_TRUE(engine.Ingest(req).ok());
  // The batch may legitimately observe 0 staged if the sweep fired
  // between shard releases, but normally rows are staged here.

  // Liveness: poll pending_upserts() (read locks only) until the sweep
  // drains every shard. Bound generously for loaded CI machines; the
  // expected time is ~1.5 intervals (sweep cadence = interval / 2).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.pending_upserts() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(engine.pending_upserts(), 0u)
      << "staged rows still pending after 10s — background compaction "
         "never drained the cold shards";

  // The drained state serves correctly (staged cold rows reached the
  // index, not the void).
  auto nbrs = engine.Neighbors({0, std::nullopt});
  ASSERT_TRUE(nbrs.ok());
  EXPECT_FALSE(nbrs->neighbors.empty());
}

// Shutdown (and restart) of the background compaction thread racing
// live batched ingest: StopBackgroundCompaction must join cleanly while
// producers hold/contend shard locks, and the final state must still be
// exactly the serial replay. TSan checks the join/notify edges and the
// sweep's drains racing the producers' staged writes.
TEST_F(RealTimeShardStressTest, BackgroundCompactionShutdownDuringIngest) {
  online::Engine::Options opts = ShardedOptions(IndexKind::kBruteForce);
  opts.compaction_threshold = 16;
  opts.compaction_interval_ms = 1;  // sweep constantly
  opts.background_compaction = true;
  online::Engine engine(*fism_, opts);
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());

  std::vector<std::vector<std::pair<int, int>>> plans;
  for (int t = 0; t < kThreads; ++t) plans.push_back(PlanForThread(t));

  constexpr size_t kBatchSize = 13;
  std::atomic<int> failures{0};
  std::atomic<bool> ingest_started{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      online::Engine::IngestRequest req;
      for (size_t i = 0; i < plans[t].size(); ++i) {
        const auto& [user, item] = plans[t][i];
        req.events.push_back({user, item, static_cast<int64_t>(i)});
        if (req.events.size() == kBatchSize || i + 1 == plans[t].size()) {
          auto resp = engine.Ingest(req);
          if (!resp.ok()) failures.fetch_add(1);
          req.events.clear();
          ingest_started.store(true, std::memory_order_release);
          auto nbrs = engine.Neighbors({user, std::nullopt});
          if (!nbrs.ok() || nbrs->neighbors.empty()) failures.fetch_add(1);
        }
      }
    });
  }

  // Stop mid-ingest (after at least one batch landed), restart, stop
  // again — the full lifecycle under producer pressure.
  while (!ingest_started.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.StopBackgroundCompaction();
  EXPECT_FALSE(engine.background_compaction_running());
  ASSERT_TRUE(engine.StartBackgroundCompaction().ok());
  engine.StopBackgroundCompaction();

  for (auto& w : workers) w.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_TRUE(engine.Compact().ok());
  ASSERT_EQ(engine.pending_upserts(), 0u);

  RealTimeService serial(*fism_, ShardedOptions(IndexKind::kBruteForce));
  ASSERT_TRUE(serial.BootstrapFromSplit(*split_).ok());
  for (const auto& plan : plans) {
    for (const auto& [user, item] : plan) {
      ASSERT_TRUE(serial.OnInteraction(user, item).ok());
    }
  }
  ASSERT_EQ(engine.num_users(), serial.num_users());
  for (int u = 0; u < static_cast<int>(split_->num_users()); u += 7) {
    auto h_conc = engine.History({u});
    auto h_ser = serial.History(u);
    ASSERT_TRUE(h_conc.ok() && h_ser.ok()) << "user " << u;
    EXPECT_EQ(h_conc->items, *h_ser) << "history diverged for user " << u;
    auto n_conc = engine.Neighbors({u, std::nullopt});
    auto n_ser = serial.Neighbors(u);
    ASSERT_TRUE(n_conc.ok() && n_ser.ok()) << "user " << u;
    ASSERT_EQ(n_conc->neighbors.size(), n_ser->size()) << "user " << u;
    for (size_t i = 0; i < n_ser->size(); ++i) {
      EXPECT_EQ(n_conc->neighbors[i].id, (*n_ser)[i].id)
          << "user " << u << " rank " << i;
      EXPECT_FLOAT_EQ(n_conc->neighbors[i].score, (*n_ser)[i].score);
    }
  }
}

// Delete-heavy HNSW churn through the Engine facade, pinned under TSan:
// every update to an existing user tombstones its graph node and
// reinserts, so repeated update rounds drive the tombstone count toward
// the rebuild trigger while concurrent Compact() calls and stats
// readers race the writers under the per-shard lock-ordering contract.
// The invariant on trial: after any operation, a shard's HNSW graph
// either has fewer than the rebuild-floor nodes or strictly fewer dead
// nodes than max_tombstone_ratio of the graph — bounded residency, not
// unbounded tombstone accumulation.
TEST_F(RealTimeShardStressTest, HnswTombstonesBoundedUnderConcurrentChurn) {
  constexpr size_t kRebuildFloor = 64;  // HnswIndex kRebuildMinNodes
  online::Engine::Options opts = ShardedOptions(IndexKind::kHnsw);
  opts.storage = quant::Storage::kSq8;  // int8 scan path races too
  opts.compaction_threshold = 8;        // staged rows drain mid-churn
  ASSERT_GT(opts.hnsw.max_tombstone_ratio, 0.0);
  const double ratio = opts.hnsw.max_tombstone_ratio;

  online::Engine engine(*fism_, opts);
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());

  constexpr int kRounds = 3;  // 3x the per-user plan => heavy tombstoning
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};

  // A stats reader races the writers: ShardStatsSnapshot takes one
  // shared lock per shard, and the bound must hold at every sample, not
  // just after quiescence.
  std::thread auditor([&] {
    while (!done.load(std::memory_order_relaxed)) {
      for (const auto& s : engine.ShardStats()) {
        const double nodes =
            static_cast<double>(s.index_rows + s.tombstones);
        if (s.tombstones >= kRebuildFloor &&
            static_cast<double>(s.tombstones) >= ratio * nodes) {
          failures.fetch_add(1);
        }
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& [user, item] : PlanForThread(t)) {
          online::Engine::IngestRequest req;
          req.events.push_back({user, item, round});
          auto resp = engine.Ingest(req);
          if (!resp.ok()) failures.fetch_add(1);
          if (user % 7 == 0 && !engine.Compact().ok()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  done.store(true, std::memory_order_relaxed);
  auditor.join();
  ASSERT_EQ(failures.load(), 0);

  ASSERT_TRUE(engine.Compact().ok());
  ASSERT_EQ(engine.pending_upserts(), 0u);

  // Post-quiescence: the bound holds per shard, the totals surface
  // through Stats(), and the graphs actually churned (some shard saw
  // enough updates that tombstones existed at some point — final counts
  // may be zero right after a rebuild, so assert the bound, not a
  // nonzero floor).
  size_t total_rows = 0;
  for (const auto& s : engine.ShardStats()) {
    total_rows += s.index_rows;
    const double nodes = static_cast<double>(s.index_rows + s.tombstones);
    EXPECT_TRUE(s.tombstones < kRebuildFloor ||
                static_cast<double>(s.tombstones) < ratio * nodes)
        << "shard tombstones=" << s.tombstones << " nodes=" << nodes;
    EXPECT_EQ(s.embedding_bytes, 0u);  // sq8: codes only
    if (s.index_rows > 0) EXPECT_GT(s.code_bytes, 0u);
  }
  EXPECT_EQ(total_rows, split_->num_users() + kThreads);
  EXPECT_EQ(engine.Stats().tombstones,
            [&] {
              size_t t = 0;
              for (const auto& s : engine.ShardStats()) t += s.tombstones;
              return t;
            }());
}

// Above kParallelFanoutBytes every identify and query fan-out searches
// its shards on pool workers, so workers take shard read locks while
// writer threads hold other shards' write locks (and drain their write
// buffers). Readers race the writers throughout; the concurrent run must
// still end in the serial replay's state.
TEST_F(RealTimeShardStressTest, ParallelFanoutUnderConcurrentIngest) {
  const size_t row_bytes = sizeof(float) * fism_->embedding_dim();
  const size_t num_users =
      RealTimeService::kParallelFanoutBytes / row_bytes * 5 / 4;
  Rng rng(53);
  std::vector<RealTimeService::UserState> users(num_users);
  for (size_t u = 0; u < num_users; ++u) {
    users[u].user = static_cast<int>(u);
    for (int i = 0; i < 8; ++i) {
      users[u].history.push_back(
          static_cast<int>(rng.Uniform(dataset_->num_items())));
    }
  }
  RealTimeService::Options opts = ShardedOptions(IndexKind::kBruteForce);
  opts.compaction_threshold = 4;
  RealTimeService concurrent(*fism_, opts);
  ASSERT_TRUE(concurrent.Bootstrap(users).ok());

  // Writer w owns users {w, w + kWriters, ...} below 64 plus one cold
  // user, so each user's sequence is fixed whatever the interleaving.
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  const int num_items = static_cast<int>(dataset_->num_items());
  std::vector<std::vector<std::pair<int, int>>> plans(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (int step = 0; step < 4; ++step) {
      for (int u = w; u < 64; u += kWriters) {
        plans[w].push_back({u, (u * 7 + step * 13) % num_items});
      }
      plans[w].push_back({3'000'000 + w, step});
    }
  }

  std::atomic<int> failures{0};
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (const auto& [user, item] : plans[w]) {
        if (!concurrent.OnInteraction(user, item).ok()) failures.fetch_add(1);
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (int user = r; writers_left.load() > 0; user = (user + 7) % 64) {
        auto nbrs = concurrent.Neighbors(user);
        if (!nbrs.ok() || nbrs->empty()) failures.fetch_add(1);
        if (!concurrent.RecommendUserBased(user, 10).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  RealTimeService serial(*fism_, opts);
  ASSERT_TRUE(serial.Bootstrap(users).ok());
  for (const auto& plan : plans) {
    for (const auto& [user, item] : plan) {
      ASSERT_TRUE(serial.OnInteraction(user, item).ok());
    }
  }
  ASSERT_TRUE(concurrent.Compact().ok());
  ASSERT_TRUE(serial.Compact().ok());

  std::vector<int> check;
  for (int u = 0; u < 64; ++u) check.push_back(u);
  for (int w = 0; w < kWriters; ++w) check.push_back(3'000'000 + w);
  for (int user : check) {
    auto n_conc = concurrent.Neighbors(user);
    auto n_ser = serial.Neighbors(user);
    ASSERT_TRUE(n_conc.ok()) << "user " << user;
    ASSERT_TRUE(n_ser.ok()) << "user " << user;
    ASSERT_EQ(n_conc->size(), n_ser->size()) << "user " << user;
    for (size_t i = 0; i < n_conc->size(); ++i) {
      EXPECT_EQ((*n_conc)[i].id, (*n_ser)[i].id)
          << "user " << user << " rank " << i;
      EXPECT_FLOAT_EQ((*n_conc)[i].score, (*n_ser)[i].score);
    }
  }
}

// ANN backends cannot promise serial-replay equivalence (graph/bucket
// state depends on insertion order), but their read paths must survive
// concurrent ingest without races or crashes — this is the test the TSan
// run leans on for HNSW/IVF coverage.
class RealTimeShardStressBackendTest
    : public RealTimeShardStressTest,
      public testing::WithParamInterface<IndexKind> {};

TEST_P(RealTimeShardStressBackendTest, ConcurrentIngestAndQuerySmoke) {
  RealTimeService svc(*fism_, ShardedOptions(GetParam()));
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (const auto& [user, item] : PlanForThread(t)) {
        if (!svc.OnInteraction(user, item).ok()) failures.fetch_add(1);
        auto nbrs = svc.Neighbors(user);
        if (!nbrs.ok() || nbrs->empty()) failures.fetch_add(1);
        if (user % 5 == 0 && !svc.RecommendUserBased(user, 5).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(svc.num_users(), split_->num_users() + kThreads);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, RealTimeShardStressBackendTest,
                         testing::Values(IndexKind::kBruteForce,
                                         IndexKind::kHnsw,
                                         IndexKind::kIvfFlat),
                         [](const auto& info) {
                           switch (info.param) {
                             case IndexKind::kBruteForce: return "BruteForce";
                             case IndexKind::kHnsw: return "Hnsw";
                             case IndexKind::kIvfFlat: return "IvfFlat";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace sccf::core
