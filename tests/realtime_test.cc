#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/realtime.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "models/fism.h"
#include "quant/sq8.h"
#include "util/random.h"

namespace sccf::core {
namespace {

class RealTimeTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig cfg;
    cfg.name = "rt-test";
    cfg.num_users = 120;
    cfg.num_items = 160;
    cfg.num_clusters = 8;
    cfg.min_actions = 10;
    cfg.max_actions = 30;
    cfg.seed = 31;
    data::SyntheticGenerator gen(cfg);
    auto ds = gen.Generate();
    SCCF_CHECK(ds.ok());
    dataset_ = new data::Dataset(std::move(ds).value());
    split_ = new data::LeaveOneOutSplit(*dataset_);

    models::Fism::Options fopts;
    fopts.dim = 16;
    fopts.epochs = 6;
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

  static data::Dataset* dataset_;
  static data::LeaveOneOutSplit* split_;
  static models::Fism* fism_;
};

data::Dataset* RealTimeTest::dataset_ = nullptr;
data::LeaveOneOutSplit* RealTimeTest::split_ = nullptr;
models::Fism* RealTimeTest::fism_ = nullptr;

TEST_F(RealTimeTest, RequiresBootstrap) {
  RealTimeService svc(*fism_, {});
  EXPECT_EQ(svc.OnInteraction(0, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(svc.Neighbors(0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(RealTimeTest, BootstrapOnlyOnce) {
  RealTimeService svc(*fism_, {});
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  EXPECT_EQ(svc.Bootstrap({}).code(), StatusCode::kFailedPrecondition);
}

TEST_F(RealTimeTest, OnInteractionReportsTimingsAndGrowsHistory) {
  RealTimeService svc(*fism_, {});
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  const size_t before = svc.History(3)->size();
  auto timing = svc.OnInteraction(3, 42);
  ASSERT_TRUE(timing.ok());
  EXPECT_GE(timing->infer_ms, 0.0);
  EXPECT_GE(timing->identify_ms, 0.0);
  EXPECT_GT(timing->total_ms(), 0.0);
  EXPECT_EQ(svc.History(3)->size(), before + 1);
  EXPECT_EQ(svc.History(3)->back(), 42);
}

TEST_F(RealTimeTest, RejectsUnknownItem) {
  RealTimeService svc(*fism_, {});
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  EXPECT_EQ(svc.OnInteraction(0, -1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      svc.OnInteraction(0, static_cast<int>(dataset_->num_items()) + 5)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST_F(RealTimeTest, ColdStartUserCreatedOnFly) {
  RealTimeService svc(*fism_, {});
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  const int new_user = 100000;
  ASSERT_TRUE(svc.OnInteraction(new_user, 7).ok());
  ASSERT_TRUE(svc.OnInteraction(new_user, 8).ok());
  EXPECT_EQ(svc.History(new_user)->size(), 2u);
  auto nbrs = svc.Neighbors(new_user);
  ASSERT_TRUE(nbrs.ok());
  EXPECT_FALSE(nbrs->empty());
}

TEST_F(RealTimeTest, NeighborhoodAdaptsToAdoptedTaste) {
  RealTimeService svc(*fism_, {});
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  // Feed user 0 the full recent history of user 70; with a window of 15
  // the inferred embedding converges to user 70's, so 70 must appear in
  // the fresh neighborhood.
  const auto target = split_->TrainSequence(70);
  const size_t take = std::min<size_t>(target.size(), 15);
  for (size_t i = target.size() - take; i < target.size(); ++i) {
    ASSERT_TRUE(svc.OnInteraction(0, target[i]).ok());
  }
  auto nbrs = svc.Neighbors(0);
  ASSERT_TRUE(nbrs.ok());
  bool found = false;
  for (const auto& nb : *nbrs) found = found || nb.id == 70;
  EXPECT_TRUE(found);
}

TEST_F(RealTimeTest, RecommendUserBasedExcludesOwnHistory) {
  RealTimeService svc(*fism_, {});
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  auto recs = svc.RecommendUserBased(5, 20);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  const std::vector<int> history = svc.History(5).value();
  for (const auto& rec : *recs) {
    EXPECT_EQ(std::count(history.begin(), history.end(), rec.id), 0)
        << "item " << rec.id << " is in user 5's history";
  }
  // Sorted descending by vote score.
  for (size_t i = 1; i < recs->size(); ++i) {
    EXPECT_GE((*recs)[i - 1].score, (*recs)[i].score);
  }
}

TEST_F(RealTimeTest, HistoryIsStatusOrSnapshot) {
  RealTimeService svc(*fism_, {});
  // Before Bootstrap there is no shard state to read.
  EXPECT_EQ(svc.History(0).status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  EXPECT_EQ(svc.History(999999).status().code(), StatusCode::kNotFound);
  // The returned history is a snapshot copy: mutating the service after
  // the call must not affect it (the old API returned a reference into
  // the map, which rehash or concurrent ingest would invalidate).
  auto snapshot = svc.History(3);
  ASSERT_TRUE(snapshot.ok());
  const std::vector<int> before = *snapshot;
  ASSERT_TRUE(svc.OnInteraction(3, 42).ok());
  EXPECT_EQ(*snapshot, before);
  EXPECT_EQ(svc.History(3)->size(), before.size() + 1);
}

// Pins the sharded refactor to the pre-sharding behavior: with the exact
// brute-force backend, a hash-partitioned service (any shard count) must
// produce byte-identical neighborhoods and recommendations to the
// single-shard service, whose code path is the pre-refactor one. Covers
// both the bootstrap state and the state after streaming updates.
TEST_F(RealTimeTest, ShardedMatchesSingleShardExactly) {
  RealTimeService::Options single_opts;
  single_opts.beta = 10;
  single_opts.num_shards = 1;
  RealTimeService::Options sharded_opts = single_opts;
  sharded_opts.num_shards = 7;

  RealTimeService single(*fism_, single_opts);
  RealTimeService sharded(*fism_, sharded_opts);
  ASSERT_TRUE(single.BootstrapFromSplit(*split_).ok());
  ASSERT_TRUE(sharded.BootstrapFromSplit(*split_).ok());
  ASSERT_EQ(single.num_shards(), 1u);
  ASSERT_EQ(sharded.num_shards(), 7u);
  EXPECT_EQ(single.num_users(), sharded.num_users());

  const auto expect_equal_views = [&](int user) {
    auto n1 = single.Neighbors(user);
    auto n7 = sharded.Neighbors(user);
    ASSERT_TRUE(n1.ok());
    ASSERT_TRUE(n7.ok());
    ASSERT_EQ(n1->size(), n7->size()) << "user " << user;
    for (size_t i = 0; i < n1->size(); ++i) {
      EXPECT_EQ((*n1)[i].id, (*n7)[i].id) << "user " << user << " rank " << i;
      EXPECT_FLOAT_EQ((*n1)[i].score, (*n7)[i].score);
    }
    auto r1 = single.RecommendUserBased(user, 20);
    auto r7 = sharded.RecommendUserBased(user, 20);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r7.ok());
    ASSERT_EQ(r1->size(), r7->size()) << "user " << user;
    for (size_t i = 0; i < r1->size(); ++i) {
      EXPECT_EQ((*r1)[i].id, (*r7)[i].id) << "user " << user << " rank " << i;
      EXPECT_FLOAT_EQ((*r1)[i].score, (*r7)[i].score);
    }
  };

  for (int user = 0; user < 25; ++user) expect_equal_views(user);

  // Stream the same interactions (incl. a cold-start user) through both.
  const std::vector<std::pair<int, int>> stream = {
      {0, 7}, {1, 8}, {70, 9}, {3000, 11}, {3000, 12}, {5, 13}, {0, 14}};
  for (const auto& [user, item] : stream) {
    ASSERT_TRUE(single.OnInteraction(user, item).ok());
    ASSERT_TRUE(sharded.OnInteraction(user, item).ok());
  }
  for (int user : {0, 1, 5, 70, 3000}) expect_equal_views(user);
}

// Users 0..n-1 with seeded histories of 5..15 items: a corpus large
// enough for the parallel fan-out without fitting a model on it.
std::vector<RealTimeService::UserState> SyntheticUsers(size_t n,
                                                       size_t num_items,
                                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<RealTimeService::UserState> users(n);
  for (size_t u = 0; u < n; ++u) {
    users[u].user = static_cast<int>(u);
    const int64_t len = rng.UniformInt(5, 15);
    for (int64_t i = 0; i < len; ++i) {
      users[u].history.push_back(static_cast<int>(rng.Uniform(num_items)));
    }
  }
  return users;
}

// Pins the parallel fan-out: with more than kParallelFanoutBytes of rows,
// a 4-shard service searches its shards on pool workers, and must still
// return the single-shard service's ids and float bits, for both
// storages. compaction_threshold exceeds the streamed users, so their
// rows stay staged and the workers merge the write buffers; a final
// Compact then moves them into the indexes.
TEST_F(RealTimeTest, ParallelFanoutMatchesSingleShardExactly) {
  const size_t d = fism_->embedding_dim();
  for (quant::Storage storage :
       {quant::Storage::kFp32, quant::Storage::kSq8}) {
    SCOPED_TRACE(quant::StorageName(storage));
    const size_t row_bytes =
        storage == quant::Storage::kSq8 ? d + 8 : sizeof(float) * d;
    const auto users = SyntheticUsers(
        RealTimeService::kParallelFanoutBytes / row_bytes * 5 / 4,
        fism_->num_items(), 17);

    RealTimeService::Options single_opts;
    single_opts.beta = 10;
    single_opts.num_shards = 1;
    single_opts.storage = storage;
    single_opts.compaction_threshold = 64;
    RealTimeService::Options sharded_opts = single_opts;
    sharded_opts.num_shards = 4;
    RealTimeService single(*fism_, single_opts);
    RealTimeService sharded(*fism_, sharded_opts);
    ASSERT_TRUE(single.Bootstrap(users).ok());
    ASSERT_TRUE(sharded.Bootstrap(users).ok());

    // The fan-out size SearchAllShards checks: index plus staged rows.
    size_t rows = 0;
    for (const auto& st : sharded.ShardStatsSnapshot()) {
      rows += st.index_rows + st.staged_rows;
    }
    ASSERT_GE(rows * row_bytes, RealTimeService::kParallelFanoutBytes);

    const auto bits = [](float f) { return std::bit_cast<uint32_t>(f); };
    const auto expect_identical_views = [&](int user) {
      auto n1 = single.Neighbors(user);
      auto n4 = sharded.Neighbors(user);
      ASSERT_TRUE(n1.ok());
      ASSERT_TRUE(n4.ok());
      ASSERT_EQ(n1->size(), n4->size()) << "user " << user;
      for (size_t i = 0; i < n1->size(); ++i) {
        EXPECT_EQ((*n1)[i].id, (*n4)[i].id) << "user " << user << " rank " << i;
        EXPECT_EQ(bits((*n1)[i].score), bits((*n4)[i].score))
            << "user " << user << " rank " << i;
      }
      auto r1 = single.RecommendUserBased(user, 20);
      auto r4 = sharded.RecommendUserBased(user, 20);
      ASSERT_TRUE(r1.ok());
      ASSERT_TRUE(r4.ok());
      ASSERT_EQ(r1->size(), r4->size()) << "user " << user;
      for (size_t i = 0; i < r1->size(); ++i) {
        EXPECT_EQ((*r1)[i].id, (*r4)[i].id) << "user " << user << " rank " << i;
        EXPECT_EQ(bits((*r1)[i].score), bits((*r4)[i].score))
            << "user " << user << " rank " << i;
      }
    };

    for (int user = 0; user < 20; ++user) expect_identical_views(user);

    // 40 streamed users, 8 of them cold starts, all staged in both.
    std::vector<int> streamed;
    for (int i = 0; i < 40; ++i) {
      const int user = i < 32 ? i * 97 : 1'000'000 + i;
      streamed.push_back(user);
      const int item = (i * 13) % static_cast<int>(fism_->num_items());
      ASSERT_TRUE(single.OnInteraction(user, item).ok());
      ASSERT_TRUE(sharded.OnInteraction(user, item).ok());
    }
    ASSERT_EQ(single.pending_upserts(), streamed.size());
    ASSERT_EQ(sharded.pending_upserts(), streamed.size());
    for (int user : streamed) expect_identical_views(user);

    ASSERT_TRUE(single.Compact().ok());
    ASSERT_TRUE(sharded.Compact().ok());
    ASSERT_EQ(sharded.pending_upserts(), 0u);
    for (int user : streamed) expect_identical_views(user);
  }
}

TEST_F(RealTimeTest, UnknownUserNeighborsIsNotFound) {
  RealTimeService svc(*fism_, {});
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  EXPECT_EQ(svc.Neighbors(999999).status().code(), StatusCode::kNotFound);
}

TEST_F(RealTimeTest, WorksWithHnswBackend) {
  RealTimeService::Options opts;
  opts.index_kind = IndexKind::kHnsw;
  RealTimeService svc(*fism_, opts);
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  ASSERT_TRUE(svc.OnInteraction(1, 3).ok());
  auto nbrs = svc.Neighbors(1);
  ASSERT_TRUE(nbrs.ok());
  EXPECT_FALSE(nbrs->empty());
}

TEST_F(RealTimeTest, WorksWithIvfBackend) {
  RealTimeService::Options opts;
  opts.index_kind = IndexKind::kIvfFlat;
  opts.ivf.nlist = 8;
  opts.ivf.nprobe = 4;
  RealTimeService svc(*fism_, opts);
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  ASSERT_TRUE(svc.OnInteraction(1, 3).ok());
  auto nbrs = svc.Neighbors(1);
  ASSERT_TRUE(nbrs.ok());
  EXPECT_FALSE(nbrs->empty());
}

// Streaming-vs-batch equivalence (deterministic): feeding a cold-start
// user through OnInteraction must create state, refresh the index, and
// land in exactly the neighborhood a from-scratch Bootstrap of the same
// histories produces. IVF probes every list and HNSW gets a generous beam
// so both backends are exhaustive at this scale; any divergence between
// the incremental and batch paths is then a real bug, not ANN noise.
TEST_F(RealTimeTest, ColdStartMatchesFromScratchBootstrap) {
  constexpr int kColdUser = 500;
  constexpr size_t kBeta = 10;
  const std::vector<int> cold_history = {7, 8, 9, 42, 43};

  const auto options_for = [](IndexKind kind) {
    RealTimeService::Options opts;
    opts.beta = kBeta;
    opts.index_kind = kind;
    opts.ivf.nlist = 4;
    opts.ivf.nprobe = 4;  // scan every list: exhaustive
    opts.hnsw.ef_search = 256;
    return opts;
  };

  std::vector<int> top1_per_backend;
  for (IndexKind kind :
       {IndexKind::kBruteForce, IndexKind::kHnsw, IndexKind::kIvfFlat}) {
    // Incremental: bootstrap the corpus, then stream the cold user in.
    RealTimeService streamed(*fism_, options_for(kind));
    ASSERT_TRUE(streamed.BootstrapFromSplit(*split_).ok());
    const size_t users_before = streamed.num_users();
    for (int item : cold_history) {
      ASSERT_TRUE(streamed.OnInteraction(kColdUser, item).ok());
    }
    EXPECT_EQ(streamed.num_users(), users_before + 1);
    EXPECT_EQ(streamed.History(kColdUser)->size(), cold_history.size());

    // Batch: one Bootstrap over the identical final histories.
    std::vector<RealTimeService::UserState> states(split_->num_users());
    for (size_t u = 0; u < split_->num_users(); ++u) {
      states[u].user = static_cast<int>(u);
      const auto h = split_->TrainSequence(u);
      states[u].history.assign(h.begin(), h.end());
    }
    states.push_back({kColdUser, cold_history});
    RealTimeService batch(*fism_, options_for(kind));
    ASSERT_TRUE(batch.Bootstrap(states).ok());

    auto streamed_nbrs = streamed.Neighbors(kColdUser);
    auto batch_nbrs = batch.Neighbors(kColdUser);
    ASSERT_TRUE(streamed_nbrs.ok());
    ASSERT_TRUE(batch_nbrs.ok());
    ASSERT_EQ(streamed_nbrs->size(), batch_nbrs->size());
    for (size_t i = 0; i < streamed_nbrs->size(); ++i) {
      EXPECT_EQ((*streamed_nbrs)[i].id, (*batch_nbrs)[i].id)
          << "backend " << static_cast<int>(kind) << " rank " << i;
      EXPECT_FLOAT_EQ((*streamed_nbrs)[i].score, (*batch_nbrs)[i].score);
    }
    ASSERT_FALSE(streamed_nbrs->empty());
    top1_per_backend.push_back((*streamed_nbrs)[0].id);
  }

  // Brute force vs HNSW vs IVF agree on the nearest neighbor.
  ASSERT_EQ(top1_per_backend.size(), 3u);
  EXPECT_EQ(top1_per_backend[0], top1_per_backend[1]);
  EXPECT_EQ(top1_per_backend[0], top1_per_backend[2]);
}

}  // namespace
}  // namespace sccf::core
