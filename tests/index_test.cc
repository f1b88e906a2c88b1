#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>

#include "index/brute_force_index.h"
#include "index/hnsw_index.h"
#include "index/ivf_flat_index.h"
#include "index/vector_index.h"
#include "simd/kernels.h"
#include "tensor/tensor.h"
#include "util/coding.h"
#include "util/logging.h"
#include "util/random.h"

namespace sccf::index {
namespace {

std::vector<float> RandomCorpus(size_t n, size_t d, Rng& rng) {
  std::vector<float> data(n * d);
  for (auto& v : data) v = rng.Normal();
  return data;
}

// Exact reference search by linear scan.
std::vector<Neighbor> ExactSearch(const std::vector<float>& corpus, size_t n,
                                  size_t d, const float* q, size_t k,
                                  Metric metric, int exclude = -1) {
  TopKAccumulator acc(k);
  for (size_t i = 0; i < n; ++i) {
    if (static_cast<int>(i) == exclude) continue;
    float score;
    if (metric == Metric::kCosine) {
      score = tensor_ops::Cosine(q, corpus.data() + i * d, d);
    } else {
      score = tensor_ops::Dot(q, corpus.data() + i * d, d);
    }
    acc.Offer(static_cast<int>(i), score);
  }
  return acc.Take();
}

double RecallAtK(const std::vector<Neighbor>& got,
                 const std::vector<Neighbor>& truth) {
  std::set<int> truth_ids;
  for (const auto& nb : truth) truth_ids.insert(nb.id);
  size_t hits = 0;
  for (const auto& nb : got) hits += truth_ids.count(nb.id);
  return truth.empty() ? 1.0
                       : static_cast<double>(hits) / truth.size();
}

// ------------------------------------------------------ TopKAccumulator

TEST(TopKAccumulatorTest, KeepsBestK) {
  TopKAccumulator acc(3);
  for (int i = 0; i < 10; ++i) acc.Offer(i, static_cast<float>(i));
  auto out = acc.Take();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, 9);
  EXPECT_EQ(out[1].id, 8);
  EXPECT_EQ(out[2].id, 7);
}

TEST(TopKAccumulatorTest, FewerThanK) {
  TopKAccumulator acc(5);
  acc.Offer(1, 0.5f);
  acc.Offer(2, 0.9f);
  auto out = acc.Take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 2);
}

TEST(TopKAccumulatorTest, ZeroKAcceptsNothing) {
  TopKAccumulator acc(0);
  acc.Offer(1, 1.0f);
  EXPECT_TRUE(acc.Take().empty());
}

TEST(TopKAccumulatorTest, TiesBrokenByAscendingId) {
  TopKAccumulator acc(2);
  acc.Offer(5, 1.0f);
  acc.Offer(3, 1.0f);
  acc.Offer(9, 1.0f);
  auto out = acc.Take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 3);
  EXPECT_EQ(out[1].id, 5);
}

TEST(TopKAccumulatorTest, WouldAcceptReflectsThreshold) {
  TopKAccumulator acc(2);
  EXPECT_TRUE(acc.WouldAccept(-100.0f));
  acc.Offer(0, 1.0f);
  acc.Offer(1, 2.0f);
  EXPECT_FALSE(acc.WouldAccept(0.5f));
  EXPECT_TRUE(acc.WouldAccept(1.5f));
}

// ------------------------------------------------------ BruteForceIndex

class BruteForceParamTest : public testing::TestWithParam<Metric> {};

TEST_P(BruteForceParamTest, MatchesExactReference) {
  const Metric metric = GetParam();
  const size_t n = 200, d = 16;
  Rng rng(5);
  auto corpus = RandomCorpus(n, d, rng);
  BruteForceIndex idx(d, metric);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto got = idx.Search(q.data(), 10);
    ASSERT_TRUE(got.ok());
    auto truth = ExactSearch(corpus, n, d, q.data(), 10, metric);
    ASSERT_EQ(got->size(), truth.size());
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ((*got)[i].id, truth[i].id);
      EXPECT_NEAR((*got)[i].score, truth[i].score, 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Metrics, BruteForceParamTest,
                         testing::Values(Metric::kInnerProduct,
                                         Metric::kCosine));

TEST(BruteForceIndexTest, RejectsNegativeIdAndZeroK) {
  BruteForceIndex idx(4, Metric::kInnerProduct);
  const float v[4] = {1, 2, 3, 4};
  EXPECT_FALSE(idx.Add(-1, v).ok());
  ASSERT_TRUE(idx.Add(0, v).ok());
  EXPECT_FALSE(idx.Search(v, 0).ok());
}

TEST(BruteForceIndexTest, UpdateReplacesVector) {
  BruteForceIndex idx(2, Metric::kInnerProduct);
  const float a[2] = {1, 0};
  const float b[2] = {0, 1};
  ASSERT_TRUE(idx.Add(7, a).ok());
  ASSERT_TRUE(idx.Add(8, b).ok());
  const float qa[2] = {1, 0};
  auto r = idx.Search(qa, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].id, 7);
  // Streaming update: user 7 now points the other way.
  const float a2[2] = {-1, 0};
  ASSERT_TRUE(idx.Add(7, a2).ok());
  EXPECT_EQ(idx.size(), 2u);
  r = idx.Search(qa, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].id, 8);
}

TEST(BruteForceIndexTest, ExcludeIdFiltered) {
  BruteForceIndex idx(2, Metric::kCosine);
  const float a[2] = {1, 0};
  const float b[2] = {0.9f, 0.1f};
  ASSERT_TRUE(idx.Add(0, a).ok());
  ASSERT_TRUE(idx.Add(1, b).ok());
  auto r = idx.Search(a, 2, /*exclude_id=*/0);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].id, 1);
}

TEST(BruteForceIndexTest, CosineIgnoresMagnitude) {
  BruteForceIndex idx(2, Metric::kCosine);
  const float big[2] = {100, 0};
  const float small_aligned[2] = {0.01f, 0.0001f};
  ASSERT_TRUE(idx.Add(0, big).ok());
  ASSERT_TRUE(idx.Add(1, small_aligned).ok());
  const float q[2] = {1, 0.01f};
  auto r = idx.Search(q, 2);
  ASSERT_TRUE(r.ok());
  // Both nearly parallel to q: scores within a small gap; magnitudes
  // irrelevant.
  EXPECT_NEAR((*r)[0].score, 1.0f, 1e-3);
  EXPECT_NEAR((*r)[1].score, 1.0f, 1e-3);
}

TEST(BruteForceIndexTest, ParallelSearchMatchesSerial) {
  const size_t n = 6000, d = 8;
  Rng rng(7);
  auto corpus = RandomCorpus(n, d, rng);
  BruteForceIndex serial(d, Metric::kInnerProduct, /*parallel=*/false);
  BruteForceIndex parallel(d, Metric::kInnerProduct, /*parallel=*/true);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(serial.Add(i, corpus.data() + i * d).ok());
    ASSERT_TRUE(parallel.Add(i, corpus.data() + i * d).ok());
  }
  std::vector<float> q(d);
  for (auto& v : q) v = rng.Normal();
  auto rs = serial.Search(q.data(), 25);
  auto rp = parallel.Search(q.data(), 25);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rp.ok());
  ASSERT_EQ(rs->size(), rp->size());
  for (size_t i = 0; i < rs->size(); ++i) {
    EXPECT_EQ((*rs)[i].id, (*rp)[i].id);
  }
}

// --------------------------------------------------------- IvfFlatIndex

TEST(IvfFlatIndexTest, RequiresTraining) {
  IvfFlatIndex idx(4, Metric::kCosine, {});
  const float v[4] = {1, 0, 0, 0};
  EXPECT_EQ(idx.Add(0, v).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(idx.Search(v, 1).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(IvfFlatIndexTest, TrainRejectsBadInput) {
  IvfFlatIndex idx(4, Metric::kCosine, {.nlist = 8});
  std::vector<float> data(4 * 4, 0.0f);
  EXPECT_FALSE(idx.Train(data, 4).ok());   // fewer than nlist
  EXPECT_FALSE(idx.Train(data, 100).ok());  // size mismatch
}

TEST(IvfFlatIndexTest, HighRecallWithEnoughProbes) {
  const size_t n = 1000, d = 16;
  Rng rng(11);
  auto corpus = RandomCorpus(n, d, rng);
  IvfFlatIndex::Options opts;
  opts.nlist = 16;
  opts.nprobe = 8;
  IvfFlatIndex idx(d, Metric::kCosine, opts);
  ASSERT_TRUE(idx.Train(corpus, n).ok());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  double recall = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto got = idx.Search(q.data(), 10);
    ASSERT_TRUE(got.ok());
    auto truth = ExactSearch(corpus, n, d, q.data(), 10, Metric::kCosine);
    recall += RecallAtK(*got, truth);
  }
  EXPECT_GT(recall / trials, 0.8);
}

TEST(IvfFlatIndexTest, FullProbeIsExact) {
  const size_t n = 300, d = 8;
  Rng rng(13);
  auto corpus = RandomCorpus(n, d, rng);
  IvfFlatIndex::Options opts;
  opts.nlist = 10;
  opts.nprobe = 10;  // scan everything
  IvfFlatIndex idx(d, Metric::kInnerProduct, opts);
  ASSERT_TRUE(idx.Train(corpus, n).ok());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  std::vector<float> q(d);
  for (auto& v : q) v = rng.Normal();
  auto got = idx.Search(q.data(), 5);
  ASSERT_TRUE(got.ok());
  auto truth =
      ExactSearch(corpus, n, d, q.data(), 5, Metric::kInnerProduct);
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ((*got)[i].id, truth[i].id);
  }
}

TEST(IvfFlatIndexTest, StreamingReassignment) {
  const size_t d = 4;
  Rng rng(15);
  // Two well-separated blobs so reassignment is unambiguous.
  std::vector<float> corpus;
  const size_t n = 64;
  for (size_t i = 0; i < n; ++i) {
    const float cx = i < n / 2 ? 10.0f : -10.0f;
    corpus.push_back(cx + rng.Normal() * 0.1f);
    for (size_t j = 1; j < d; ++j) corpus.push_back(rng.Normal() * 0.1f);
  }
  IvfFlatIndex idx(d, Metric::kInnerProduct, {.nlist = 2, .nprobe = 1});
  ASSERT_TRUE(idx.Train(corpus, n).ok());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  EXPECT_EQ(idx.size(), n);
  // Move vector 0 to the other blob; with nprobe=1 it must be findable
  // from the other side, i.e., it was reassigned.
  const float moved[d] = {-10.0f, 0, 0, 0};
  ASSERT_TRUE(idx.Add(0, moved).ok());
  EXPECT_EQ(idx.size(), n);
  // Search wide enough to cover the whole target blob (whose members all
  // score within noise of the moved vector).
  const float q[d] = {-10.0f, 0, 0, 0};
  auto r = idx.Search(q, n / 2 + 4);
  ASSERT_TRUE(r.ok());
  bool found = false;
  for (const auto& nb : *r) found = found || nb.id == 0;
  EXPECT_TRUE(found);
}

// ------------------------------------------------------------ HnswIndex

TEST(HnswIndexTest, EmptyIndexReturnsNothing) {
  HnswIndex idx(4, Metric::kCosine, {});
  const float q[4] = {1, 0, 0, 0};
  auto r = idx.Search(q, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(HnswIndexTest, HighRecallOnRandomCorpus) {
  const size_t n = 1000, d = 16;
  Rng rng(17);
  auto corpus = RandomCorpus(n, d, rng);
  HnswIndex::Options opts;
  opts.m = 16;
  opts.ef_construction = 100;
  opts.ef_search = 80;
  HnswIndex idx(d, Metric::kCosine, opts);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  double recall = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto got = idx.Search(q.data(), 10);
    ASSERT_TRUE(got.ok());
    auto truth = ExactSearch(corpus, n, d, q.data(), 10, Metric::kCosine);
    recall += RecallAtK(*got, truth);
  }
  EXPECT_GT(recall / trials, 0.9);
}

TEST(HnswIndexTest, UpdateTombstonesOldVector) {
  HnswIndex idx(2, Metric::kInnerProduct, {});
  const float a[2] = {1, 0};
  const float b[2] = {0, 1};
  ASSERT_TRUE(idx.Add(0, a).ok());
  ASSERT_TRUE(idx.Add(1, b).ok());
  ASSERT_TRUE(idx.Add(0, b).ok());  // update id 0
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx.num_graph_nodes(), 3u);  // tombstone retained for routing
  const float q[2] = {1, 0};
  auto r = idx.Search(q, 2);
  ASSERT_TRUE(r.ok());
  // No duplicate external ids in results.
  std::set<int> ids;
  for (const auto& nb : *r) {
    EXPECT_TRUE(ids.insert(nb.id).second);
  }
}

TEST(HnswIndexTest, RecallStableUnderManyUpdates) {
  const size_t n = 300, d = 8;
  Rng rng(19);
  auto corpus = RandomCorpus(n, d, rng);
  HnswIndex idx(d, Metric::kCosine, {.m = 12, .ef_construction = 80,
                                     .ef_search = 64});
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  // Update every vector once (streaming user-embedding refresh).
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      corpus[i * d + j] += rng.Normal() * 0.05f;
    }
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  double recall = 0.0;
  const int trials = 15;
  for (int t = 0; t < trials; ++t) {
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto got = idx.Search(q.data(), 10);
    ASSERT_TRUE(got.ok());
    auto truth = ExactSearch(corpus, n, d, q.data(), 10, Metric::kCosine);
    recall += RecallAtK(*got, truth);
  }
  EXPECT_GT(recall / trials, 0.85);
}

TEST(HnswIndexTest, ExcludeId) {
  HnswIndex idx(2, Metric::kCosine, {});
  const float a[2] = {1, 0};
  ASSERT_TRUE(idx.Add(0, a).ok());
  ASSERT_TRUE(idx.Add(1, a).ok());
  auto r = idx.Search(a, 2, /*exclude_id=*/0);
  ASSERT_TRUE(r.ok());
  for (const auto& nb : *r) EXPECT_NE(nb.id, 0);
}

// ------------------------------------------------------- UpsertBuffer

TEST(UpsertBufferTest, PutOverwritesInPlaceAndKeepsFirstPutOrder) {
  UpsertBuffer buf(2, Metric::kInnerProduct);
  EXPECT_TRUE(buf.empty());
  const float v1[2] = {1, 0}, v2[2] = {0, 1}, v3[2] = {2, 2};
  buf.Put(7, v1);
  buf.Put(3, v2);
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_TRUE(buf.contains(7));
  EXPECT_FALSE(buf.contains(4));
  buf.Put(7, v3);  // overwrite: no new row, order unchanged
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.ids(), (std::vector<int>{7, 3}));
}

TEST(UpsertBufferTest, DrainToFlushesFinalVectorsInFirstPutOrder) {
  UpsertBuffer buf(2, Metric::kInnerProduct);
  BruteForceIndex idx(2, Metric::kInnerProduct);
  const float v1[2] = {1, 0}, v2[2] = {0, 1}, v3[2] = {3, 0};
  buf.Put(7, v1);
  buf.Put(3, v2);
  buf.Put(7, v3);  // only the final vector for id 7 reaches the index
  ASSERT_TRUE(buf.DrainTo(&idx).ok());
  EXPECT_TRUE(buf.empty());
  EXPECT_FALSE(buf.contains(7));
  EXPECT_EQ(idx.size(), 2u);
  const float q[2] = {1, 0};
  auto r = idx.Search(q, 2);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].id, 7);
  EXPECT_FLOAT_EQ((*r)[0].score, 3.0f);  // v3, not v1
}

TEST(UpsertBufferTest, OfferToMatchesIndexScoringForCosine) {
  // Staged scores must agree with what the backend would report after a
  // drain (normalised-copy semantics), including the zero-vector guard
  // and exclude_id handling.
  const size_t d = 8;
  Rng rng(99);
  UpsertBuffer buf(d, Metric::kCosine);
  BruteForceIndex direct(d, Metric::kCosine);
  std::vector<float> corpus = RandomCorpus(5, d, rng);
  std::fill(corpus.begin() + 4 * d, corpus.end(), 0.0f);  // zero row
  for (int i = 0; i < 5; ++i) {
    buf.Put(i, corpus.data() + i * d);
    ASSERT_TRUE(direct.Add(i, corpus.data() + i * d).ok());
  }
  std::vector<float> q(d);
  for (auto& v : q) v = rng.Normal();

  TopKAccumulator acc(5);
  buf.OfferTo(q.data(), /*exclude_id=*/2, &acc);
  std::vector<Neighbor> staged = acc.Take();
  auto indexed = direct.Search(q.data(), 5, /*exclude_id=*/2);
  ASSERT_TRUE(indexed.ok());
  ASSERT_EQ(staged.size(), indexed->size());
  for (size_t i = 0; i < staged.size(); ++i) {
    EXPECT_EQ(staged[i].id, (*indexed)[i].id) << "rank " << i;
    EXPECT_NEAR(staged[i].score, (*indexed)[i].score, 1e-5) << "rank " << i;
    EXPECT_NE(staged[i].id, 2);
  }
}

// ------------------------------------------------------- SQ8 storage

// Recall of sq8 search against the fp32 exact reference: quantization
// perturbs scores by ~scale/2 per element, so top-10 overlap stays high
// on a random corpus even though exact ranks can swap.
TEST(Sq8IndexTest, BruteForceSq8TracksFp32Reference) {
  const size_t n = 200, d = 32;
  Rng rng(41);
  auto corpus = RandomCorpus(n, d, rng);
  BruteForceIndex idx(d, Metric::kCosine, /*parallel=*/false,
                      quant::Storage::kSq8);
  EXPECT_EQ(idx.storage(), quant::Storage::kSq8);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  double recall = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto got = idx.Search(q.data(), 10);
    ASSERT_TRUE(got.ok());
    auto truth = ExactSearch(corpus, n, d, q.data(), 10, Metric::kCosine);
    recall += RecallAtK(*got, truth);
    // Scores are cosine-like: quantized but close.
    for (const auto& nb : *got) {
      const float exact =
          tensor_ops::Cosine(q.data(), corpus.data() + nb.id * d, d);
      EXPECT_NEAR(nb.score, exact, 0.05) << "id " << nb.id;
    }
  }
  EXPECT_GE(recall / trials, 0.9);
}

TEST(Sq8IndexTest, BruteForceRemoveIsATrueDelete) {
  for (quant::Storage storage :
       {quant::Storage::kFp32, quant::Storage::kSq8}) {
    const size_t n = 50, d = 8;
    Rng rng(17);
    auto corpus = RandomCorpus(n, d, rng);
    BruteForceIndex idx(d, Metric::kInnerProduct, /*parallel=*/false,
                        storage);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
    }
    EXPECT_FALSE(idx.Remove(999).ok());  // NotFound
    for (int id : {0, 7, 49, 25}) {
      ASSERT_TRUE(idx.Remove(id).ok());
    }
    EXPECT_EQ(idx.size(), n - 4);
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto r = idx.Search(q.data(), n);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->size(), n - 4);
    for (const auto& nb : *r) {
      EXPECT_NE(nb.id, 0);
      EXPECT_NE(nb.id, 7);
      EXPECT_NE(nb.id, 49);
      EXPECT_NE(nb.id, 25);
    }
    // Removed ids can come back.
    ASSERT_TRUE(idx.Add(7, corpus.data() + 7 * d).ok());
    EXPECT_EQ(idx.size(), n - 3);
  }
}

TEST(Sq8IndexTest, IvfSq8RecallAndRemove) {
  const size_t n = 300, d = 16;
  Rng rng(23);
  auto corpus = RandomCorpus(n, d, rng);
  IvfFlatIndex::Options opts;
  opts.nlist = 8;
  opts.nprobe = 8;  // full probe: bucket choice cannot cost recall
  IvfFlatIndex idx(d, Metric::kCosine, opts, quant::Storage::kSq8);
  ASSERT_TRUE(idx.Train(corpus, n).ok());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  double recall = 0.0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto got = idx.Search(q.data(), 10);
    ASSERT_TRUE(got.ok());
    auto truth = ExactSearch(corpus, n, d, q.data(), 10, Metric::kCosine);
    recall += RecallAtK(*got, truth);
  }
  EXPECT_GE(recall / trials, 0.85);

  EXPECT_FALSE(idx.Remove(12345).ok());
  ASSERT_TRUE(idx.Remove(5).ok());
  ASSERT_TRUE(idx.Remove(250).ok());
  EXPECT_EQ(idx.size(), n - 2);
  std::vector<float> q(d);
  for (auto& v : q) v = rng.Normal();
  auto r = idx.Search(q.data(), n);
  ASSERT_TRUE(r.ok());
  for (const auto& nb : *r) {
    EXPECT_NE(nb.id, 5);
    EXPECT_NE(nb.id, 250);
  }
}

TEST(Sq8IndexTest, HnswSq8HighRecall) {
  const size_t n = 500, d = 24;
  Rng rng(31);
  auto corpus = RandomCorpus(n, d, rng);
  HnswIndex::Options opts;
  opts.ef_search = 128;
  HnswIndex idx(d, Metric::kCosine, opts, quant::Storage::kSq8);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  double recall = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto got = idx.Search(q.data(), 10);
    ASSERT_TRUE(got.ok());
    auto truth = ExactSearch(corpus, n, d, q.data(), 10, Metric::kCosine);
    recall += RecallAtK(*got, truth);
  }
  EXPECT_GE(recall / trials, 0.85);
}

// The tombstone bound: after every Add/Remove past the 64-node floor,
// dead nodes never exceed max_tombstone_ratio of the resident graph
// (a rebuild fires the moment they would). Search stays consistent
// throughout the churn.
TEST(Sq8IndexTest, HnswTombstonesBoundedUnderChurn) {
  const size_t n = 150, d = 12;
  Rng rng(37);
  auto corpus = RandomCorpus(n, d, rng);
  HnswIndex::Options opts;
  opts.max_tombstone_ratio = 0.25;
  for (quant::Storage storage :
       {quant::Storage::kFp32, quant::Storage::kSq8}) {
    HnswIndex idx(d, Metric::kCosine, opts, storage);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
    }
    // Delete-heavy churn: updates (tombstone + reinsert) and removes.
    std::vector<float> row(d);
    for (int step = 0; step < 600; ++step) {
      const int id = static_cast<int>(rng.UniformFloat() * n);
      if (step % 3 == 2) {
        const Status s = idx.Remove(id);
        (void)s;  // NotFound when already removed — fine
      } else {
        for (auto& v : row) v = rng.Normal();
        ASSERT_TRUE(idx.Add(id, row.data()).ok());
      }
      const size_t tombstones = idx.num_graph_nodes() - idx.size();
      ASSERT_LE(static_cast<double>(tombstones),
                0.25 * static_cast<double>(idx.num_graph_nodes()) + 1e-9)
          << "step " << step;
      EXPECT_EQ(idx.memory_stats().tombstones, tombstones);
    }
    // The graph still answers queries over exactly the live set.
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto r = idx.Search(q.data(), 10);
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r->size(), 0u);
  }
}

TEST(Sq8IndexTest, HnswRatioZeroDisablesRebuilds) {
  const size_t n = 100, d = 8;
  Rng rng(43);
  auto corpus = RandomCorpus(n, d, rng);
  HnswIndex::Options opts;
  opts.max_tombstone_ratio = 0.0;  // pre-quant behavior: unbounded
  HnswIndex idx(d, Metric::kCosine, opts);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  std::vector<float> row(d);
  for (int step = 0; step < 200; ++step) {
    for (auto& v : row) v = rng.Normal();
    ASSERT_TRUE(idx.Add(step % static_cast<int>(n), row.data()).ok());
  }
  // Every update left a tombstone behind.
  EXPECT_EQ(idx.num_graph_nodes(), n + 200);
  EXPECT_EQ(idx.size(), n);
}

TEST(Sq8IndexTest, SerializeRoundTripIsBitExact) {
  const size_t n = 120, d = 16;
  Rng rng(53);
  auto corpus = RandomCorpus(n, d, rng);

  const auto roundtrip = [&](VectorIndex& src, VectorIndex& dst) {
    std::string blob;
    src.SerializeTo(&blob);
    ASSERT_TRUE(dst.DeserializeFrom(blob).ok());
    std::string blob2;
    dst.SerializeTo(&blob2);
    EXPECT_EQ(blob, blob2);  // codes + params verbatim, not re-quantized
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto a = src.Search(q.data(), 10);
    auto b = dst.Search(q.data(), 10);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].id, (*b)[i].id);
      EXPECT_EQ((*a)[i].score, (*b)[i].score);  // bit-exact
    }
  };

  {
    BruteForceIndex src(d, Metric::kCosine, false, quant::Storage::kSq8);
    BruteForceIndex dst(d, Metric::kCosine, false, quant::Storage::kSq8);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(src.Add(static_cast<int>(i), corpus.data() + i * d).ok());
    }
    roundtrip(src, dst);
  }
  {
    HnswIndex::Options opts;
    HnswIndex src(d, Metric::kCosine, opts, quant::Storage::kSq8);
    HnswIndex dst(d, Metric::kCosine, opts, quant::Storage::kSq8);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(src.Add(static_cast<int>(i), corpus.data() + i * d).ok());
    }
    roundtrip(src, dst);
  }
  {
    IvfFlatIndex::Options opts;
    opts.nlist = 4;
    IvfFlatIndex src(d, Metric::kCosine, opts, quant::Storage::kSq8);
    IvfFlatIndex dst(d, Metric::kCosine, opts, quant::Storage::kSq8);
    ASSERT_TRUE(src.Train(corpus, n).ok());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(src.Add(static_cast<int>(i), corpus.data() + i * d).ok());
    }
    roundtrip(src, dst);
  }
}

TEST(Sq8IndexTest, DeserializeRejectsStorageModeMismatch) {
  const size_t d = 8;
  BruteForceIndex sq8(d, Metric::kCosine, false, quant::Storage::kSq8);
  const float v[d] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(sq8.Add(0, v).ok());
  std::string blob;
  sq8.SerializeTo(&blob);
  BruteForceIndex fp32(d, Metric::kCosine);
  const Status s = fp32.DeserializeFrom(blob);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("storage"), std::string::npos);
}

// The acceptance bar for the storage mode: per-row bytes reported by the
// new memory accounting drop >= 3x at the server-default dim of 32.
TEST(Sq8IndexTest, MemoryStatsReportAtLeast3xReduction) {
  const size_t n = 100, d = 32;
  Rng rng(61);
  auto corpus = RandomCorpus(n, d, rng);
  BruteForceIndex fp32(d, Metric::kCosine);
  BruteForceIndex sq8(d, Metric::kCosine, false, quant::Storage::kSq8);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(fp32.Add(static_cast<int>(i), corpus.data() + i * d).ok());
    ASSERT_TRUE(sq8.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  const IndexMemoryStats a = fp32.memory_stats();
  const IndexMemoryStats b = sq8.memory_stats();
  EXPECT_EQ(a.embedding_bytes, n * d * sizeof(float));
  EXPECT_EQ(a.code_bytes, 0u);
  EXPECT_EQ(b.embedding_bytes, 0u);
  EXPECT_EQ(b.code_bytes, n * (d + 2 * sizeof(float)));
  EXPECT_GE(a.embedding_bytes, 3 * b.code_bytes);
}

TEST(Sq8IndexTest, UpsertBufferSq8StagedScoresMatchDrainedIndex) {
  // The staged/compacted consistency contract in sq8 mode: OfferTo
  // scores staged rows on the same codes the backend will hold after the
  // drain, so the merged view never flickers when a compaction lands.
  const size_t d = 16;
  Rng rng(67);
  UpsertBuffer buf(d, Metric::kCosine, quant::Storage::kSq8);
  BruteForceIndex idx(d, Metric::kCosine, false, quant::Storage::kSq8);
  std::vector<float> corpus = RandomCorpus(6, d, rng);
  std::fill(corpus.begin() + 5 * d, corpus.end(), 0.0f);  // zero row
  for (int i = 0; i < 6; ++i) {
    buf.Put(i, corpus.data() + i * d);
  }
  std::vector<float> q(d);
  for (auto& v : q) v = rng.Normal();

  TopKAccumulator acc(6);
  buf.OfferTo(q.data(), /*exclude_id=*/-1, &acc);
  std::vector<Neighbor> staged = acc.Take();

  ASSERT_TRUE(buf.DrainTo(&idx).ok());
  auto drained = idx.Search(q.data(), 6);
  ASSERT_TRUE(drained.ok());
  ASSERT_EQ(staged.size(), drained->size());
  for (size_t i = 0; i < staged.size(); ++i) {
    EXPECT_EQ(staged[i].id, (*drained)[i].id) << "rank " << i;
    EXPECT_NEAR(staged[i].score, (*drained)[i].score, 1e-5) << "rank " << i;
  }
}


// ------------------------------------------------------- format freeze

// Pins the serialized blob bytes and the search-result bits of every
// backend x storage on a fixed seeded corpus with churn (updates,
// removes, HNSW tombstones and a rebuild, IVF reassignments) to committed
// constants. The round-trip pins only prove deserialize -> serialize is
// stable; these catch any change to the blob layout or to the scores a
// refactor of the row handling produces. Kernels are forced to the scalar
// variant so the constants do not depend on the host's SIMD support.

enum class Backend { kBruteForce, kIvf, kHnsw };

struct FreezeCase {
  const char* name;
  Backend backend;
  Metric metric;
  quant::Storage storage;
  uint32_t blob_crc;
  uint32_t search_crc;
};

class ScalarKernels {
 public:
  ScalarKernels() : before_(simd::ActiveVariant()) {
    SCCF_CHECK(simd::ForceVariant(simd::Variant::kScalar).ok());
  }
  ~ScalarKernels() { SCCF_CHECK(simd::ForceVariant(before_).ok()); }
  ScalarKernels(const ScalarKernels&) = delete;
  ScalarKernels& operator=(const ScalarKernels&) = delete;

 private:
  simd::Variant before_;
};

std::unique_ptr<VectorIndex> MakeFreezeIndex(Backend backend, Metric metric,
                                             quant::Storage storage,
                                             size_t d) {
  switch (backend) {
    case Backend::kBruteForce:
      return std::make_unique<BruteForceIndex>(d, metric, false, storage);
    case Backend::kIvf: {
      IvfFlatIndex::Options opts;
      opts.nlist = 8;
      opts.nprobe = 3;
      return std::make_unique<IvfFlatIndex>(d, metric, opts, storage);
    }
    case Backend::kHnsw: {
      HnswIndex::Options opts;
      opts.m = 6;
      opts.ef_construction = 32;
      opts.ef_search = 24;
      return std::make_unique<HnswIndex>(d, metric, opts, storage);
    }
  }
  return nullptr;
}

// Appends (count, then id + score bits per hit) for a fixed query set.
void AppendSearchBits(const VectorIndex& idx, size_t d, std::string* bits) {
  Rng rng(2718);
  std::vector<float> q(d);
  for (int i = 0; i < 6; ++i) {
    for (auto& v : q) v = rng.Normal();
    auto hits = idx.Search(q.data(), 10, i % 2 == 0 ? 5 * i : -1);
    ASSERT_TRUE(hits.ok());
    PutFixed64(bits, hits->size());
    for (const Neighbor& nb : *hits) {
      PutI32(bits, nb.id);
      PutF32(bits, nb.score);
    }
  }
}

// The churn scenario shared by the pin and the truncation sweep: n adds
// (ids == slots), n/4 updates, a search checkpoint, n/10 removes and n/10
// more upserts (some re-inserting removed ids), then a final checkpoint.
void RunFreezeScenario(VectorIndex* idx, size_t n, size_t d,
                       std::string* bits) {
  Rng rng(1414);
  const std::vector<float> corpus = RandomCorpus(n, d, rng);
  if (auto* ivf = dynamic_cast<IvfFlatIndex*>(idx)) {
    ASSERT_TRUE(ivf->Train(corpus, n).ok());
  }
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx->Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  std::vector<float> row(d);
  for (size_t i = 0; i < n / 4; ++i) {
    for (auto& v : row) v = rng.Normal();
    ASSERT_TRUE(idx->Add(static_cast<int>((7 * i) % n), row.data()).ok());
  }
  AppendSearchBits(*idx, d, bits);
  for (size_t i = 0; i < n / 10; ++i) {
    ASSERT_TRUE(idx->Remove(static_cast<int>((11 * i + 5) % n)).ok());
  }
  for (size_t i = 0; i < n / 10; ++i) {
    for (auto& v : row) v = rng.Normal();
    ASSERT_TRUE(idx->Add(static_cast<int>((13 * i + 2) % n), row.data()).ok());
  }
  AppendSearchBits(*idx, d, bits);
}

const FreezeCase kFreezeCases[] = {
    {"bf_fp32_cos", Backend::kBruteForce, Metric::kCosine,
     quant::Storage::kFp32, 0x195df01fu, 0xbab02827u},
    {"bf_fp32_ip", Backend::kBruteForce, Metric::kInnerProduct,
     quant::Storage::kFp32, 0x94e1ff26u, 0xa625e9afu},
    {"bf_sq8_cos", Backend::kBruteForce, Metric::kCosine,
     quant::Storage::kSq8, 0xf6829b6du, 0xce4491f3u},
    {"bf_sq8_ip", Backend::kBruteForce, Metric::kInnerProduct,
     quant::Storage::kSq8, 0x366352a4u, 0xa3c7e795u},
    {"ivf_fp32_cos", Backend::kIvf, Metric::kCosine, quant::Storage::kFp32,
     0xb48bd942u, 0xb42d359cu},
    {"ivf_sq8_cos", Backend::kIvf, Metric::kCosine, quant::Storage::kSq8,
     0xa4de2c14u, 0x1f5edf90u},
    {"hnsw_fp32_cos", Backend::kHnsw, Metric::kCosine, quant::Storage::kFp32,
     0x228e95e0u, 0xbab02827u},
    {"hnsw_sq8_cos", Backend::kHnsw, Metric::kCosine, quant::Storage::kSq8,
     0xbc8ee888u, 0xce4491f3u},
};

TEST(IndexFormatFreezeTest, BlobCrcAndSearchBitsMatchPinnedConstants) {
  ScalarKernels scalar;
  const size_t n = 150, d = 20;
  for (const FreezeCase& c : kFreezeCases) {
    SCOPED_TRACE(c.name);
    std::unique_ptr<VectorIndex> idx =
        MakeFreezeIndex(c.backend, c.metric, c.storage, d);
    std::string bits;
    RunFreezeScenario(idx.get(), n, d, &bits);
    if (c.backend == Backend::kHnsw) {
      // One rebuild ran: every Add makes a node, and fewer are resident.
      auto* hnsw = static_cast<HnswIndex*>(idx.get());
      EXPECT_LT(hnsw->num_graph_nodes(), n + n / 4 + n / 10);
      EXPECT_GT(hnsw->memory_stats().tombstones, 0u);
    }
    std::string blob;
    idx->SerializeTo(&blob);
    const uint32_t blob_crc = Crc32(blob);
    const uint32_t search_crc = Crc32(bits);
    EXPECT_EQ(blob_crc, c.blob_crc)
        << std::hex << "blob crc 0x" << blob_crc << " size " << std::dec
        << blob.size();
    EXPECT_EQ(search_crc, c.search_crc)
        << std::hex << "search crc 0x" << search_crc;
  }
}

// Staged (not yet drained) scores are part of every fresh reply, so their
// bits are pinned too, on all four metric x storage combinations.
TEST(IndexFormatFreezeTest, UpsertBufferStagedScoreBitsMatchPinnedConstants) {
  ScalarKernels scalar;
  const size_t n = 40, d = 20;
  struct Case {
    Metric metric;
    quant::Storage storage;
    uint32_t crc;
  };
  const Case cases[] = {
      {Metric::kCosine, quant::Storage::kFp32, 0x8d927d9du},
      {Metric::kInnerProduct, quant::Storage::kFp32, 0xe9342387u},
      {Metric::kCosine, quant::Storage::kSq8, 0xa255ab31u},
      {Metric::kInnerProduct, quant::Storage::kSq8, 0xd878ffe7u},
  };
  for (const Case& c : cases) {
    Rng rng(1732);
    UpsertBuffer buf(d, c.metric, c.storage);
    std::vector<float> corpus = RandomCorpus(n, d, rng);
    std::fill(corpus.begin(), corpus.begin() + d, 0.0f);  // zero row
    for (size_t i = 0; i < n; ++i) {
      buf.Put(static_cast<int>(3 * i), corpus.data() + i * d);
    }
    for (size_t i = 0; i < n; i += 4) {  // re-stage in place
      buf.Put(static_cast<int>(3 * i), corpus.data() + ((i + 1) % n) * d);
    }
    std::string bits;
    std::vector<float> q(d);
    for (int i = 0; i < 6; ++i) {
      for (auto& v : q) v = rng.Normal();
      TopKAccumulator acc(10);
      buf.OfferTo(q.data(), i % 2 == 0 ? 3 * i : -1, &acc);
      for (const Neighbor& nb : acc.Take()) {
        PutI32(&bits, nb.id);
        PutF32(&bits, nb.score);
      }
    }
    const uint32_t crc = Crc32(bits);
    EXPECT_EQ(crc, c.crc) << std::hex << "metric "
                          << static_cast<int>(c.metric) << " storage "
                          << static_cast<int>(c.storage) << " crc 0x" << crc;
  }
}

// Every strict prefix of every backend x storage blob (a small build of
// the same churn scenario) is a clean error that leaves a populated
// target byte-for-byte unchanged.
TEST(IndexFormatFreezeTest, TruncationSweepRejectsEveryPrefix) {
  const size_t n = 20, d = 4;
  for (const FreezeCase& c : kFreezeCases) {
    SCOPED_TRACE(c.name);
    std::unique_ptr<VectorIndex> src =
        MakeFreezeIndex(c.backend, c.metric, c.storage, d);
    std::string bits;
    RunFreezeScenario(src.get(), n, d, &bits);
    std::string blob;
    src->SerializeTo(&blob);

    std::unique_ptr<VectorIndex> target =
        MakeFreezeIndex(c.backend, c.metric, c.storage, d);
    RunFreezeScenario(target.get(), n / 2, d, &bits);
    std::string before;
    target->SerializeTo(&before);
    for (size_t cut = 0; cut < blob.size(); ++cut) {
      ASSERT_FALSE(
          target->DeserializeFrom(std::string_view(blob.data(), cut)).ok())
          << "cut=" << cut;
    }
    std::string after;
    target->SerializeTo(&after);
    EXPECT_EQ(before, after);
    ASSERT_TRUE(target->DeserializeFrom(blob).ok());
    std::string restored;
    target->SerializeTo(&restored);
    EXPECT_EQ(restored, blob);
  }
}

// ------------------------------------------------------- hostile blobs

// Well-framed blobs whose structure lies. Each must be rejected before the
// target changes, since Search trusts the decoded structure.

struct CraftedNode {
  int level;
  std::vector<std::vector<int>> neighbors;  // per level 0..level
};

std::string CraftHnswBlob(size_t d, int entry_point, int max_level,
                          const std::vector<CraftedNode>& nodes) {
  std::string blob;
  PutU8(&blob, 'H');
  PutU8(&blob, static_cast<uint8_t>(quant::Storage::kFp32));
  PutFixed64(&blob, d);
  PutI32(&blob, entry_point);
  PutI32(&blob, max_level);
  for (uint64_t s = 1; s <= 4; ++s) PutFixed64(&blob, s);  // rng state
  PutU8(&blob, 0);
  PutF32(&blob, 0.0f);
  PutFixed64(&blob, nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    PutI32(&blob, static_cast<int>(i));  // external id
    PutU8(&blob, 0);                      // live
    PutI32(&blob, nodes[i].level);
    const std::vector<float> row(d, 1.0f + static_cast<float>(i));
    PutFloats(&blob, row.data(), d);
    for (const std::vector<int>& nbs : nodes[i].neighbors) {
      PutFixed64(&blob, nbs.size());
      for (int nb : nbs) PutI32(&blob, nb);
    }
  }
  return blob;
}

TEST(HostileBlobTest, HnswRejectsGraphLevelsItWouldReadPast) {
  const size_t d = 4;
  HnswIndex target(d, Metric::kCosine, HnswIndex::Options{});
  const float v[d] = {1, 2, 3, 4};
  ASSERT_TRUE(target.Add(9, v).ok());
  std::string before;
  target.SerializeTo(&before);

  // Control: a consistent two-level graph decodes and searches.
  {
    HnswIndex ok(d, Metric::kCosine, HnswIndex::Options{});
    ASSERT_TRUE(ok.DeserializeFrom(CraftHnswBlob(
                                       d, 0, 1,
                                       {{1, {{1}, {1}}}, {1, {{0}, {0}}}}))
                    .ok());
    auto hits = ok.Search(v, 2);
    ASSERT_TRUE(hits.ok());
    EXPECT_EQ(hits->size(), 2u);
  }

  const std::string cases[] = {
      // max_level 3, but the entry point (and every node) sits at 0.
      CraftHnswBlob(d, 0, 3, {{0, {{1}}}, {0, {{0}}}}),
      // A level-1 edge into a node that only has level 0.
      CraftHnswBlob(d, 0, 1, {{1, {{1}, {1}}}, {0, {{0}}}}),
  };
  for (const std::string& blob : cases) {
    const Status st = target.DeserializeFrom(blob);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    std::string after;
    target.SerializeTo(&after);
    EXPECT_EQ(after, before);
  }
}

std::string CraftBruteForceBlob(size_t d, bool ids_are_slots,
                                const std::vector<int>& ids) {
  std::string blob;
  PutU8(&blob, 'B');
  PutU8(&blob, static_cast<uint8_t>(quant::Storage::kFp32));
  PutU8(&blob, ids_are_slots ? 1 : 0);
  PutFixed64(&blob, d);
  PutFixed64(&blob, ids.size());
  for (int id : ids) PutI32(&blob, id);
  for (size_t i = 0; i < ids.size(); ++i) {
    const std::vector<float> row(d, 1.0f + static_cast<float>(i));
    PutFloats(&blob, row.data(), d);
  }
  return blob;
}

TEST(HostileBlobTest, BruteForceRejectsIdsAreSlotsFlagThatLies) {
  const size_t d = 4;
  const float q[d] = {1, 1, 1, 1};
  BruteForceIndex target(d, Metric::kInnerProduct);
  ASSERT_TRUE(target.Add(0, q).ok());
  std::string before;
  target.SerializeTo(&before);

  // The flag set with ids != slots would make Search report slot numbers
  // (0, 1) as user ids.
  const Status st =
      target.DeserializeFrom(CraftBruteForceBlob(d, true, {5, 3}));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  std::string after;
  target.SerializeTo(&after);
  EXPECT_EQ(after, before);

  // A clear flag is always legal (the conservative value after a
  // Remove), and a true one is accepted when it holds.
  ASSERT_TRUE(
      target.DeserializeFrom(CraftBruteForceBlob(d, false, {5, 3})).ok());
  auto hits = target.Search(q, 2);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 2u);
  EXPECT_EQ((*hits)[0].id, 3);  // row 1 (all 2s) scores highest
  EXPECT_EQ((*hits)[1].id, 5);
  ASSERT_TRUE(
      target.DeserializeFrom(CraftBruteForceBlob(d, true, {0, 1})).ok());
}

}  // namespace
}  // namespace sccf::index
