// Codec properties of the SQ8 scalar quantizer (src/quant/sq8.h):
// deterministic encode, bounded reconstruction error, exact handling of
// the degenerate rows (constant, zero, single-element), saturation at
// the +/-127 code bounds, and index::RowStore's append/set/remove-swap
// bookkeeping, scoring and serialization in every storage x metric mode,
// including the dim+8-bytes-per-row accounting the memory stats build on.

#include "quant/sq8.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "index/row_store.h"
#include "simd/kernels.h"
#include "util/coding.h"
#include "util/random.h"

namespace sccf::quant {
namespace {

std::vector<float> RandomRow(Rng& rng, size_t n, float scale = 1.0f) {
  std::vector<float> v(n);
  for (auto& x : v) x = scale * (2.0f * rng.UniformFloat() - 1.0f);
  return v;
}

TEST(StorageTest, ParseAndName) {
  Storage s = Storage::kSq8;
  EXPECT_TRUE(ParseStorage("fp32", &s));
  EXPECT_EQ(s, Storage::kFp32);
  EXPECT_TRUE(ParseStorage("sq8", &s));
  EXPECT_EQ(s, Storage::kSq8);
  EXPECT_TRUE(ParseStorage("SQ8", &s));  // case-insensitive
  EXPECT_EQ(s, Storage::kSq8);
  EXPECT_FALSE(ParseStorage("int8", &s));
  EXPECT_FALSE(ParseStorage("", &s));
  EXPECT_STREQ(StorageName(Storage::kFp32), "fp32");
  EXPECT_STREQ(StorageName(Storage::kSq8), "sq8");
}

TEST(Sq8CodecTest, RoundTripErrorIsBoundedByHalfStep) {
  Rng rng(20210419);
  for (size_t n : {1u, 2u, 15u, 16u, 17u, 64u, 257u}) {
    for (float mag : {0.01f, 1.0f, 100.0f}) {
      const std::vector<float> row = RandomRow(rng, n, mag);
      std::vector<int8_t> codes(n);
      const Sq8Params p = Sq8Encode(row.data(), n, codes.data());
      std::vector<float> decoded(n);
      Sq8Decode(codes.data(), n, p, decoded.data());
      // Max quantization error is half a step; scale IS the step size.
      const float bound = 0.5f * p.scale + 1e-6f * mag;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(decoded[i], row[i], bound) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Sq8CodecTest, EncodeIsDeterministic) {
  Rng rng(7);
  const size_t n = 96;
  const std::vector<float> row = RandomRow(rng, n);
  std::vector<int8_t> a(n), b(n);
  const Sq8Params pa = Sq8Encode(row.data(), n, a.data());
  const Sq8Params pb = Sq8Encode(row.data(), n, b.data());
  EXPECT_EQ(pa.scale, pb.scale);
  EXPECT_EQ(pa.offset, pb.offset);
  EXPECT_EQ(a, b);
}

TEST(Sq8CodecTest, ExtremesSaturateExactlyAt127) {
  // min and max of the row must map exactly to -127 / +127 (no overflow
  // past the symmetric bound, no wasted range).
  std::vector<float> row = {-3.0f, -1.0f, 0.0f, 2.0f, 5.0f};
  std::vector<int8_t> codes(row.size());
  const Sq8Params p = Sq8Encode(row.data(), row.size(), codes.data());
  EXPECT_EQ(codes.front(), -127);  // row min
  EXPECT_EQ(codes.back(), 127);    // row max
  for (int8_t c : codes) {
    EXPECT_GE(c, -127);
    EXPECT_LE(c, 127);
  }
  // Decode maps the extremes back exactly: offset +/- 127*scale = hi/lo.
  std::vector<float> decoded(row.size());
  Sq8Decode(codes.data(), row.size(), p, decoded.data());
  EXPECT_NEAR(decoded.front(), -3.0f, 1e-5f);
  EXPECT_NEAR(decoded.back(), 5.0f, 1e-5f);
}

TEST(Sq8CodecTest, ConstantRowHasZeroScaleAndIsLossless) {
  for (float c : {0.0f, -2.5f, 7.0f}) {
    std::vector<float> row(33, c);
    std::vector<int8_t> codes(row.size());
    const Sq8Params p = Sq8Encode(row.data(), row.size(), codes.data());
    EXPECT_EQ(p.scale, 0.0f);
    EXPECT_EQ(p.offset, c);
    for (int8_t code : codes) EXPECT_EQ(code, 0);
    std::vector<float> decoded(row.size());
    Sq8Decode(codes.data(), row.size(), p, decoded.data());
    for (float d : decoded) EXPECT_EQ(d, c);  // bit-exact
  }
}

// index::RowStore holds every backend's rows; its writes, scoring and
// serialization are exercised here on all four storage x metric modes.
class RowStoreTest
    : public ::testing::TestWithParam<std::tuple<Storage, index::Metric>> {
 protected:
  Storage storage() const { return std::get<0>(GetParam()); }
  index::Metric metric() const { return std::get<1>(GetParam()); }

  // What the store should hold for `row`: normalised for cosine.
  std::vector<float> Expected(const std::vector<float>& row) const {
    std::vector<float> out(row);
    if (metric() == index::Metric::kCosine) {
      simd::NormalizeCopy(row.data(), out.data(), row.size());
    }
    return out;
  }

  static std::string RowBytesOf(const index::RowStore& store, size_t slot) {
    std::string out;
    store.Serialize(slot, 1, &out);
    return out;
  }
};

TEST_P(RowStoreTest, AppendSetRemoveSwapAndByteAccounting) {
  Rng rng(99);
  const size_t dim = 32;
  index::RowStore store(dim, metric(), storage());
  EXPECT_EQ(store.size(), 0u);

  std::vector<std::vector<float>> rows;
  for (int i = 0; i < 5; ++i) {
    rows.push_back(RandomRow(rng, dim));
    EXPECT_EQ(store.Append(rows.back().data()), static_cast<size_t>(i));
  }
  EXPECT_EQ(store.size(), 5u);
  const size_t row_bytes = storage() == Storage::kSq8
                               ? dim + 2 * sizeof(float)  // codes + params
                               : dim * sizeof(float);
  EXPECT_EQ(index::RowStore::RowBytes(storage(), dim), row_bytes);
  EXPECT_EQ(store.memory_bytes(), 5 * row_bytes);
  index::IndexMemoryStats stats;
  store.AddMemoryTo(&stats);
  EXPECT_EQ(stats.embedding_bytes + stats.code_bytes, 5 * row_bytes);
  EXPECT_EQ(stats.code_bytes == 0, storage() == Storage::kFp32);

  // Set rewrites in place.
  rows[2] = RandomRow(rng, dim);
  store.Set(2, rows[2].data());

  // Every slot, used as the query side, is its (normalised) row: exact
  // for fp32, the decode of its codes for sq8, within half a step.
  for (size_t s = 0; s < store.size(); ++s) {
    const std::vector<float> want = Expected(rows[s]);
    const index::RowQuery q = store.RowAsQuery(s);
    if (storage() == Storage::kFp32) {
      for (size_t i = 0; i < dim; ++i) ASSERT_EQ(q.data()[i], want[i]);
      continue;
    }
    std::vector<int8_t> codes(dim);
    const Sq8Params p = Sq8Encode(want.data(), dim, codes.data());
    std::vector<float> decoded(dim);
    Sq8Decode(codes.data(), dim, p, decoded.data());
    for (size_t i = 0; i < dim; ++i) {
      ASSERT_EQ(q.data()[i], decoded[i]);
      ASSERT_NEAR(q.data()[i], want[i], 0.5f * p.scale + 1e-6f);
    }
  }

  // Per-row, block and top-k scores agree and track the true similarity.
  const std::vector<float> query = RandomRow(rng, dim);
  const index::RowQuery q = store.PrepareQuery(query.data());
  float block[5];
  store.ScoreBlock(q, 0, store.size(), block);
  std::vector<std::pair<int, float>> top;
  store.TopK(q, 3, /*exclude_slot=*/1, &top);
  ASSERT_EQ(top.size(), 3u);
  for (size_t s = 0; s < store.size(); ++s) {
    const std::vector<float> want = Expected(rows[s]);
    const float exact = simd::Dot(q.data(), want.data(), dim);
    EXPECT_NEAR(store.Score(q, s), exact, 0.05f);
    EXPECT_NEAR(block[s], store.Score(q, s), 1e-5f);
  }
  for (const auto& [slot, score] : top) {
    EXPECT_NE(slot, 1);
    EXPECT_NEAR(score, store.Score(q, slot), 1e-5f);
  }

  // RemoveSwap(1): the last row (4) moves into slot 1 verbatim.
  const std::string last = RowBytesOf(store, 4);
  store.RemoveSwap(1);
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(RowBytesOf(store, 1), last);
  EXPECT_EQ(store.memory_bytes(), 4 * row_bytes);

  // AppendFrom copies verbatim, and both layouts round-trip bit-exactly.
  index::RowStore copy(dim, metric(), storage());
  for (size_t s = 0; s < store.size(); ++s) copy.AppendFrom(store, s);
  std::string columns, copy_columns, rows_blob;
  store.Serialize(0, store.size(), &columns);
  copy.Serialize(0, copy.size(), &copy_columns);
  EXPECT_EQ(columns, copy_columns);
  EXPECT_EQ(columns.size(), store.memory_bytes());
  for (size_t s = 0; s < store.size(); ++s) rows_blob += RowBytesOf(store, s);

  index::RowStore from_columns(dim, metric(), storage());
  ByteReader col_reader(columns);
  ASSERT_TRUE(from_columns.Read(&col_reader, store.size()).ok());
  EXPECT_TRUE(col_reader.exhausted());
  index::RowStore from_rows(dim, metric(), storage());
  ByteReader row_reader(rows_blob);
  for (size_t s = 0; s < store.size(); ++s) {
    ASSERT_TRUE(from_rows.Read(&row_reader, 1).ok());
  }
  EXPECT_TRUE(row_reader.exhausted());
  for (size_t s = 0; s < store.size(); ++s) {
    EXPECT_EQ(RowBytesOf(from_columns, s), RowBytesOf(store, s));
    EXPECT_EQ(RowBytesOf(from_rows, s), RowBytesOf(store, s));
  }
  // A short buffer is a clean error.
  ByteReader short_reader(std::string_view(columns).substr(1));
  index::RowStore partial(dim, metric(), storage());
  EXPECT_FALSE(partial.Read(&short_reader, store.size()).ok());

  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.memory_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    StorageByMetric, RowStoreTest,
    ::testing::Combine(::testing::Values(Storage::kFp32, Storage::kSq8),
                       ::testing::Values(index::Metric::kInnerProduct,
                                         index::Metric::kCosine)));

// The headline claim of the storage mode: per-row bytes drop >= 3x vs
// fp32 for every realistic embedding dim (dim 32 is the server default).
TEST(Sq8StoreTest, PerRowBytesAtLeast3xSmallerThanFp32) {
  for (size_t dim : {32u, 64u, 128u, 256u}) {
    EXPECT_GE(index::RowStore::RowBytes(Storage::kFp32, dim),
              3 * index::RowStore::RowBytes(Storage::kSq8, dim))
        << "dim=" << dim;
  }
}

}  // namespace
}  // namespace sccf::quant
