#ifndef SCCF_INDEX_ROW_STORE_H_
#define SCCF_INDEX_ROW_STORE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "quant/sq8.h"
#include "simd/kernels.h"
#include "util/coding.h"
#include "util/status.h"

namespace sccf::index {

/// Similarity metric for vector search. Cosine is implemented by storing
/// L2-normalised copies, after which inner product equals cosine.
enum class Metric { kInnerProduct, kCosine };

/// Bytes and structural debt a backend currently holds, split by
/// representation so operators can see what a storage-mode switch buys.
/// embedding_bytes counts fp32 row storage (including IVF centroids and
/// HNSW tombstoned nodes — they occupy RAM until a rebuild). code_bytes
/// counts SQ8 codes plus their per-row scale/offset params. tombstones is
/// the count of dead-but-resident entries (only HNSW accrues them).
struct IndexMemoryStats {
  size_t embedding_bytes = 0;
  size_t code_bytes = 0;
  size_t tombstones = 0;
};

/// An fp32 query ready to score against a RowStore: normalised when the
/// metric is cosine, plus sum(q), which the sq8 affine dot needs. Owns a
/// copy when it had to make one (normalised query, decoded row) and
/// otherwise points at the caller's query or the store's own fp32 row —
/// so it must not outlive them, nor a write to the store it came from.
class RowQuery {
 public:
  /// The dim floats to score with.
  const float* data() const { return buf_.empty() ? ext_ : buf_.data(); }

 private:
  friend class RowStore;
  RowQuery() = default;

  std::vector<float> buf_;
  const float* ext_ = nullptr;
  float qsum_ = 0.0f;
};

/// Dense slot-major rows of one dimension, metric and storage — the only
/// place in index/ that knows whether rows are fp32 or SQ8 codes.
///
///  - Writes normalise first when the metric is cosine and, in sq8 mode,
///    encode with quant::Sq8Encode, so every backend stores exactly the
///    same bytes for the same input row.
///  - Scoring calls the same kernels the backends always used: Dot /
///    DotI8 per row (Score), DotBatch / DotBatchI8 per block (ScoreBlock),
///    TopKDot / TopKDotI8 over the whole store (TopK). The per-row and
///    batched reductions may round differently, so callers keep the one
///    their results were pinned with.
///  - sq8 scores are scale * DotI8(q, codes) + offset * sum(q), the dot of
///    q with the decoded row, without materialising it.
///  - Rows serialize verbatim, so a restore never re-normalises or
///    re-quantizes: columnar for a range (brute force writes them all),
///    which for one row is the interleaved layout IVF and HNSW write.
///
/// Not internally synchronized; owners follow the VectorIndex contract.
class RowStore {
 public:
  RowStore(size_t dim, Metric metric, quant::Storage storage)
      : dim_(dim), metric_(metric), storage_(storage) {}

  /// Bytes one row occupies: 4 * dim for fp32, dim codes plus a float
  /// scale and offset for sq8.
  static size_t RowBytes(quant::Storage storage, size_t dim);

  size_t dim() const { return dim_; }
  Metric metric() const { return metric_; }
  quant::Storage storage() const { return storage_; }
  size_t size() const { return size_; }

  /// Stores `row` (dim floats) in a new slot; returns the slot.
  size_t Append(const float* row);
  /// Overwrites an existing slot with `row` (normalised for cosine,
  /// encoded for sq8).
  void Set(size_t slot, const float* row);
  /// Appends `other`'s row at `slot` verbatim (no re-encoding). Pre:
  /// `other` has the same dim and storage.
  void AppendFrom(const RowStore& other, size_t slot);
  /// Removes `slot` by moving the last row into it. The caller owns
  /// fixing up any slot maps.
  void RemoveSwap(size_t slot);
  void clear();

  /// Prepares an external query: normalised for cosine, summed for sq8.
  RowQuery PrepareQuery(const float* query) const;
  /// Uses stored row `slot` as the query side: the fp32 row in place, or
  /// the decoded sq8 row plus its sum. Valid until the next write.
  RowQuery RowAsQuery(size_t slot) const;

  /// Similarity of `q` against row `slot` (per-row kernel).
  float Score(const RowQuery& q, size_t slot) const {
    if (storage_ == quant::Storage::kSq8) {
      return scales_[slot] *
                 simd::DotI8(q.data(), codes_.data() + slot * dim_, dim_) +
             offsets_[slot] * q.qsum_;
    }
    return simd::Dot(q.data(), data_.data() + slot * dim_, dim_);
  }
  /// out[j] = similarity of `q` against row lo + j for j < count
  /// (batched kernel).
  void ScoreBlock(const RowQuery& q, size_t lo, size_t count,
                  float* out) const;
  /// Top-k (slot, score) over every row, descending, ties by ascending
  /// slot; `exclude_slot` (if >= 0) is skipped. See simd::TopKDot.
  void TopK(const RowQuery& q, size_t k, ptrdiff_t exclude_slot,
            std::vector<std::pair<int, float>>* out) const;

  /// Resident bytes: size() * RowBytes(storage(), dim()).
  size_t memory_bytes() const { return size_ * RowBytes(storage_, dim_); }
  /// Adds memory_bytes() to embedding_bytes (fp32) or code_bytes (sq8).
  void AddMemoryTo(IndexMemoryStats* stats) const;

  /// Appends rows [lo, lo + count) to `*out`: all codes, then all scales,
  /// then all offsets (sq8), or all floats (fp32). For a single row this
  /// is the interleaved per-row layout (codes | scale | offset).
  void Serialize(size_t lo, size_t count, std::string* out) const;
  /// Reads `count` rows in Serialize's layout and appends them.
  Status Read(ByteReader* reader, size_t count);

 private:
  size_t dim_;
  Metric metric_;
  quant::Storage storage_;
  size_t size_ = 0;
  std::vector<float> data_;     // fp32: size_ x dim_
  std::vector<int8_t> codes_;   // sq8: size_ x dim_
  std::vector<float> scales_;   // sq8: per-row affine scale
  std::vector<float> offsets_;  // sq8: per-row affine offset
};

}  // namespace sccf::index

#endif  // SCCF_INDEX_ROW_STORE_H_
