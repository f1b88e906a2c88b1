#ifndef SCCF_INDEX_VECTOR_INDEX_H_
#define SCCF_INDEX_VECTOR_INDEX_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "index/row_store.h"
#include "quant/sq8.h"
#include "util/status.h"

namespace sccf::index {

/// One search hit: external id plus similarity score (higher is better).
struct Neighbor {
  int id = -1;
  float score = 0.0f;
};

/// Dynamic nearest-neighbor index over float vectors, the substrate the
/// SCCF user-based component queries to identify each user's neighborhood
/// in real time (paper Sec. III-C; the role Faiss plays in the original
/// system). `Add` with an existing id replaces the stored vector, which is
/// the streaming-update path used when a user's embedding is re-inferred
/// after a new interaction.
///
/// Concurrency contract (audited for all three backends — BruteForce,
/// HNSW, IVF-Flat): implementations are NOT internally synchronized.
///
///  - Concurrent const calls (`Search`, `size`, `dim`, `metric`) are
///    safe with each other: every backend keeps its query scratch
///    (normalised query copies, visited sets, accumulators) in locals,
///    with no `mutable` members.
///  - Mutations — `Add`, `IvfFlatIndex::Train`, and the non-const tuning
///    setters (`HnswIndex::set_ef_search`, `IvfFlatIndex::set_nprobe`) —
///    require exclusive access: no other call, const or not, may run
///    concurrently with them. HNSW's `Add` additionally draws from the
///    index's own Rng, so even "independent" inserts must be serialized.
///  - Callers own the synchronization. The sharded
///    `core::RealTimeService` wraps each shard's index in a
///    `std::shared_mutex` (shared for Search, exclusive for Add), which
///    is the intended usage pattern.
///  - `BruteForceIndex` built with `parallel = true` fans `Search` out on
///    the global `ThreadPool`. Called from inside a pool worker (e.g. a
///    shard search in `RealTimeService`'s parallel fan-out), that
///    `ParallelFor` runs inline on the worker, see util/thread_pool.h.
///
/// Buffered-upsert contract: because `Add` with an existing id replaces
/// the stored vector, a caller may defer a burst of upserts in a side
/// buffer and apply only each id's *final* vector at a compaction point —
/// the index state after the deferred `Add`s is identical to applying
/// every intermediate `Add`, minus the per-call structural churn (HNSW
/// tombstone + reinsert, IVF posting reassignment, brute-force row
/// rewrites). Queries issued between compactions must merge the buffer's
/// contents with `Search` results themselves (staged ids shadow their
/// stale indexed entry; staged-but-never-indexed ids are cold-start
/// inserts). When a compaction point fires is the *caller's* policy, not
/// this contract's: `core::RealTimeService` applies the discipline per
/// shard and drains on any of a count threshold
/// (`Options::compaction_threshold`), a wall-clock age bound
/// (`Options::compaction_interval_ms`, checked on its ingest and query
/// paths), a background compaction sweep
/// (`Options::background_compaction`), or an explicit `Compact()` — all
/// equivalent by this contract, because a drain applies the same final
/// vectors regardless of what triggered it. `UpsertBuffer` below
/// implements exactly this staging discipline.
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  /// Inserts or replaces the vector for `id`. Pre: id >= 0.
  virtual Status Add(int id, const float* vec) = 0;

  /// Removes `id` from the index; NotFound when absent. Removal is a
  /// *true* delete for brute-force and IVF (the row is gone). HNSW
  /// tombstones the node to preserve graph routing, then rebuilds the
  /// whole graph once tombstones exceed Options::max_tombstone_ratio —
  /// so resident dead nodes are bounded, not monotone. Requires
  /// exclusive access like Add.
  virtual Status Remove(int id) = 0;

  /// Top-k ids by similarity to `query`, descending. `exclude_id` (if >= 0)
  /// is never returned — the paper excludes the user herself from N_u.
  /// Returns fewer than k results when the index is smaller.
  virtual StatusOr<std::vector<Neighbor>> Search(const float* query,
                                                 size_t k,
                                                 int exclude_id = -1) const = 0;

  virtual size_t size() const = 0;
  virtual size_t dim() const = 0;
  virtual Metric metric() const = 0;

  /// Which representation rows are held in (fixed at construction).
  virtual quant::Storage storage() const = 0;

  /// Current resident footprint; safe concurrently with Search (reads
  /// container sizes only). See IndexMemoryStats.
  virtual IndexMemoryStats memory_stats() const = 0;

  /// Appends the backend's complete internal state to `*out` — stored
  /// rows, graph topology including tombstones, centroids, and any
  /// internal RNG — so that DeserializeFrom on a freshly constructed
  /// index with identical options reproduces it *bit-exactly*: every
  /// subsequent Add and Search behaves as if the index had never been
  /// serialized. The persistence layer owns outer framing and checksums;
  /// this payload still self-describes enough (backend tag, dim) to
  /// reject a blob from the wrong backend or geometry.
  virtual void SerializeTo(std::string* out) const = 0;

  /// Restores state written by SerializeTo into this index. The index
  /// must have been constructed with the same backend, dim, metric, and
  /// options as the serializing one. Structure is validated before any
  /// member is mutated: on error the index is unchanged.
  virtual Status DeserializeFrom(std::string_view in) = 0;
};

/// Bounded accumulator of the k highest-scoring candidates.
class TopKAccumulator {
 public:
  explicit TopKAccumulator(size_t k) : k_(k) { heap_.reserve(k + 1); }

  /// Offers a candidate; kept only if it beats the current k-th best.
  void Offer(int id, float score);

  /// True if a candidate with `score` would be accepted right now.
  bool WouldAccept(float score) const {
    return heap_.size() < k_ || score > heap_.front().score;
  }

  /// Extracts results sorted by descending score (ties: ascending id).
  /// The accumulator is emptied.
  std::vector<Neighbor> Take();

  size_t size() const { return heap_.size(); }

 private:
  size_t k_ = 0;
  // Min-heap on score so the root is the current worst kept candidate.
  std::vector<Neighbor> heap_;
};

/// Insertion-ordered staging area for deferred index upserts — the write
/// half of the buffered-upsert contract documented on VectorIndex. Callers
/// stage (id, vector) pairs with Put (re-staging an id overwrites its row
/// in place, so only the final vector survives to the flush), answer
/// queries by combining OfferTo with the backend's Search results, and
/// flush with DrainTo at their compaction point.
///
/// Vectors are stored raw: DrainTo hands the backend exactly the bytes a
/// direct Add would have received, so a drain is bit-identical to having
/// called Add with each id's final vector. Raw rows are also what shard
/// snapshots persist for staged upserts, in either storage mode.
///
/// Staged scores follow the storage mode:
///  - fp32: OfferTo scores the raw row on the fly, <q/|q|, v> / |v| for
///    cosine (zero norms score 0): the backend's score on its stored
///    normalised copy up to rounding, not bit-for-bit.
///  - sq8: Put also writes each row into a RowStore, which normalises and
///    encodes exactly as the backend's Add will, so staged codes equal the
///    post-drain codes bit-for-bit. OfferTo scores them with the per-row
///    affine int8 dot: the exact post-drain score on IVF and HNSW, and
///    within rounding of brute force's batched kernel.
///
/// Not internally synchronized — same contract as VectorIndex; the owner
/// guards it with the same lock as the index it stages for.
class UpsertBuffer {
 public:
  UpsertBuffer(size_t dim, Metric metric,
               quant::Storage storage = quant::Storage::kFp32)
      : dim_(dim), metric_(metric), storage_(storage),
        codes_(dim, metric, storage) {}

  /// Stages a copy of `vec` (dim floats) for `id`. Pre: id >= 0.
  void Put(int id, const float* vec);

  /// True if `id` has a staged (not yet drained) vector. A staged id's
  /// indexed entry, if any, is stale and must be shadowed at query time.
  bool contains(int id) const { return pos_.find(id) != pos_.end(); }

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  size_t dim() const { return dim_; }
  Metric metric() const { return metric_; }
  quant::Storage storage() const { return storage_; }
  /// Staged ids in first-Put order (diagnostics / tests / snapshots).
  const std::vector<int>& ids() const { return ids_; }

  /// Raw staged row for ids()[i] — exactly the dim() floats a future
  /// DrainTo would hand the backend. Exposed so shard snapshots can
  /// persist staged-but-undrained upserts verbatim.
  const float* row(size_t i) const { return data_.data() + i * dim_; }

  /// Scores every staged vector against `query` under the buffer's metric
  /// and offers (id, score) to `acc`, skipping `exclude_id`. Together with
  /// offering the backend's Search hits (minus ids `contains` shadows)
  /// into the same accumulator, this yields the fresh merged top-k.
  void OfferTo(const float* query, int exclude_id,
               TopKAccumulator* acc) const;

  /// Flushes staged vectors into `index` via Add in first-Put order (so
  /// downstream slot / graph-insertion order is deterministic) and clears
  /// the buffer. Returns the first Add error, if any; the buffer is
  /// cleared regardless (staged ids are validated by the caller up front,
  /// so a failed Add is a programming error, not recoverable input).
  Status DrainTo(VectorIndex* index);

 private:
  size_t dim_ = 0;
  Metric metric_;
  quant::Storage storage_ = quant::Storage::kFp32;
  std::vector<int> ids_;                   // row -> external id
  std::vector<float> data_;                // ids_.size() x dim_, raw rows
  std::vector<float> inv_norms_;           // 1/|row| (0 for zero rows)
  RowStore codes_;  // sq8: backend-identical codes; fp32: query prep only
  std::unordered_map<int, size_t> pos_;    // external id -> row
};

}  // namespace sccf::index

#endif  // SCCF_INDEX_VECTOR_INDEX_H_
