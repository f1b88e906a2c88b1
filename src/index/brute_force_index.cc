#include "index/brute_force_index.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "util/coding.h"
#include "util/thread_pool.h"

namespace sccf::index {

BruteForceIndex::BruteForceIndex(size_t dim, Metric metric, bool parallel,
                                 quant::Storage storage)
    : parallel_(parallel), rows_(dim, metric, storage) {}

Status BruteForceIndex::Add(int id, const float* vec) {
  if (id < 0) return Status::InvalidArgument("id must be non-negative");
  auto it = slot_.find(id);
  if (it != slot_.end()) {
    rows_.Set(it->second, vec);
    return Status::OK();
  }
  const size_t s = rows_.Append(vec);
  if (id != static_cast<int>(s)) ids_are_slots_ = false;
  ids_.push_back(id);
  slot_[id] = s;
  return Status::OK();
}

Status BruteForceIndex::Remove(int id) {
  auto it = slot_.find(id);
  if (it == slot_.end()) {
    return Status::NotFound("id not in index: " + std::to_string(id));
  }
  const size_t s = it->second;
  const size_t last = ids_.size() - 1;
  if (s != last) {
    // Swap the last row into the vacated slot. The moved id almost never
    // equals its new slot, so the ids==slots fast path is conservatively
    // dropped.
    ids_[s] = ids_[last];
    slot_[ids_[s]] = s;
    ids_are_slots_ = false;
  }
  rows_.RemoveSwap(s);
  ids_.pop_back();
  slot_.erase(it);
  return Status::OK();
}

IndexMemoryStats BruteForceIndex::memory_stats() const {
  IndexMemoryStats stats;
  rows_.AddMemoryTo(&stats);
  return stats;
}

StatusOr<std::vector<Neighbor>> BruteForceIndex::Search(
    const float* query, size_t k, int exclude_id) const {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  const RowQuery q = rows_.PrepareQuery(query);
  const size_t n = ids_.size();

  // Fast path: ids equal slots (the common case — SCCF inserts users
  // 0..n-1 in order), so TopKDot's row-order tie handling matches
  // TopKAccumulator's id-order tie handling exactly and the whole scan
  // stays inside the batched kernel.
  if (!parallel_ || n < 4096) {
    if (ids_are_slots_) {
      ptrdiff_t exclude_row = -1;
      if (exclude_id >= 0) {
        auto it = slot_.find(exclude_id);
        if (it != slot_.end()) exclude_row = it->second;
      }
      std::vector<std::pair<int, float>> top;
      rows_.TopK(q, k, exclude_row, &top);
      std::vector<Neighbor> out;
      out.reserve(top.size());
      for (const auto& [row, score] : top) out.push_back({row, score});
      return out;
    }
    TopKAccumulator acc(k);
    ScanRange(q, 0, n, exclude_id, &acc);
    return acc.Take();
  }

  std::mutex mu;
  TopKAccumulator merged(k);
  ParallelForBlocked(0, n, [&](size_t lo, size_t hi) {
    TopKAccumulator local(k);
    ScanRange(q, lo, hi, exclude_id, &local);
    std::vector<Neighbor> part = local.Take();
    std::lock_guard<std::mutex> lock(mu);
    for (const Neighbor& nb : part) merged.Offer(nb.id, nb.score);
  });
  return merged.Take();
}

void BruteForceIndex::ScanRange(const RowQuery& q, size_t lo, size_t hi,
                                int exclude_id, TopKAccumulator* acc) const {
  // Score a block of rows at a time through the batched kernel, then offer
  // sequentially — identical offer order (and therefore identical tie
  // handling) to the old one-dot-per-row loop.
  constexpr size_t kBlock = 256;
  float scores[kBlock];
  for (size_t s = lo; s < hi; s += kBlock) {
    const size_t len = std::min(kBlock, hi - s);
    rows_.ScoreBlock(q, s, len, scores);
    for (size_t j = 0; j < len; ++j) {
      if (ids_[s + j] == exclude_id) continue;
      acc->Offer(ids_[s + j], scores[j]);
    }
  }
}

// Payload layout (inside the persist layer's checksummed framing):
//   u8 tag 'B' | u8 storage | u8 ids_are_slots | u64 dim | u64 count
//   i32 id x count
//   fp32: f32 row x (count * dim)
//   sq8:  i8 code x (count * dim) | f32 scale x count | f32 offset x count
// Rows are stored exactly as held in memory (already normalised when the
// metric is cosine; codes and params verbatim in sq8 mode), so restore is
// a memcpy, not a re-normalisation or re-quantization — that is what
// makes recovery bit-exact.
void BruteForceIndex::SerializeTo(std::string* out) const {
  PutU8(out, 'B');
  PutU8(out, static_cast<uint8_t>(storage()));
  PutU8(out, ids_are_slots_ ? 1 : 0);
  PutFixed64(out, static_cast<uint64_t>(dim()));
  PutFixed64(out, static_cast<uint64_t>(ids_.size()));
  for (int id : ids_) PutI32(out, id);
  rows_.Serialize(0, rows_.size(), out);
}

Status BruteForceIndex::DeserializeFrom(std::string_view in) {
  ByteReader reader(in);
  uint8_t tag = 0, storage = 0, ids_are_slots = 0;
  uint64_t dim = 0, count = 0;
  SCCF_RETURN_NOT_OK(reader.ReadU8(&tag));
  if (tag != 'B') {
    return Status::InvalidArgument("not a brute-force index blob");
  }
  SCCF_RETURN_NOT_OK(reader.ReadU8(&storage));
  if (storage != static_cast<uint8_t>(this->storage())) {
    return Status::InvalidArgument("index blob storage mode mismatch");
  }
  SCCF_RETURN_NOT_OK(reader.ReadU8(&ids_are_slots));
  SCCF_RETURN_NOT_OK(reader.ReadFixed64(&dim));
  if (dim != this->dim()) {
    return Status::InvalidArgument("index blob dim mismatch");
  }
  SCCF_RETURN_NOT_OK(reader.ReadFixed64(&count));

  std::vector<int> ids;
  std::unordered_map<int, size_t> slot;
  if (count > reader.remaining() / 4) {
    return Status::IoError("truncated index blob (ids)");
  }
  ids.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    int32_t id = 0;
    SCCF_RETURN_NOT_OK(reader.ReadI32(&id));
    if (id < 0) return Status::InvalidArgument("negative id in index blob");
    if (!slot.emplace(id, static_cast<size_t>(i)).second) {
      return Status::InvalidArgument("duplicate id in index blob");
    }
    // Search's fast path reports slots as ids, so the flag must be true.
    // 0 is always legal: it is the conservative value after a Remove.
    if (ids_are_slots != 0 && static_cast<uint64_t>(id) != i) {
      return Status::InvalidArgument("index blob ids_are_slots but id != slot");
    }
    ids.push_back(id);
  }
  RowStore rows(this->dim(), metric(), this->storage());
  SCCF_RETURN_NOT_OK(rows.Read(&reader, static_cast<size_t>(count)));
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes in index blob");
  }

  ids_are_slots_ = ids_are_slots != 0;
  ids_ = std::move(ids);
  slot_ = std::move(slot);
  rows_ = std::move(rows);
  return Status::OK();
}

}  // namespace sccf::index
