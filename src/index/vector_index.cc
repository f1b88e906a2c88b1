#include "index/vector_index.h"

#include <algorithm>

#include "simd/kernels.h"

namespace sccf::index {

namespace {
struct MinHeapCmp {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;  // among equal scores, evict the larger id first
  }
};
}  // namespace

void TopKAccumulator::Offer(int id, float score) {
  if (k_ == 0) return;
  if (heap_.size() < k_) {
    heap_.push_back({id, score});
    std::push_heap(heap_.begin(), heap_.end(), MinHeapCmp());
    return;
  }
  if (!WouldAccept(score)) return;
  std::pop_heap(heap_.begin(), heap_.end(), MinHeapCmp());
  heap_.back() = {id, score};
  std::push_heap(heap_.begin(), heap_.end(), MinHeapCmp());
}

std::vector<Neighbor> TopKAccumulator::Take() {
  std::vector<Neighbor> out = std::move(heap_);
  heap_.clear();
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  });
  return out;
}

void UpsertBuffer::Put(int id, const float* vec) {
  auto it = pos_.find(id);
  size_t row;
  bool fresh = false;
  if (it != pos_.end()) {
    row = it->second;
  } else {
    row = ids_.size();
    fresh = true;
    ids_.push_back(id);
    data_.resize(data_.size() + dim_);
    inv_norms_.push_back(0.0f);
    pos_[id] = row;
  }
  std::copy(vec, vec + dim_, data_.data() + row * dim_);
  if (metric_ == Metric::kCosine) {
    const float norm = simd::Norm(vec, dim_);
    inv_norms_[row] = norm > 0.0f ? 1.0f / norm : 0.0f;
  }
  if (storage_ == quant::Storage::kSq8) {
    // Encode exactly what the backend's Add will store, so staged and
    // post-drain codes coincide bit-for-bit.
    if (fresh) {
      codes_.Append(vec);
    } else {
      codes_.Set(row, vec);
    }
  }
}

void UpsertBuffer::OfferTo(const float* query, int exclude_id,
                           TopKAccumulator* acc) const {
  if (ids_.empty()) return;
  const RowQuery q = codes_.PrepareQuery(query);
  for (size_t row = 0; row < ids_.size(); ++row) {
    if (ids_[row] == exclude_id) continue;
    float score;
    if (storage_ == quant::Storage::kSq8) {
      // The codes already encode the normalised row: no inv-norm factor.
      score = codes_.Score(q, row);
    } else {
      score = simd::Dot(q.data(), data_.data() + row * dim_, dim_);
      if (metric_ == Metric::kCosine) score *= inv_norms_[row];
    }
    acc->Offer(ids_[row], score);
  }
}

Status UpsertBuffer::DrainTo(VectorIndex* index) {
  Status first_error;
  for (size_t row = 0; row < ids_.size(); ++row) {
    Status st = index->Add(ids_[row], data_.data() + row * dim_);
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  ids_.clear();
  data_.clear();
  inv_norms_.clear();
  codes_.clear();
  pos_.clear();
  return first_error;
}

}  // namespace sccf::index
