#include "index/row_store.h"

#include <algorithm>

namespace sccf::index {

namespace {

float Sum(const float* v, size_t n) {
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) s += v[i];
  return s;
}

// Appends `width` elements of `src` starting at row `slot`.
template <typename T>
void AppendRow(const std::vector<T>& src, size_t slot, size_t width,
               std::vector<T>* dst) {
  dst->insert(dst->end(), src.begin() + slot * width,
              src.begin() + (slot + 1) * width);
}

// Moves the last `width`-element row into row `slot`, then drops it.
template <typename T>
void MoveLastInto(size_t slot, size_t width, std::vector<T>* v) {
  const size_t last = v->size() - width;
  if (slot * width != last) {
    std::copy(v->begin() + last, v->end(), v->begin() + slot * width);
  }
  v->resize(last);
}

}  // namespace

size_t RowStore::RowBytes(quant::Storage storage, size_t dim) {
  return storage == quant::Storage::kSq8 ? dim + 2 * sizeof(float)
                                         : dim * sizeof(float);
}

size_t RowStore::Append(const float* row) {
  if (storage_ == quant::Storage::kSq8) {
    codes_.resize(codes_.size() + dim_);
    scales_.push_back(0.0f);
    offsets_.push_back(0.0f);
  } else {
    data_.resize(data_.size() + dim_);
  }
  Set(size_, row);
  return size_++;
}

void RowStore::Set(size_t slot, const float* row) {
  if (storage_ == quant::Storage::kSq8) {
    const float* src = row;
    std::vector<float> normed;
    if (metric_ == Metric::kCosine) {
      normed.resize(dim_);
      simd::NormalizeCopy(row, normed.data(), dim_);
      src = normed.data();
    }
    const quant::Sq8Params p =
        quant::Sq8Encode(src, dim_, codes_.data() + slot * dim_);
    scales_[slot] = p.scale;
    offsets_[slot] = p.offset;
    return;
  }
  float* dst = data_.data() + slot * dim_;
  if (metric_ == Metric::kCosine) {
    simd::NormalizeCopy(row, dst, dim_);
  } else {
    std::copy(row, row + dim_, dst);
  }
}

void RowStore::AppendFrom(const RowStore& other, size_t slot) {
  if (storage_ == quant::Storage::kSq8) {
    AppendRow(other.codes_, slot, dim_, &codes_);
    AppendRow(other.scales_, slot, 1, &scales_);
    AppendRow(other.offsets_, slot, 1, &offsets_);
  } else {
    AppendRow(other.data_, slot, dim_, &data_);
  }
  ++size_;
}

void RowStore::RemoveSwap(size_t slot) {
  if (storage_ == quant::Storage::kSq8) {
    MoveLastInto(slot, dim_, &codes_);
    MoveLastInto(slot, 1, &scales_);
    MoveLastInto(slot, 1, &offsets_);
  } else {
    MoveLastInto(slot, dim_, &data_);
  }
  --size_;
}

void RowStore::clear() {
  data_.clear();
  codes_.clear();
  scales_.clear();
  offsets_.clear();
  size_ = 0;
}

RowQuery RowStore::PrepareQuery(const float* query) const {
  RowQuery q;
  q.ext_ = query;
  if (metric_ == Metric::kCosine) {
    q.buf_.resize(dim_);
    simd::NormalizeCopy(query, q.buf_.data(), dim_);
  }
  if (storage_ == quant::Storage::kSq8) q.qsum_ = Sum(q.data(), dim_);
  return q;
}

RowQuery RowStore::RowAsQuery(size_t slot) const {
  RowQuery q;
  if (storage_ == quant::Storage::kSq8) {
    q.buf_.resize(dim_);
    quant::Sq8Decode(codes_.data() + slot * dim_, dim_,
                     {scales_[slot], offsets_[slot]}, q.buf_.data());
    q.qsum_ = Sum(q.data(), dim_);
  } else {
    q.ext_ = data_.data() + slot * dim_;
  }
  return q;
}

void RowStore::ScoreBlock(const RowQuery& q, size_t lo, size_t count,
                          float* out) const {
  if (storage_ == quant::Storage::kSq8) {
    simd::DotBatchI8(q.data(), codes_.data() + lo * dim_, count, dim_, out);
    for (size_t j = 0; j < count; ++j) {
      out[j] = scales_[lo + j] * out[j] + offsets_[lo + j] * q.qsum_;
    }
    return;
  }
  simd::DotBatch(q.data(), data_.data() + lo * dim_, count, dim_, out);
}

void RowStore::TopK(const RowQuery& q, size_t k, ptrdiff_t exclude_slot,
                    std::vector<std::pair<int, float>>* out) const {
  if (storage_ == quant::Storage::kSq8) {
    simd::TopKDotI8(q.data(), codes_.data(), size_, dim_, scales_.data(),
                    offsets_.data(), q.qsum_, k, exclude_slot, out);
    return;
  }
  simd::TopKDot(q.data(), data_.data(), size_, dim_, k, exclude_slot, out);
}

void RowStore::AddMemoryTo(IndexMemoryStats* stats) const {
  if (storage_ == quant::Storage::kSq8) {
    stats->code_bytes += memory_bytes();
  } else {
    stats->embedding_bytes += memory_bytes();
  }
}

void RowStore::Serialize(size_t lo, size_t count, std::string* out) const {
  if (storage_ == quant::Storage::kSq8) {
    out->append(reinterpret_cast<const char*>(codes_.data() + lo * dim_),
                count * dim_);
    PutFloats(out, scales_.data() + lo, count);
    PutFloats(out, offsets_.data() + lo, count);
    return;
  }
  PutFloats(out, data_.data() + lo * dim_, count * dim_);
}

Status RowStore::Read(ByteReader* reader, size_t count) {
  if (storage_ == quant::Storage::kSq8) {
    std::string_view raw;
    std::vector<float> scales, offsets;
    SCCF_RETURN_NOT_OK(reader->ReadView(count * dim_, &raw));
    SCCF_RETURN_NOT_OK(reader->ReadFloats(count, &scales));
    SCCF_RETURN_NOT_OK(reader->ReadFloats(count, &offsets));
    const int8_t* src = reinterpret_cast<const int8_t*>(raw.data());
    codes_.insert(codes_.end(), src, src + count * dim_);
    scales_.insert(scales_.end(), scales.begin(), scales.end());
    offsets_.insert(offsets_.end(), offsets.begin(), offsets.end());
  } else {
    std::vector<float> data;
    SCCF_RETURN_NOT_OK(reader->ReadFloats(count * dim_, &data));
    data_.insert(data_.end(), data.begin(), data.end());
  }
  size_ += count;
  return Status::OK();
}

}  // namespace sccf::index
