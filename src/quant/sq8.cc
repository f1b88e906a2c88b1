#include "quant/sq8.h"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace sccf::quant {

const char* StorageName(Storage s) {
  switch (s) {
    case Storage::kFp32:
      return "fp32";
    case Storage::kSq8:
      return "sq8";
  }
  return "unknown";
}

bool ParseStorage(const std::string& s, Storage* out) {
  std::string lower(s);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "fp32") {
    *out = Storage::kFp32;
    return true;
  }
  if (lower == "sq8") {
    *out = Storage::kSq8;
    return true;
  }
  return false;
}

Sq8Params Sq8Encode(const float* in, size_t n, int8_t* codes) {
  if (n == 0) return {0.0f, 0.0f};
  float lo = in[0], hi = in[0];
  for (size_t i = 1; i < n; ++i) {
    lo = std::min(lo, in[i]);
    hi = std::max(hi, in[i]);
  }
  if (hi == lo) {
    // Constant row (covers all-zero): scale 0 means every decoded value
    // is exactly `offset`, so the roundtrip is lossless.
    for (size_t i = 0; i < n; ++i) codes[i] = 0;
    return {0.0f, lo};
  }
  const float scale = (hi - lo) / 254.0f;
  const float offset = (hi + lo) * 0.5f;
  const float inv = 1.0f / scale;
  for (size_t i = 0; i < n; ++i) {
    // lround (half away from zero) is deterministic across platforms,
    // unlike rint under varying FP environments.
    long code = std::lround((in[i] - offset) * inv);
    code = std::clamp(code, -127l, 127l);
    codes[i] = static_cast<int8_t>(code);
  }
  return {scale, offset};
}

void Sq8Decode(const int8_t* codes, size_t n, Sq8Params params, float* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = params.scale * static_cast<float>(codes[i]) + params.offset;
  }
}

}  // namespace sccf::quant
