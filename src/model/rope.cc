#include "src/model/rope.h"

#include <cmath>

#include "src/common/check.h"

namespace ca {

RopeTable::RopeTable(std::size_t head_dim, float theta, std::size_t max_positions)
    : head_dim_(head_dim), max_positions_(max_positions) {
  CA_CHECK_EQ(head_dim % 2, 0U);
  std::vector<float> inv_freq(head_dim / 2);
  for (std::size_t i = 0; i < inv_freq.size(); ++i) {
    inv_freq[i] = std::pow(theta, -2.0f * static_cast<float>(i) / static_cast<float>(head_dim));
  }
  // The per-call angle expression of a table-less RoPE, evaluated once per
  // entry: a table lookup returns the very floats that call would compute.
  cos_sin_.resize(max_positions * head_dim);
  for (std::size_t pos = 0; pos < max_positions; ++pos) {
    const auto p = static_cast<float>(pos);
    float* row = cos_sin_.data() + pos * head_dim;
    for (std::size_t i = 0; i < inv_freq.size(); ++i) {
      const float angle = p * inv_freq[i];
      row[2 * i] = std::cos(angle);
      row[2 * i + 1] = std::sin(angle);
    }
  }
}

const float* RopeTable::Row(std::size_t pos) const {
  CA_CHECK_LT(pos, max_positions_) << "RoPE position past the table";
  return cos_sin_.data() + pos * head_dim_;
}

void RopeTable::Apply(std::span<float> vec, std::size_t pos) const {
  CA_CHECK_EQ(vec.size(), head_dim_);
  const float* cs = Row(pos);
  for (std::size_t i = 0; i < head_dim_; i += 2) {
    const float c = cs[i];
    const float s = cs[i + 1];
    const float x = vec[i];
    const float y = vec[i + 1];
    vec[i] = x * c - y * s;
    vec[i + 1] = x * s + y * c;
  }
}

void RopeTable::ApplyAllHeads(std::span<float> packed, std::size_t pos) const {
  CA_CHECK_EQ(packed.size() % head_dim_, 0U);
  for (std::size_t off = 0; off < packed.size(); off += head_dim_) {
    Apply(packed.subspan(off, head_dim_), pos);
  }
}

void RopeTable::ApplyInverse(std::span<float> vec, std::size_t pos) const {
  CA_CHECK_EQ(vec.size(), head_dim_);
  const float* cs = Row(pos);
  for (std::size_t i = 0; i < head_dim_; i += 2) {
    const float c = cs[i];
    const float s = cs[i + 1];
    const float x = vec[i];
    const float y = vec[i + 1];
    vec[i] = x * c + y * s;
    vec[i + 1] = -x * s + y * c;
  }
}

}  // namespace ca
