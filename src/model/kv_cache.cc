#include "src/model/kv_cache.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"

namespace ca {

KvCache::KvCache(const ModelConfig& config, PeMode pe_mode)
    : pe_mode_(pe_mode), kv_dim_(config.kv_dim()), k_(config.n_layers), v_(config.n_layers) {
  config.Validate();
}

std::size_t KvCache::seq_len() const {
  if (k_.empty()) {
    return 0;
  }
  return k_[0].size() / kv_dim_;
}

std::size_t KvCache::layer_len(std::size_t layer) const {
  CA_CHECK_LT(layer, k_.size());
  return k_[layer].size() / kv_dim_;
}

namespace {

// Appends one row with explicitly geometric capacity growth. libstdc++
// already doubles on insert, but the 2x policy is a guarantee we rely on
// (prefill must not be O(n^2) reallocation), not an implementation detail
// to inherit silently.
void AppendRow(std::vector<float>& dst, std::span<const float> row) {
  if (dst.size() + row.size() > dst.capacity()) {
    dst.reserve(std::max(dst.size() + row.size(), 2 * dst.capacity()));
  }
  dst.insert(dst.end(), row.begin(), row.end());
}

}  // namespace

void KvCache::Append(std::size_t layer, std::span<const float> k, std::span<const float> v) {
  CA_CHECK_LT(layer, k_.size());
  CA_CHECK_EQ(k.size(), kv_dim_);
  CA_CHECK_EQ(v.size(), kv_dim_);
  AppendRow(k_[layer], k);
  AppendRow(v_[layer], v);
}

void KvCache::Reserve(std::size_t total_tokens) {
  const std::size_t floats = total_tokens * kv_dim_;
  for (std::size_t layer = 0; layer < k_.size(); ++layer) {
    if (k_[layer].capacity() < floats) {
      k_[layer].reserve(floats);
    }
    if (v_[layer].capacity() < floats) {
      v_[layer].reserve(floats);
    }
  }
}

std::span<const float> KvCache::LayerK(std::size_t layer) const {
  CA_CHECK_LT(layer, k_.size());
  return {k_[layer].data(), k_[layer].size()};
}

std::span<const float> KvCache::LayerV(std::size_t layer) const {
  CA_CHECK_LT(layer, v_.size());
  return {v_[layer].data(), v_[layer].size()};
}

std::span<const float> KvCache::K(std::size_t layer, std::size_t token) const {
  CA_CHECK_LT(layer, k_.size());
  CA_CHECK_LT(token, layer_len(layer));
  return {k_[layer].data() + token * kv_dim_, kv_dim_};
}

std::span<const float> KvCache::V(std::size_t layer, std::size_t token) const {
  CA_CHECK_LT(layer, v_.size());
  CA_CHECK_LT(token, layer_len(layer));
  return {v_[layer].data() + token * kv_dim_, kv_dim_};
}

std::span<float> KvCache::MutableK(std::size_t layer, std::size_t token) {
  CA_CHECK_LT(layer, k_.size());
  CA_CHECK_LT(token, layer_len(layer));
  return {k_[layer].data() + token * kv_dim_, kv_dim_};
}

void KvCache::TruncateFront(std::size_t n_tokens) {
  for (std::size_t layer = 0; layer < k_.size(); ++layer) {
    const std::size_t len = layer_len(layer);
    const std::size_t drop = std::min(n_tokens, len);
    k_[layer].erase(k_[layer].begin(),
                    k_[layer].begin() + static_cast<std::ptrdiff_t>(drop * kv_dim_));
    v_[layer].erase(v_[layer].begin(),
                    v_[layer].begin() + static_cast<std::ptrdiff_t>(drop * kv_dim_));
  }
}

void KvCache::DiscardTokens(std::span<const std::size_t> discard) {
  if (discard.empty()) {
    return;
  }
  const std::size_t len = seq_len();
  std::vector<bool> keep(len, true);
  for (const std::size_t idx : discard) {
    if (idx < len) {
      keep[idx] = false;
    }
  }
  for (std::size_t layer = 0; layer < k_.size(); ++layer) {
    CA_CHECK_EQ(layer_len(layer), len) << "DiscardTokens mid-forward";
    std::vector<float> new_k;
    std::vector<float> new_v;
    new_k.reserve(k_[layer].size());
    new_v.reserve(v_[layer].size());
    for (std::size_t t = 0; t < len; ++t) {
      if (!keep[t]) {
        continue;
      }
      const float* kp = k_[layer].data() + t * kv_dim_;
      const float* vp = v_[layer].data() + t * kv_dim_;
      new_k.insert(new_k.end(), kp, kp + kv_dim_);
      new_v.insert(new_v.end(), vp, vp + kv_dim_);
    }
    k_[layer] = std::move(new_k);
    v_[layer] = std::move(new_v);
  }
}

void KvCache::Clear() {
  for (auto& layer : k_) {
    layer.clear();
  }
  for (auto& layer : v_) {
    layer.clear();
  }
}

std::uint64_t KvCache::byte_size() const {
  std::uint64_t bytes = 0;
  for (std::size_t layer = 0; layer < k_.size(); ++layer) {
    bytes += (k_[layer].size() + v_[layer].size()) * sizeof(float);
  }
  return bytes;
}

KvCache KvCache::Clone() const { return *this; }

KvCache::TokenMajorSerializer::TokenMajorSerializer(const KvCache& cache, std::size_t token_begin,
                                                    std::size_t token_end)
    : cache_(&cache), begin_(token_begin), end_(token_end) {
  const std::size_t len = cache.seq_len();
  for (std::size_t layer = 0; layer < cache.k_.size(); ++layer) {
    CA_CHECK_EQ(cache.layer_len(layer), len) << "Serialize mid-forward";
  }
  CA_CHECK_LE(token_begin, token_end);
  CA_CHECK_LE(token_end, len);
  total_ = static_cast<std::uint64_t>(token_end - token_begin) * cache.token_major_bytes_per_token();
  Reset();
}

void KvCache::TokenMajorSerializer::Fill(std::span<std::uint8_t> dest) {
  const std::size_t row_bytes = cache_->kv_dim_ * sizeof(float);
  const std::size_t rows_per_token = 2 * cache_->k_.size();
  std::size_t off = 0;
  while (off < dest.size()) {
    CA_CHECK_LT(token_, end_) << "Fill past the serialized payload";
    if (row_off_ == row_bytes) {
      row_off_ = 0;
      if (++row_ == rows_per_token) {
        row_ = 0;
        ++token_;
        continue;
      }
    }
    const std::size_t layer = row_ / 2;
    const std::vector<float>& plane = (row_ % 2 == 0) ? cache_->k_[layer] : cache_->v_[layer];
    const auto* row = reinterpret_cast<const std::uint8_t*>(plane.data()) +
                      token_ * row_bytes;
    const std::size_t take = std::min(dest.size() - off, row_bytes - row_off_);
    std::memcpy(dest.data() + off, row + row_off_, take);
    off += take;
    row_off_ += take;
  }
  // Normalise so the past-the-end check above fires only on a true overrun.
  if (row_off_ == row_bytes && row_ + 1 == rows_per_token) {
    row_ = 0;
    row_off_ = 0;
    ++token_;
  }
}

std::vector<std::uint8_t> KvCache::SerializeTokenMajor() const {
  std::vector<std::uint8_t> out(seq_len() * token_major_bytes_per_token());
  TokenMajorSerializer cursor(*this, 0, seq_len());
  cursor.Fill(out);
  return out;
}

KvCache::TokenMajorDeserializer::TokenMajorDeserializer(const ModelConfig& config, PeMode pe_mode,
                                                        std::size_t seq_len)
    : config_(&config),
      pe_mode_(pe_mode),
      seq_len_(seq_len),
      expected_total_(static_cast<std::uint64_t>(seq_len) * TokenMajorBytesPerToken(config)) {
  Reset();
}

void KvCache::TokenMajorDeserializer::Reset() {
  error_ = Status::Ok();
  consumed_ = 0;
  token_ = 0;
  row_ = 0;
  row_off_ = 0;
  if (seq_len_ > config_->context_window) {
    // A cache can never legitimately exceed the model's context window; a
    // garbage token count must not drive the tensor allocation below.
    error_ = InvalidArgumentError("KV cache seq_len exceeds the context window");
    return;
  }
  if (cache_ != nullptr) {
    return;  // a replayed pass overwrites every row; keep the allocation
  }
  cache_ = std::make_unique<KvCache>(*config_, pe_mode_);
  const std::size_t layer_floats = seq_len_ * config_->kv_dim();
  for (std::size_t layer = 0; layer < cache_->k_.size(); ++layer) {
    cache_->k_[layer].resize(layer_floats);
    cache_->v_[layer].resize(layer_floats);
  }
}

void KvCache::TokenMajorDeserializer::Consume(std::span<const std::uint8_t> chunk) {
  consumed_ += chunk.size();
  if (!error_.ok()) {
    return;  // swallow the rest; Finish() reports the first failure
  }
  const std::size_t row_bytes = config_->kv_dim() * sizeof(float);
  const std::size_t rows_per_token = 2 * cache_->k_.size();
  while (!chunk.empty()) {
    if (token_ >= seq_len_) {
      error_ = InvalidArgumentError("KV cache buffer size mismatch");
      return;
    }
    if (row_off_ == row_bytes) {
      row_off_ = 0;
      if (++row_ == rows_per_token) {
        row_ = 0;
        ++token_;
        continue;
      }
    }
    const std::size_t layer = row_ / 2;
    std::vector<float>& plane = (row_ % 2 == 0) ? cache_->k_[layer] : cache_->v_[layer];
    auto* row = reinterpret_cast<std::uint8_t*>(plane.data()) + token_ * row_bytes;
    const std::size_t take = std::min(chunk.size(), row_bytes - row_off_);
    std::memcpy(row + row_off_, chunk.data(), take);
    row_off_ += take;
    chunk = chunk.subspan(take);
  }
}

Result<KvCache> KvCache::TokenMajorDeserializer::Finish() {
  if (!error_.ok()) {
    return error_;
  }
  if (consumed_ != expected_total_) {
    return InvalidArgumentError("KV cache buffer size mismatch");
  }
  CA_CHECK(cache_ != nullptr);
  KvCache out = std::move(*cache_);
  cache_.reset();
  return out;
}

}  // namespace ca
