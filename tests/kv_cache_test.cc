// KvCache layout, truncation and wire-form tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/model/config.h"
#include "src/model/kv_cache.h"

namespace ca {
namespace {

std::vector<float> Row(std::size_t dim, float base) {
  std::vector<float> v(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    v[i] = base + static_cast<float>(i);
  }
  return v;
}

// Appends `tokens` tokens to every layer; K rows start at 100*t, V at
// 100*t + 50.
void FillCache(KvCache& cache, std::size_t tokens) {
  const std::size_t dim = cache.kv_dim();
  for (std::size_t layer = 0; layer < cache.n_layers(); ++layer) {
    for (std::size_t t = cache.layer_len(layer); t < tokens; ++t) {
      cache.Append(layer, Row(dim, 100.0f * static_cast<float>(t)),
                   Row(dim, 100.0f * static_cast<float>(t) + 50.0f));
    }
  }
}

TEST(KvCacheTest, EmptyOnConstruction) {
  KvCache cache(ModelConfig::Mini(), PeMode::kDecoupled);
  EXPECT_EQ(cache.seq_len(), 0U);
  EXPECT_TRUE(cache.empty());
  EXPECT_EQ(cache.byte_size(), 0ULL);
  EXPECT_EQ(cache.n_layers(), ModelConfig::Mini().n_layers);
  EXPECT_EQ(cache.kv_dim(), ModelConfig::Mini().kv_dim());
}

TEST(KvCacheTest, AppendAndReadBack) {
  const ModelConfig config = ModelConfig::Mini();
  KvCache cache(config, PeMode::kDecoupled);
  FillCache(cache, 3);
  EXPECT_EQ(cache.seq_len(), 3U);
  EXPECT_EQ(cache.K(1, 2)[0], 200.0f);
  EXPECT_EQ(cache.V(1, 2)[0], 250.0f);
  EXPECT_EQ(cache.K(0, 0)[1], 1.0f);
}

TEST(KvCacheTest, ByteSizeMatchesConfigFormula) {
  const ModelConfig config = ModelConfig::Mini();
  KvCache cache(config, PeMode::kDecoupled);
  FillCache(cache, 7);
  EXPECT_EQ(cache.byte_size(), 7 * config.kv_bytes_per_token());
}

TEST(KvCacheTest, LayerAccessorsSeeWholeHistory) {
  const ModelConfig config = ModelConfig::Mini();
  KvCache cache(config, PeMode::kDecoupled);
  FillCache(cache, 3);
  for (std::size_t layer = 0; layer < cache.n_layers(); ++layer) {
    const auto k = cache.LayerK(layer);
    const auto v = cache.LayerV(layer);
    ASSERT_EQ(k.size(), 3 * cache.kv_dim());
    ASSERT_EQ(v.size(), 3 * cache.kv_dim());
    for (std::size_t t = 0; t < 3; ++t) {
      // Token t's row lives at [t*kv_dim, (t+1)*kv_dim) and matches K/V.
      EXPECT_EQ(k[t * cache.kv_dim()], cache.K(layer, t)[0]);
      EXPECT_EQ(v[t * cache.kv_dim() + 1], cache.V(layer, t)[1]);
    }
  }
}

TEST(KvCacheTest, ReserveKeepsLayerSpansStableAcrossAppends) {
  const ModelConfig config = ModelConfig::Mini();
  KvCache cache(config, PeMode::kDecoupled);
  FillCache(cache, 2);
  cache.Reserve(40);
  const float* k_base = cache.LayerK(0).data();
  const float* v_base = cache.LayerV(0).data();
  FillCache(cache, 40);  // stays within the reservation: no reallocation
  EXPECT_EQ(cache.LayerK(0).data(), k_base);
  EXPECT_EQ(cache.LayerV(0).data(), v_base);
  EXPECT_EQ(cache.seq_len(), 40U);
  EXPECT_EQ(cache.K(0, 39)[0], 3900.0f);
}

TEST(KvCacheTest, ReserveDoesNotChangeLength) {
  KvCache cache(ModelConfig::Mini(), PeMode::kCoupled);
  FillCache(cache, 3);
  cache.Reserve(100);
  EXPECT_EQ(cache.seq_len(), 3U);
  EXPECT_EQ(cache.byte_size(), 3 * ModelConfig::Mini().kv_bytes_per_token());
  cache.Reserve(1);  // shrinking reservations are a no-op
  EXPECT_EQ(cache.seq_len(), 3U);
}

TEST(KvCacheTest, TruncateFrontDropsOldest) {
  KvCache cache(ModelConfig::Mini(), PeMode::kDecoupled);
  FillCache(cache, 5);
  cache.TruncateFront(2);
  EXPECT_EQ(cache.seq_len(), 3U);
  // Old token 2 is now token 0 in every layer.
  for (std::size_t layer = 0; layer < cache.n_layers(); ++layer) {
    EXPECT_EQ(cache.K(layer, 0)[0], 200.0f);
    EXPECT_EQ(cache.V(layer, 2)[0], 450.0f);
  }
}

TEST(KvCacheTest, TruncateMoreThanLengthClears) {
  KvCache cache(ModelConfig::Mini(), PeMode::kDecoupled);
  FillCache(cache, 2);
  cache.TruncateFront(10);
  EXPECT_EQ(cache.seq_len(), 0U);
}

TEST(KvCacheTest, DiscardTokensKeepsComplement) {
  KvCache cache(ModelConfig::Mini(), PeMode::kDecoupled);
  FillCache(cache, 5);
  const std::vector<std::size_t> discard = {1, 3, 99};  // 99 out of range: ignored
  cache.DiscardTokens(discard);
  EXPECT_EQ(cache.seq_len(), 3U);
  EXPECT_EQ(cache.K(0, 0)[0], 0.0f);
  EXPECT_EQ(cache.K(0, 1)[0], 200.0f);
  EXPECT_EQ(cache.K(0, 2)[0], 400.0f);
}

TEST(KvCacheTest, ClearEmpties) {
  KvCache cache(ModelConfig::Mini(), PeMode::kDecoupled);
  FillCache(cache, 4);
  cache.Clear();
  EXPECT_EQ(cache.seq_len(), 0U);
  EXPECT_EQ(cache.byte_size(), 0ULL);
}

TEST(KvCacheTest, CloneIsDeep) {
  KvCache cache(ModelConfig::Mini(), PeMode::kDecoupled);
  FillCache(cache, 2);
  KvCache copy = cache.Clone();
  copy.TruncateFront(1);
  EXPECT_EQ(cache.seq_len(), 2U);
  EXPECT_EQ(copy.seq_len(), 1U);
}

TEST(KvCacheTest, MutableKWritesThrough) {
  KvCache cache(ModelConfig::Mini(), PeMode::kDecoupled);
  FillCache(cache, 1);
  cache.MutableK(0, 0)[0] = -5.0f;
  EXPECT_EQ(cache.K(0, 0)[0], -5.0f);
}

// --- wire form (DESIGN.md §14, §17) ---------------------------------------

// Round trip through the wire form in one pass: `seq_len` and the PE mode
// travel out of band, exactly as the engine's load path supplies them.
Result<KvCache> RoundTrip(const KvCache& cache, const ModelConfig& config) {
  KvCache::TokenMajorDeserializer deserializer(config, cache.pe_mode(), cache.seq_len());
  deserializer.Consume(cache.SerializeTokenMajor());
  return deserializer.Finish();
}

// Row-by-row equality of two caches' tensors.
void ExpectSameRows(const KvCache& a, const KvCache& b) {
  ASSERT_EQ(a.seq_len(), b.seq_len());
  ASSERT_EQ(a.n_layers(), b.n_layers());
  for (std::size_t layer = 0; layer < a.n_layers(); ++layer) {
    ASSERT_TRUE(std::equal(a.LayerK(layer).begin(), a.LayerK(layer).end(),
                           b.LayerK(layer).begin()))
        << "K of layer " << layer;
    ASSERT_TRUE(std::equal(a.LayerV(layer).begin(), a.LayerV(layer).end(),
                           b.LayerV(layer).begin()))
        << "V of layer " << layer;
  }
}

TEST(KvCacheTest, SerializeRoundTrip) {
  const ModelConfig config = ModelConfig::Mini();
  KvCache cache(config, PeMode::kDecoupled);
  FillCache(cache, 6);
  auto restored = RoundTrip(cache, config);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->seq_len(), 6U);
  EXPECT_EQ(restored->pe_mode(), PeMode::kDecoupled);
  for (std::size_t layer = 0; layer < cache.n_layers(); ++layer) {
    for (std::size_t t = 0; t < 6; ++t) {
      for (std::size_t d = 0; d < cache.kv_dim(); ++d) {
        ASSERT_EQ(restored->K(layer, t)[d], cache.K(layer, t)[d]);
        ASSERT_EQ(restored->V(layer, t)[d], cache.V(layer, t)[d]);
      }
    }
  }
}

// Coupled-PE caches hold post-RoPE K rows; the wire form carries them
// unchanged and the deserializer stamps the mode it is given.
TEST(KvCacheTest, SerializePreservesPeMode) {
  const ModelConfig config = ModelConfig::Mini();
  KvCache cache(config, PeMode::kCoupled);
  FillCache(cache, 3);
  auto restored = RoundTrip(cache, config);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->pe_mode(), PeMode::kCoupled);
  ExpectSameRows(*restored, cache);
}

// Without a header there is no magic to check: garbage is caught by its
// byte count, which must be exactly seq_len tokens.
TEST(KvCacheTest, DeserializeRejectsGarbage) {
  const ModelConfig config = ModelConfig::Mini();
  for (const std::size_t size : {std::size_t{16}, std::size_t{3}}) {
    const std::vector<std::uint8_t> junk(size, 0xAB);
    KvCache::TokenMajorDeserializer d(config, PeMode::kDecoupled, 1);
    d.Consume(junk);
    EXPECT_FALSE(d.Finish().ok()) << size << " bytes";
  }
}

// Mini bytes fed to a Tiny deserializer: the shapes differ, so the byte
// count does not match the Tiny token size.
TEST(KvCacheTest, DeserializeRejectsWrongConfig) {
  ASSERT_NE(KvCache::TokenMajorBytesPerToken(ModelConfig::Mini()),
            KvCache::TokenMajorBytesPerToken(ModelConfig::Tiny()));
  KvCache cache(ModelConfig::Mini(), PeMode::kDecoupled);
  FillCache(cache, 2);
  const ModelConfig tiny = ModelConfig::Tiny();
  KvCache::TokenMajorDeserializer d(tiny, PeMode::kDecoupled, 2);
  d.Consume(cache.SerializeTokenMajor());
  EXPECT_FALSE(d.Finish().ok());
}

TEST(KvCacheTest, DeserializeRejectsTruncatedBuffer) {
  const ModelConfig config = ModelConfig::Mini();
  KvCache cache(config, PeMode::kDecoupled);
  FillCache(cache, 2);
  auto bytes = cache.SerializeTokenMajor();
  bytes.pop_back();
  KvCache::TokenMajorDeserializer d(config, PeMode::kDecoupled, 2);
  d.Consume(bytes);
  EXPECT_FALSE(d.Finish().ok());
}

// --- streaming cursors (DESIGN.md §14) ------------------------------------

TEST(KvCacheZeroCopy, SerializerMatchesSerializeByteForByte) {
  const ModelConfig config = ModelConfig::Mini();
  KvCache cache(config, PeMode::kDecoupled);
  FillCache(cache, 9);
  const auto expected = cache.SerializeTokenMajor();
  ASSERT_EQ(expected.size(), cache.byte_size());

  // Pull through the cursor in awkward window sizes; the concatenation must
  // be exactly the materialised buffer.
  for (const std::size_t window : {std::size_t{1}, std::size_t{13}, std::size_t{4096}}) {
    KvCache::TokenMajorSerializer serializer(cache, 0, cache.seq_len());
    ASSERT_EQ(serializer.size(), expected.size());
    std::vector<std::uint8_t> got(expected.size());
    for (std::size_t off = 0; off < got.size(); off += window) {
      const std::size_t len = std::min(window, got.size() - off);
      serializer.Fill(std::span<std::uint8_t>(got.data() + off, len));
    }
    EXPECT_EQ(got, expected) << "window " << window;
    // Reset replays the pass (the store's bounded write retry).
    serializer.Reset();
    std::vector<std::uint8_t> again(expected.size());
    serializer.Fill(again);
    EXPECT_EQ(again, expected);
  }
}

TEST(KvCacheZeroCopy, StreamingDeserializerResetReplays) {
  const ModelConfig config = ModelConfig::Mini();
  KvCache cache(config, PeMode::kDecoupled);
  FillCache(cache, 4);
  const auto bytes = cache.SerializeTokenMajor();
  KvCache::TokenMajorDeserializer deserializer(config, PeMode::kDecoupled, 4);
  // A torn first pass (half the payload) followed by Reset and a clean
  // replay — the store's read-retry pattern.
  deserializer.Consume(std::span<const std::uint8_t>(bytes.data(), bytes.size() / 2));
  deserializer.Reset();
  deserializer.Consume(bytes);
  auto restored = deserializer.Finish();
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->SerializeTokenMajor(), bytes);
}

TEST(KvCacheZeroCopy, StreamingDeserializerRejectsBadInput) {
  const ModelConfig config = ModelConfig::Mini();
  KvCache cache(config, PeMode::kDecoupled);
  FillCache(cache, 3);
  const auto bytes = cache.SerializeTokenMajor();
  const auto feed = [&](KvCache::TokenMajorDeserializer& d, std::size_t len) {
    for (std::size_t off = 0; off < len; off += 7) {
      d.Consume(std::span<const std::uint8_t>(bytes.data() + off, std::min<std::size_t>(7, len - off)));
    }
  };
  {
    // Stream cut short mid-row.
    KvCache::TokenMajorDeserializer d(config, PeMode::kDecoupled, 3);
    feed(d, bytes.size() - 4);
    EXPECT_FALSE(d.Finish().ok());
  }
  {
    // Stream that overruns its token count: the overshooting chunks must be
    // swallowed, not written past the tensors.
    KvCache::TokenMajorDeserializer d(config, PeMode::kDecoupled, 2);
    feed(d, bytes.size());
    EXPECT_FALSE(d.Finish().ok());
  }
}

TEST(KvCacheZeroCopy, EmptyCacheRoundTripsThroughStreaming) {
  const ModelConfig config = ModelConfig::Mini();
  KvCache cache(config, PeMode::kDecoupled);
  EXPECT_TRUE(cache.SerializeTokenMajor().empty());
  auto restored = RoundTrip(cache, config);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(restored->empty());
}

// --- token-major chunking (prefix sharing, DESIGN.md §17) -------------------

TEST(KvCacheTokenMajor, BytesPerTokenMatchesConfig) {
  const ModelConfig config = ModelConfig::Mini();
  KvCache cache(config, PeMode::kDecoupled);
  EXPECT_EQ(cache.token_major_bytes_per_token(), KvCache::TokenMajorBytesPerToken(config));
  EXPECT_EQ(KvCache::TokenMajorBytesPerToken(config),
            2ULL * config.n_layers * config.kv_dim() * sizeof(float));
}

TEST(KvCacheTokenMajor, RoundTripAnyChunking) {
  const ModelConfig config = ModelConfig::Mini();
  KvCache cache(config, PeMode::kDecoupled);
  FillCache(cache, 11);
  const auto bytes = cache.SerializeTokenMajor();
  ASSERT_EQ(bytes.size(), 11 * cache.token_major_bytes_per_token());
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{24},
                                  std::size_t{1000}, bytes.size()}) {
    KvCache::TokenMajorDeserializer deserializer(config, PeMode::kDecoupled, 11);
    for (std::size_t off = 0; off < bytes.size(); off += chunk) {
      const std::size_t len = std::min(chunk, bytes.size() - off);
      deserializer.Consume(std::span<const std::uint8_t>(bytes.data() + off, len));
    }
    auto restored = deserializer.Finish();
    ASSERT_TRUE(restored.ok()) << "chunk " << chunk << ": " << restored.status();
    EXPECT_EQ(restored->seq_len(), 11U);
    EXPECT_EQ(restored->pe_mode(), PeMode::kDecoupled);
    ExpectSameRows(*restored, cache);
  }
}

TEST(KvCacheTokenMajor, RangeSerializersConcatenateToWholePayload) {
  const ModelConfig config = ModelConfig::Mini();
  KvCache cache(config, PeMode::kDecoupled);
  FillCache(cache, 10);
  const auto expected = cache.SerializeTokenMajor();
  const std::uint64_t bpt = cache.token_major_bytes_per_token();
  // Split [0,10) into ranges of 3/3/3/1 tokens, pull each through its own
  // cursor in awkward windows — exactly the store's chunked write pattern.
  std::vector<std::uint8_t> got;
  for (const auto& [b, e] : {std::pair<std::size_t, std::size_t>{0, 3}, {3, 6}, {6, 9}, {9, 10}}) {
    KvCache::TokenMajorSerializer serializer(cache, b, e);
    ASSERT_EQ(serializer.size(), (e - b) * bpt);
    std::vector<std::uint8_t> piece(serializer.size());
    for (std::size_t off = 0; off < piece.size(); off += 13) {
      const std::size_t len = std::min<std::size_t>(13, piece.size() - off);
      serializer.Fill(std::span<std::uint8_t>(piece.data() + off, len));
    }
    // Reset replays (the store's bounded write retry).
    serializer.Reset();
    std::vector<std::uint8_t> again(piece.size());
    serializer.Fill(again);
    ASSERT_EQ(again, piece);
    got.insert(got.end(), piece.begin(), piece.end());
  }
  EXPECT_EQ(got, expected);
}

TEST(KvCacheTokenMajor, DeserializerRejectsByteCountMismatch) {
  const ModelConfig config = ModelConfig::Mini();
  KvCache cache(config, PeMode::kDecoupled);
  FillCache(cache, 4);
  const auto bytes = cache.SerializeTokenMajor();
  {
    // Short payload.
    KvCache::TokenMajorDeserializer d(config, PeMode::kDecoupled, 4);
    d.Consume(std::span<const std::uint8_t>(bytes.data(), bytes.size() - 4));
    EXPECT_FALSE(d.Finish().ok());
  }
  {
    // Overlong payload: the overshooting chunk is swallowed, not written
    // past the tensors.
    KvCache::TokenMajorDeserializer d(config, PeMode::kDecoupled, 4);
    d.Consume(bytes);
    d.Consume(std::span<const std::uint8_t>(bytes.data(), 8));
    EXPECT_FALSE(d.Finish().ok());
  }
}

// A token count beyond the context window is garbage (a cache never grows
// past it); it must fail in Finish() without driving a tensor allocation.
TEST(KvCacheTokenMajor, DeserializerRejectsSeqLenBeyondContextWindow) {
  const ModelConfig config = ModelConfig::Mini();
  KvCache::TokenMajorDeserializer d(config, PeMode::kDecoupled, config.context_window + 1);
  d.Consume(std::vector<std::uint8_t>(64, 0));
  const auto restored = d.Finish();
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  d.Reset();  // still rejected after a replay
  EXPECT_FALSE(d.Finish().ok());
}

TEST(KvCacheTokenMajor, PreservesPeMode) {
  const ModelConfig config = ModelConfig::Mini();
  KvCache cache(config, PeMode::kCoupled);
  FillCache(cache, 2);
  KvCache::TokenMajorDeserializer d(config, PeMode::kCoupled, 2);
  d.Consume(cache.SerializeTokenMajor());
  auto restored = d.Finish();
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->pe_mode(), PeMode::kCoupled);
}

TEST(KvCacheDeathTest, WrongRowSizeAborts) {
  KvCache cache(ModelConfig::Mini(), PeMode::kDecoupled);
  const std::vector<float> bad(3, 0.0f);
  EXPECT_DEATH(cache.Append(0, bad, bad), "CA_CHECK failed");
}

TEST(KvCacheDeathTest, OutOfRangeTokenAborts) {
  KvCache cache(ModelConfig::Mini(), PeMode::kDecoupled);
  FillCache(cache, 1);
  EXPECT_DEATH((void)cache.K(0, 5), "CA_CHECK failed");
}

// Parameterised: serialization round-trip across configs and lengths.
class KvCacheRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {
 protected:
  static ModelConfig ConfigByName(const std::string& name) {
    if (name == "mini") {
      return ModelConfig::Mini();
    }
    if (name == "mha") {
      return ModelConfig::MiniGqa1();
    }
    return ModelConfig::Tiny();
  }
};

TEST_P(KvCacheRoundTrip, SurvivesSerializeDeserialize) {
  const auto [name, tokens] = GetParam();
  const ModelConfig config = ConfigByName(name);
  KvCache cache(config, PeMode::kDecoupled);
  Rng rng(tokens);
  std::vector<float> row(config.kv_dim());
  for (std::size_t layer = 0; layer < config.n_layers; ++layer) {
    for (std::size_t t = 0; t < tokens; ++t) {
      for (auto& x : row) {
        x = rng.NextFloat();
      }
      cache.Append(layer, row, row);
    }
  }
  auto restored = RoundTrip(cache, config);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->seq_len(), tokens);
  EXPECT_EQ(restored->byte_size(), cache.byte_size());
  ExpectSameRows(*restored, cache);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigsAndLengths, KvCacheRoundTrip,
    ::testing::Combine(::testing::Values("mini", "mha", "tiny"),
                       ::testing::Values(0UL, 1UL, 17UL, 128UL)));

}  // namespace
}  // namespace ca
