// KV compression (token-discarding list) tests: TDL construction rules,
// attention-mass accumulation and cache application. The engine does not
// compress; bench/ablation_kv_compression measures TDL on the model.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/model/compression.h"
#include "src/model/transformer.h"

namespace ca {
namespace {

std::vector<TokenId> MakeTokens(std::size_t n, std::uint64_t seed, std::size_t vocab) {
  Rng rng(seed);
  std::vector<TokenId> out(n);
  for (auto& t : out) {
    t = static_cast<TokenId>(rng.NextBounded(vocab));
  }
  return out;
}

CompressionConfig SinkConfig() {
  CompressionConfig c;
  c.policy = CompressionPolicy::kAttentionSink;
  c.sink_tokens = 4;
  c.recent_tokens = 8;
  return c;
}

TEST(TdlTest, NonePolicyDiscardsNothing) {
  CompressionConfig c;
  c.policy = CompressionPolicy::kNone;
  EXPECT_TRUE(BuildTokenDiscardList(c, 100, {}).empty());
}

TEST(TdlTest, SinkPolicyKeepsSinksAndRecents) {
  const auto discard = BuildTokenDiscardList(SinkConfig(), 20, {});
  // Middle = positions 4..11 (20 - 8 recents = 12 exclusive end).
  ASSERT_EQ(discard.size(), 8U);
  EXPECT_EQ(discard.front(), 4U);
  EXPECT_EQ(discard.back(), 11U);
  for (const std::size_t i : discard) {
    EXPECT_GE(i, 4U);
    EXPECT_LT(i, 12U);
  }
}

TEST(TdlTest, ShortSequenceUntouched) {
  // seq_len <= sinks + recents: nothing to discard.
  EXPECT_TRUE(BuildTokenDiscardList(SinkConfig(), 12, {}).empty());
  EXPECT_TRUE(BuildTokenDiscardList(SinkConfig(), 3, {}).empty());
}

TEST(TdlTest, ImportanceKeepsHeavyHitters) {
  CompressionConfig c = SinkConfig();
  c.policy = CompressionPolicy::kImportance;
  c.middle_keep_ratio = 0.25;  // keep 2 of the 8 middle tokens
  std::vector<float> mass(20, 0.0f);
  mass[6] = 10.0f;  // heavy hitters in the middle
  mass[9] = 8.0f;
  const auto discard = BuildTokenDiscardList(c, 20, mass);
  ASSERT_EQ(discard.size(), 6U);
  EXPECT_EQ(std::count(discard.begin(), discard.end(), 6U), 0);
  EXPECT_EQ(std::count(discard.begin(), discard.end(), 9U), 0);
  EXPECT_TRUE(std::is_sorted(discard.begin(), discard.end()));
}

TEST(TdlTest, ImportanceToleratesShortMassVector) {
  CompressionConfig c = SinkConfig();
  c.policy = CompressionPolicy::kImportance;
  c.middle_keep_ratio = 0.5;
  const std::vector<float> mass = {1.0f, 2.0f};  // shorter than seq_len
  const auto discard = BuildTokenDiscardList(c, 20, mass);
  EXPECT_EQ(discard.size(), 4U);  // half of the 8 middle tokens go
}

TEST(TdlTest, RandomIsDeterministicPerSeedAndRespectsBounds) {
  CompressionConfig c = SinkConfig();
  c.policy = CompressionPolicy::kRandom;
  c.middle_keep_ratio = 0.5;
  c.seed = 7;
  const auto a = BuildTokenDiscardList(c, 40, {});
  const auto b = BuildTokenDiscardList(c, 40, {});
  EXPECT_EQ(a, b);
  c.seed = 8;
  const auto d = BuildTokenDiscardList(c, 40, {});
  EXPECT_NE(a, d);
  for (const std::size_t i : a) {
    EXPECT_GE(i, c.sink_tokens);
    EXPECT_LT(i, 40U - c.recent_tokens);
  }
}

TEST(AttentionMassTest, AccumulatesPerPosition) {
  const Transformer model(ModelConfig::Tiny(), 5);
  KvCache cache = model.MakeCache(PeMode::kDecoupled);
  const auto tokens = MakeTokens(10, 2, model.config().vocab_size);
  AttentionMassAccumulator acc;
  (void)model.Forward(tokens, cache, &acc);
  ASSERT_EQ(acc.mass().size(), 10U);
  // Each (layer, head, query t) row sums to 1 over positions 0..t, so the
  // total mass equals layers * heads * tokens.
  double total = 0.0;
  for (const float m : acc.mass()) {
    EXPECT_GE(m, 0.0f);
    total += m;
  }
  const auto& c = model.config();
  EXPECT_NEAR(total, static_cast<double>(c.n_layers * c.n_heads * tokens.size()), 1e-2);
}

TEST(CompressCacheTest, RemovesTokensFromCache) {
  const Transformer model(ModelConfig::Mini(), 9);
  KvCache cache = model.MakeCache(PeMode::kDecoupled);
  const auto tokens = MakeTokens(30, 3, model.config().vocab_size);
  (void)model.Forward(tokens, cache);
  const std::size_t removed = CompressCache(SinkConfig(), cache, {});
  EXPECT_EQ(removed, 30U - 4 - 8);
  EXPECT_EQ(cache.seq_len(), 12U);
}

TEST(CompressCacheDeathTest, CoupledPeAborts) {
  const Transformer model(ModelConfig::Mini(), 9);
  KvCache cache = model.MakeCache(PeMode::kCoupled);
  const auto tokens = MakeTokens(30, 3, model.config().vocab_size);
  (void)model.Forward(tokens, cache);
  EXPECT_DEATH((void)CompressCache(SinkConfig(), cache, {}), "decoupled");
}

// A compressed cache stays *valid*: forwarding a probe over it equals
// forwarding the probe over a fresh cache built from the kept token text.
TEST(CompressCacheTest, CompressedCacheMatchesRebuiltOneLayer) {
  ModelConfig config = ModelConfig::Mini();
  config.n_layers = 1;  // K/V context-free: exact equivalence (see
                        // decoupled_pe_test.cc for the multi-layer story)
  const Transformer model(config, 11);
  const auto tokens = MakeTokens(30, 4, config.vocab_size);
  KvCache cache = model.MakeCache(PeMode::kDecoupled);
  (void)model.Forward(tokens, cache);
  const auto discard = BuildTokenDiscardList(SinkConfig(), 30, {});
  cache.DiscardTokens(discard);

  std::vector<TokenId> kept;
  std::set<std::size_t> dropped(discard.begin(), discard.end());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (dropped.count(i) == 0) {
      kept.push_back(tokens[i]);
    }
  }
  KvCache rebuilt = model.MakeCache(PeMode::kDecoupled);
  (void)model.Forward(kept, rebuilt);

  const auto probe = MakeTokens(5, 6, config.vocab_size);
  KvCache c1 = cache.Clone();
  KvCache c2 = rebuilt.Clone();
  const Tensor l1 = model.Forward(probe, c1);
  const Tensor l2 = model.Forward(probe, c2);
  EXPECT_LT(MaxAbsDiff(l1, l2), 2e-4f);
}

}  // namespace
}  // namespace ca
