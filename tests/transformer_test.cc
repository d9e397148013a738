// Mini-transformer forward-pass tests: determinism, incremental-decode
// consistency, GQA variants, CachedAttention partial prefill equivalence.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/model/sampler.h"
#include "src/model/tokenizer.h"
#include "src/model/transformer.h"
#include "src/tensor/tensor.h"

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

TEST(TransformerTest, ForwardShape) {
  const Transformer model(ModelConfig::Tiny(), 1);
  KvCache cache = model.MakeCache(PeMode::kDecoupled);
  const auto tokens = MakeTokens(5, 2, model.config().vocab_size);
  const Tensor logits = model.Forward(tokens, cache);
  EXPECT_EQ(logits.dim(0), 5U);
  EXPECT_EQ(logits.dim(1), model.config().vocab_size);
  EXPECT_EQ(cache.seq_len(), 5U);
}

TEST(TransformerTest, DeterministicAcrossInstances) {
  const Transformer a(ModelConfig::Tiny(), 42);
  const Transformer b(ModelConfig::Tiny(), 42);
  KvCache ca_ = a.MakeCache(PeMode::kDecoupled);
  KvCache cb = b.MakeCache(PeMode::kDecoupled);
  const auto tokens = MakeTokens(8, 3, a.config().vocab_size);
  const Tensor la = a.Forward(tokens, ca_);
  const Tensor lb = b.Forward(tokens, cb);
  EXPECT_EQ(MaxAbsDiff(la, lb), 0.0f);
}

TEST(TransformerTest, DifferentSeedsDifferentWeights) {
  const Transformer a(ModelConfig::Tiny(), 1);
  const Transformer b(ModelConfig::Tiny(), 2);
  KvCache ca_ = a.MakeCache(PeMode::kDecoupled);
  KvCache cb = b.MakeCache(PeMode::kDecoupled);
  const auto tokens = MakeTokens(4, 3, a.config().vocab_size);
  EXPECT_GT(MaxAbsDiff(a.Forward(tokens, ca_), b.Forward(tokens, cb)), 1e-3f);
}

// Prefilling token-by-token must equal prefilling the whole prompt at once:
// the KV cache makes incremental attention exact, not approximate.
TEST(TransformerTest, IncrementalMatchesBatchPrefill) {
  const Transformer model(ModelConfig::Mini(), 7);
  const auto tokens = MakeTokens(12, 5, model.config().vocab_size);

  KvCache batch_cache = model.MakeCache(PeMode::kDecoupled);
  const Tensor batch_logits = model.Forward(tokens, batch_cache);

  KvCache inc_cache = model.MakeCache(PeMode::kDecoupled);
  Tensor last;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const TokenId tok[] = {tokens[i]};
    last = model.Forward(tok, inc_cache);
  }
  EXPECT_EQ(inc_cache.seq_len(), batch_cache.seq_len());
  // Compare last-position logits.
  const Tensor batch_last =
      Tensor::ConstView(batch_logits.row(tokens.size() - 1), {1, model.config().vocab_size});
  EXPECT_LT(MaxAbsDiff(last, batch_last), 2e-4f);
}

// The CachedAttention property on the happy path: prefilling new tokens on
// top of a cached history gives the same logits as prefilling the full
// prompt.
TEST(TransformerTest, PartialPrefillMatchesFullPrefill) {
  const Transformer model(ModelConfig::Mini(), 11);
  const auto history = MakeTokens(20, 6, model.config().vocab_size);
  const auto fresh = MakeTokens(5, 7, model.config().vocab_size);

  // Full prompt in one go.
  std::vector<TokenId> full = history;
  full.insert(full.end(), fresh.begin(), fresh.end());
  KvCache full_cache = model.MakeCache(PeMode::kDecoupled);
  const Tensor full_logits = model.Forward(full, full_cache);

  // History first (as a previous turn would), then only the new tokens.
  KvCache part_cache = model.MakeCache(PeMode::kDecoupled);
  (void)model.Forward(history, part_cache);
  const Tensor part_logits = model.Forward(fresh, part_cache);

  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const Tensor full_row = Tensor::ConstView(full_logits.row(history.size() + i),
                                              {1, model.config().vocab_size});
    const Tensor part_row =
        Tensor::ConstView(part_logits.row(i), {1, model.config().vocab_size});
    EXPECT_LT(MaxAbsDiff(full_row, part_row), 2e-4f) << "new token " << i;
  }
}

// Without truncation, coupled and decoupled PE caches are numerically
// equivalent — decoupling only changes *when* RoPE is applied.
TEST(TransformerTest, CoupledAndDecoupledAgreeWithoutTruncation) {
  const Transformer model(ModelConfig::Mini(), 13);
  const auto tokens = MakeTokens(16, 8, model.config().vocab_size);
  KvCache dec = model.MakeCache(PeMode::kDecoupled);
  KvCache cpl = model.MakeCache(PeMode::kCoupled);
  const Tensor ld = model.Forward(tokens, dec);
  const Tensor lc = model.Forward(tokens, cpl);
  EXPECT_LT(MaxAbsDiff(ld, lc), 2e-4f);
}

// The parallel determinism contract (DESIGN.md §9): any num_threads gives
// logits AND cache contents bitwise-identical to the serial reference, in
// both PE modes, for prefill and for a decode step on warm history.
TEST(TransformerTest, ThreadedForwardBitwiseMatchesSerial) {
  const ModelConfig serial_config = ModelConfig::Mini();
  const Transformer serial(serial_config, 21);
  const Transformer threaded(serial_config.WithThreads(4), 21);
  const auto prompt = MakeTokens(24, 9, serial_config.vocab_size);

  for (const PeMode mode : {PeMode::kDecoupled, PeMode::kCoupled}) {
    KvCache scache = serial.MakeCache(mode);
    KvCache tcache = threaded.MakeCache(mode);

    const Tensor sl = serial.Forward(prompt, scache);
    const Tensor tl = threaded.Forward(prompt, tcache);
    ASSERT_EQ(sl.numel(), tl.numel());
    EXPECT_EQ(std::memcmp(sl.data(), tl.data(), sl.numel() * sizeof(float)), 0)
        << "prefill logits diverge, mode " << static_cast<int>(mode);

    const auto sbytes = scache.SerializeTokenMajor();
    const auto tbytes = tcache.SerializeTokenMajor();
    EXPECT_EQ(sbytes, tbytes) << "cache contents diverge, mode " << static_cast<int>(mode);

    const TokenId tok[] = {3};
    const Tensor sd = serial.Forward(tok, scache);
    const Tensor td = threaded.Forward(tok, tcache);
    EXPECT_EQ(std::memcmp(sd.data(), td.data(), sd.numel() * sizeof(float)), 0)
        << "decode-step logits diverge, mode " << static_cast<int>(mode);
  }
}

TEST(TransformerTest, GqaAndMhaConfigsRun) {
  for (const ModelConfig& config : {ModelConfig::Mini(), ModelConfig::MiniGqa1()}) {
    const Transformer model(config, 3);
    KvCache cache = model.MakeCache(PeMode::kDecoupled);
    const auto tokens = MakeTokens(6, 9, config.vocab_size);
    const Tensor logits = model.Forward(tokens, cache);
    EXPECT_EQ(logits.dim(0), 6U);
  }
}

TEST(TransformerTest, GenerateProducesRequestedTokens) {
  const Transformer model(ModelConfig::Tiny(), 17);
  KvCache cache = model.MakeCache(PeMode::kDecoupled);
  const auto prompt = MakeTokens(4, 10, model.config().vocab_size);
  const auto reply = model.Generate(prompt, 10, cache);
  EXPECT_EQ(reply.size(), 10U);
  for (const TokenId t : reply) {
    EXPECT_GE(t, 0);
    EXPECT_LT(static_cast<std::size_t>(t), model.config().vocab_size);
  }
}

TEST(TransformerTest, GenerateIsDeterministic) {
  const Transformer model(ModelConfig::Tiny(), 17);
  KvCache c1 = model.MakeCache(PeMode::kDecoupled);
  KvCache c2 = model.MakeCache(PeMode::kDecoupled);
  const auto prompt = MakeTokens(4, 10, model.config().vocab_size);
  EXPECT_EQ(model.Generate(prompt, 8, c1), model.Generate(prompt, 8, c2));
}

TEST(TransformerDeathTest, ContextOverflowAborts) {
  const Transformer model(ModelConfig::Tiny(), 1);
  KvCache cache = model.MakeCache(PeMode::kDecoupled);
  const auto tokens =
      MakeTokens(model.config().context_window + 1, 2, model.config().vocab_size);
  EXPECT_DEATH((void)model.Forward(tokens, cache), "context overflow");
}

TEST(TransformerDeathTest, BadTokenAborts) {
  const Transformer model(ModelConfig::Tiny(), 1);
  KvCache cache = model.MakeCache(PeMode::kDecoupled);
  const std::vector<TokenId> bad = {static_cast<TokenId>(model.config().vocab_size)};
  EXPECT_DEATH((void)model.Forward(bad, cache), "CA_CHECK failed");
}

TEST(SamplerTest, ZeroTemperatureIsArgmax) {
  const Transformer model(ModelConfig::Tiny(), 5);
  KvCache cache = model.MakeCache(PeMode::kDecoupled);
  const auto tokens = MakeTokens(3, 1, model.config().vocab_size);
  const Tensor logits = model.Forward(tokens, cache);
  Sampler sampler(0.0f, 0, 1);
  EXPECT_EQ(sampler.Sample(logits, 2), model.Argmax(logits, 2));
}

TEST(SamplerTest, TopOneEqualsArgmax) {
  const Transformer model(ModelConfig::Tiny(), 5);
  KvCache cache = model.MakeCache(PeMode::kDecoupled);
  const auto tokens = MakeTokens(3, 1, model.config().vocab_size);
  const Tensor logits = model.Forward(tokens, cache);
  Sampler sampler(1.0f, 1, 7);
  EXPECT_EQ(sampler.Sample(logits, 0), model.Argmax(logits, 0));
}

TEST(SamplerTest, SamplesWithinVocab) {
  const Transformer model(ModelConfig::Tiny(), 5);
  KvCache cache = model.MakeCache(PeMode::kDecoupled);
  const auto tokens = MakeTokens(3, 1, model.config().vocab_size);
  const Tensor logits = model.Forward(tokens, cache);
  Sampler sampler(1.2f, 16, 7);
  for (int i = 0; i < 50; ++i) {
    const TokenId t = sampler.Sample(logits, 1);
    EXPECT_GE(t, 0);
    EXPECT_LT(static_cast<std::size_t>(t), model.config().vocab_size);
  }
}

TEST(TokenizerTest, RoundTrip) {
  const ByteTokenizer tok;
  const std::string text = "Hello, CachedAttention! \xc3\xa9";
  const auto ids = tok.Encode(text);
  EXPECT_EQ(ids.size(), text.size());
  EXPECT_EQ(tok.Decode(ids), text);
}

TEST(ConfigTest, KvBytesFormula) {
  const ModelConfig c = ModelConfig::Mini();
  // 2 tensors * layers * kv_dim * 4 bytes.
  EXPECT_EQ(c.kv_bytes_per_token(), 2ULL * c.n_layers * c.kv_dim() * 4);
}

TEST(ConfigTest, PaperDescriptorsMatchPublishedKvSizes) {
  // §4.2: 2.5 MB (65B), 0.78 MB (13B), 0.31 MB (70B), 0.12 MB (Falcon-40B).
  EXPECT_NEAR(static_cast<double>(ModelDescriptor::Llama65B().kv_bytes_per_token) / 1048576.0,
              2.5, 0.05);
  EXPECT_NEAR(static_cast<double>(ModelDescriptor::Llama13B().kv_bytes_per_token) / 1048576.0,
              0.78, 0.01);
  EXPECT_NEAR(static_cast<double>(ModelDescriptor::Llama70B().kv_bytes_per_token) / 1048576.0,
              0.31, 0.01);
  EXPECT_NEAR(static_cast<double>(ModelDescriptor::Falcon40B().kv_bytes_per_token) / 1048576.0,
              0.12, 0.01);
}

TEST(ConfigDeathTest, InvalidConfigsAbort) {
  ModelConfig c = ModelConfig::Mini();
  c.n_kv_heads = 3;  // does not divide 8 heads
  EXPECT_DEATH(c.Validate(), "GQA");
  ModelConfig d = ModelConfig::Mini();
  d.d_model = 130;  // not divisible by heads
  EXPECT_DEATH(d.Validate(), "CA_CHECK failed");
}

}  // namespace
}  // namespace ca
