// CachedAttentionEngine (real execution path) tests: reply equivalence with
// the recompute baseline, KV reuse accounting, overflow by KV truncation,
// tiered spill with real payloads, async saving, and session lifecycle.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/cached_attention.h"
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

EngineOptions DefaultOptions() {
  EngineOptions options;
  options.store.dram_capacity = MiB(64);
  options.store.disk_capacity = MiB(256);
  options.store.block_bytes = KiB(64);
  // Audit the store after every mutation so accounting drift on the real
  // serving path aborts in the test that introduced it.
  options.store.audit = true;
  return options;
}

EngineOptions RecomputeOptions() {
  EngineOptions options = DefaultOptions();
  options.reuse_kv = false;
  return options;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : model_(ModelConfig::Mini(), 51) {}
  Transformer model_;
};

TEST_F(EngineTest, SingleTurnProducesReply) {
  CachedAttentionEngine engine(&model_, DefaultOptions());
  const auto input = MakeTokens(10, 1, model_.config().vocab_size);
  auto result = engine.Converse(7, input, 8);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reply.size(), 8U);
  EXPECT_FALSE(result->cache_hit);  // first turn: nothing cached
  EXPECT_EQ(result->prompt_tokens, 10ULL);
  EXPECT_EQ(result->computed_tokens, 10ULL);
  EXPECT_EQ(engine.SessionHistory(7).size(), 18U);
}

TEST_F(EngineTest, SecondTurnHitsCache) {
  CachedAttentionEngine engine(&model_, DefaultOptions());
  const auto turn1 = MakeTokens(10, 1, model_.config().vocab_size);
  ASSERT_TRUE(engine.Converse(7, turn1, 5).ok());
  const auto turn2 = MakeTokens(6, 2, model_.config().vocab_size);
  auto result = engine.Converse(7, turn2, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->cache_hit);
  EXPECT_EQ(result->hit_tier, Tier::kDram);
  EXPECT_EQ(result->reused_tokens, 15ULL);   // turn1 input + reply
  EXPECT_EQ(result->computed_tokens, 6ULL);  // only the new input
  EXPECT_EQ(result->prompt_tokens, 21ULL);
}

// The central correctness property: CachedAttention's replies are
// *identical* to the recompute baseline's — reuse changes cost, not output.
TEST_F(EngineTest, RepliesMatchRecomputeBaselineAcrossTurns) {
  CachedAttentionEngine ca(&model_, DefaultOptions());
  CachedAttentionEngine re(&model_, RecomputeOptions());
  for (std::uint64_t turn = 0; turn < 4; ++turn) {
    const auto input = MakeTokens(8 + turn, 100 + turn, model_.config().vocab_size);
    auto r_ca = ca.Converse(1, input, 6);
    auto r_re = re.Converse(1, input, 6);
    ASSERT_TRUE(r_ca.ok());
    ASSERT_TRUE(r_re.ok());
    EXPECT_EQ(r_ca->reply, r_re->reply) << "turn " << turn;
    EXPECT_TRUE(r_ca->cache_hit == (turn > 0));
    EXPECT_FALSE(r_re->cache_hit);
  }
  // And the engines agree on the visible history.
  EXPECT_EQ(ca.SessionHistory(1), re.SessionHistory(1));
  EXPECT_GT(ca.stats().reuse_fraction(), 0.4);
  EXPECT_DOUBLE_EQ(re.stats().reuse_fraction(), 0.0);
}

TEST_F(EngineTest, IndependentSessionsDontInterfere) {
  CachedAttentionEngine engine(&model_, DefaultOptions());
  const auto a1 = MakeTokens(10, 5, model_.config().vocab_size);
  const auto b1 = MakeTokens(12, 6, model_.config().vocab_size);
  ASSERT_TRUE(engine.Converse(1, a1, 4).ok());
  ASSERT_TRUE(engine.Converse(2, b1, 4).ok());
  EXPECT_EQ(engine.SessionHistory(1).size(), 14U);
  EXPECT_EQ(engine.SessionHistory(2).size(), 16U);
  // Session 2's turn must not evict session 1 in this large store.
  auto r = engine.Converse(1, MakeTokens(5, 7, model_.config().vocab_size), 4);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->cache_hit);
}

TEST_F(EngineTest, OverflowKvTruncationKeepsCacheValid) {
  // Window 256 (Mini). Long turns force overflow.
  CachedAttentionEngine engine(&model_, DefaultOptions());
  const std::size_t vocab = model_.config().vocab_size;
  ASSERT_TRUE(engine.Converse(3, MakeTokens(120, 8, vocab), 60).ok());   // hist 180
  auto r2 = engine.Converse(3, MakeTokens(100, 9, vocab), 30);           // 180+100 > 256
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->truncated);
  EXPECT_TRUE(r2->cache_hit);  // decoupled PE: cache survives truncation
  EXPECT_GT(r2->reused_tokens, 0ULL);
  EXPECT_LE(engine.SessionHistory(3).size(), model_.config().context_window);
  EXPECT_EQ(engine.stats().truncations, 1ULL);
}

// From the third turn on, every turn overflows the window. KV truncation
// keeps the loaded cache, so the session respects the window and hits its
// cache on every turn after the first. How KV truncation compares with
// token truncation and with naive coupled-PE truncation is measured on the
// model (decoupled_pe_test, the Table-1/2 benches).
TEST_F(EngineTest, OverflowPoliciesKeepServing) {
  CachedAttentionEngine engine(&model_, DefaultOptions());
  const std::size_t vocab = model_.config().vocab_size;
  for (int turn = 0; turn < 5; ++turn) {
    auto r = engine.Converse(1, MakeTokens(90, 20 + turn, vocab), 20);
    ASSERT_TRUE(r.ok()) << "turn " << turn;
    EXPECT_LE(engine.SessionHistory(1).size(), model_.config().context_window);
    EXPECT_EQ(r->cache_hit, turn > 0) << "turn " << turn;
  }
  EXPECT_GT(engine.stats().truncations, 0ULL);
}

TEST_F(EngineTest, TinyDramSpillsToDiskAndStillHits) {
  EngineOptions options = DefaultOptions();
  // One turn's KV (125 tokens * 2 KiB/token ~ 250 KiB) exceeds DRAM; the
  // store must spill to disk and serve hits from there.
  options.store.dram_capacity = KiB(128);
  options.store.disk_capacity = MiB(256);
  CachedAttentionEngine engine(&model_, options);
  const std::size_t vocab = model_.config().vocab_size;
  ASSERT_TRUE(engine.Converse(1, MakeTokens(120, 1, vocab), 5).ok());
  auto r = engine.Converse(1, MakeTokens(8, 2, vocab), 5);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->cache_hit);
  EXPECT_EQ(r->hit_tier, Tier::kDisk);
}

TEST_F(EngineTest, AsyncSaveFlushesAndHits) {
  EngineOptions options = DefaultOptions();
  options.async_save = true;
  CachedAttentionEngine engine(&model_, options);
  const std::size_t vocab = model_.config().vocab_size;
  ASSERT_TRUE(engine.Converse(1, MakeTokens(10, 1, vocab), 5).ok());
  // Immediately converse again: the engine must wait for the pending save,
  // not miss.
  auto r = engine.Converse(1, MakeTokens(5, 2, vocab), 5);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->cache_hit);
  engine.Flush();
}

// Inline and write-stream saves are one path: same replies, and the store
// holds the same payload bytes after every turn.
TEST_F(EngineTest, AsyncMatchesSyncReplies) {
  EngineOptions sync_opts = DefaultOptions();
  EngineOptions async_opts = DefaultOptions();
  async_opts.async_save = true;
  CachedAttentionEngine sync_engine(&model_, sync_opts);
  CachedAttentionEngine async_engine(&model_, async_opts);
  const std::size_t vocab = model_.config().vocab_size;
  for (int turn = 0; turn < 3; ++turn) {
    const auto input = MakeTokens(10, 30 + turn, vocab);
    auto a = sync_engine.Converse(1, input, 6);
    auto b = async_engine.Converse(1, input, 6);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->reply, b->reply);
    async_engine.Flush();
    // ExportSession reads the stored payload back (AttentionStore::
    // ReadPayload) without touching the next turn's cache.
    auto a_snap = sync_engine.ExportSession(1);
    auto b_snap = async_engine.ExportSession(1);
    ASSERT_TRUE(a_snap.ok() && b_snap.ok());
    ASSERT_TRUE(a_snap->record.has_value() && b_snap->record.has_value()) << "turn " << turn;
    EXPECT_EQ(a_snap->record->token_count, b_snap->record->token_count) << "turn " << turn;
    EXPECT_EQ(a_snap->record->payload, b_snap->record->payload) << "turn " << turn;
  }
}

TEST_F(EngineTest, EndSessionForgets) {
  CachedAttentionEngine engine(&model_, DefaultOptions());
  const std::size_t vocab = model_.config().vocab_size;
  ASSERT_TRUE(engine.Converse(1, MakeTokens(10, 1, vocab), 5).ok());
  engine.EndSession(1);
  EXPECT_TRUE(engine.SessionHistory(1).empty());
  auto r = engine.Converse(1, MakeTokens(5, 2, vocab), 5);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->cache_hit);
}

TEST_F(EngineTest, TurnLargerThanWindowRejected) {
  CachedAttentionEngine engine(&model_, DefaultOptions());
  const auto huge = MakeTokens(model_.config().context_window, 1, model_.config().vocab_size);
  auto r = engine.Converse(1, huge, 5);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, StatsAccumulate) {
  CachedAttentionEngine engine(&model_, DefaultOptions());
  const std::size_t vocab = model_.config().vocab_size;
  ASSERT_TRUE(engine.Converse(1, MakeTokens(10, 1, vocab), 5).ok());
  ASSERT_TRUE(engine.Converse(1, MakeTokens(10, 2, vocab), 5).ok());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.turns, 2ULL);
  EXPECT_GT(stats.prefill_seconds, 0.0);
  EXPECT_EQ(stats.prompt_tokens, 10ULL + 25ULL);
  EXPECT_EQ(stats.reused_tokens, 15ULL);
}

TEST_F(EngineTest, QueueHintProtectsUpcomingSession) {
  EngineOptions options = DefaultOptions();
  // DRAM holds two session caches (each turn's KV is ~45 tok * 2 KiB =
  // 90 KiB; blocks are 128 KiB); a third session forces a demotion.
  options.store.dram_capacity = KiB(256);
  options.store.block_bytes = KiB(128);
  options.store.disk_capacity = MiB(64);
  CachedAttentionEngine engine(&model_, options);
  const std::size_t vocab = model_.config().vocab_size;

  ASSERT_TRUE(engine.Converse(1, MakeTokens(40, 1, vocab), 5).ok());
  ASSERT_TRUE(engine.Converse(2, MakeTokens(40, 2, vocab), 5).ok());
  // Announce that session 1 will be used next; saving session 3 must demote
  // session 2 (unhinted) instead of the older session 1.
  engine.SetQueueHint({1});
  ASSERT_TRUE(engine.Converse(3, MakeTokens(40, 4, vocab), 5).ok());
  // Session 1's KV must still be the DRAM resident.
  auto r = engine.Converse(1, MakeTokens(8, 3, vocab), 5);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->cache_hit);
  EXPECT_EQ(r->hit_tier, Tier::kDram);
}

// TSan regression for the stats_ data race: N threads conversing on N
// *distinct* sessions is the documented concurrency contract, and before
// the AccumulateTurnStats fix every one of them bumped the unguarded
// EngineStats counters. Replies must also match a serial engine's (the
// sessions are independent, so interleaving changes nothing).
TEST_F(EngineTest, ConcurrentConverseOnDistinctSessions) {
  EngineOptions options = DefaultOptions();
  options.async_save = true;  // exercise the write stream too
  CachedAttentionEngine engine(&model_, options);
  constexpr int kThreads = 4;
  constexpr int kTurns = 3;
  const std::size_t vocab = model_.config().vocab_size;
  std::atomic<int> failures{0};
  std::vector<std::vector<std::vector<TokenId>>> replies(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int turn = 0; turn < kTurns; ++turn) {
        const auto input = MakeTokens(8, 1000 + t * 100 + turn, vocab);
        auto r = engine.Converse(static_cast<SessionId>(500 + t), input, 4);
        if (!r.ok()) {
          failures.fetch_add(1);
          return;
        }
        replies[t].push_back(r->reply);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  engine.Flush();
  ASSERT_EQ(failures.load(), 0);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.turns, static_cast<std::uint64_t>(kThreads * kTurns));
  EXPECT_GT(stats.reused_tokens, 0ULL);

  // Serial reference: same per-session inputs, one thread.
  CachedAttentionEngine serial(&model_, DefaultOptions());
  for (int t = 0; t < kThreads; ++t) {
    for (int turn = 0; turn < kTurns; ++turn) {
      const auto input = MakeTokens(8, 1000 + t * 100 + turn, vocab);
      auto r = serial.Converse(static_cast<SessionId>(500 + t), input, 4);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->reply, replies[t][static_cast<std::size_t>(turn)])
          << "thread " << t << " turn " << turn;
    }
  }
}

}  // namespace
}  // namespace ca
