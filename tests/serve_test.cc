// ServingLoop tests: the JobQueue → one-job-per-worker → engine runtime.
//
//   * per-session ordering under contention (turns of one conversation are
//     served in submission order even with more workers than sessions);
//   * EndSession restarts a session's turn count (bounded per-session state);
//   * graceful drain with a non-empty queue (accepted work is never lost);
//   * backpressure (TrySubmit sheds, Submit grows the queue, nothing aborts);
//   * bitwise-identical per-session replies for 1-worker vs N-worker runs
//     while the background prefetcher promotes disk-resident KV caches;
//   * a seeded fault-injection serving soak over FaultInjectingBlockStorage.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/core/cached_attention.h"
#include "src/model/transformer.h"
#include "src/serve/serving_loop.h"

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

EngineOptions DefaultEngineOptions() {
  EngineOptions options;
  options.store.dram_capacity = MiB(64);
  options.store.disk_capacity = MiB(256);
  options.store.block_bytes = KiB(64);
  options.store.audit = true;  // abort at the mutation that corrupts accounting
  return options;
}

// A deterministic workload: `turns` waves over `sessions` conversations,
// submitted wave-interleaved (s0t1, s1t1, ..., s0t2, s1t2, ...).
std::vector<ServeRequest> BuildWorkload(std::size_t sessions, std::size_t turns,
                                        std::size_t vocab,
                                        std::size_t max_reply_tokens = 4) {
  std::vector<ServeRequest> out;
  out.reserve(sessions * turns);
  for (std::size_t t = 0; t < turns; ++t) {
    for (std::size_t s = 0; s < sessions; ++s) {
      ServeRequest req;
      req.session = static_cast<SessionId>(s);
      req.input = MakeTokens(6 + (s + t) % 5, 1000 + s * 100 + t, vocab);
      req.max_reply_tokens = max_reply_tokens;
      out.push_back(std::move(req));
    }
  }
  return out;
}

// (session, turn_index) -> reply tokens.
using ReplyMap = std::map<std::pair<SessionId, std::uint32_t>, std::vector<TokenId>>;

ReplyMap ToReplyMap(const std::vector<ServeReply>& replies) {
  ReplyMap out;
  for (const ServeReply& r : replies) {
    EXPECT_TRUE(r.status.ok()) << "job " << r.job << ": " << r.status;
    const bool inserted =
        out.emplace(std::make_pair(r.session, r.turn_index), r.turn.reply).second;
    EXPECT_TRUE(inserted) << "duplicate (session " << r.session << ", turn "
                          << r.turn_index << ")";
  }
  return out;
}

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() : model_(ModelConfig::Mini(), 51) {}
  Transformer model_;
};

TEST_F(ServeTest, PerSessionOrderingUnderContention) {
  CachedAttentionEngine engine(&model_, DefaultEngineOptions());
  ServerOptions sopts;
  sopts.num_workers = 4;
  ServingLoop loop(&engine, sopts);
  // 3 sessions, 6 turns each, 4 workers: more workers than sessions forces
  // contention — a session's next turn must still wait for its previous one.
  const std::size_t kSessions = 3, kTurns = 6;
  for (const ServeRequest& req : BuildWorkload(kSessions, kTurns, model_.config().vocab_size)) {
    loop.Submit(req);
  }
  loop.WaitIdle();
  const auto replies = loop.TakeReplies();
  ASSERT_EQ(replies.size(), kSessions * kTurns);
  // Replies in JobId order: per session, turn_index counts 1..kTurns and the
  // engine-visible prompt grows monotonically (each turn really saw its
  // predecessor's history — ordering held at the engine, not just the queue).
  std::map<SessionId, std::uint32_t> last_turn;
  std::map<SessionId, std::uint64_t> last_prompt;
  for (const ServeReply& r : replies) {
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.turn_index, last_turn[r.session] + 1)
        << "session " << r.session << " served out of order";
    last_turn[r.session] = r.turn_index;
    EXPECT_GT(r.turn.prompt_tokens, last_prompt[r.session]);
    last_prompt[r.session] = r.turn.prompt_tokens;
  }
  for (const auto& [session, turns] : last_turn) {
    EXPECT_EQ(turns, kTurns) << "session " << session;
  }
  loop.Shutdown();
  EXPECT_EQ(engine.stats().turns, kSessions * kTurns);
}

// EndSession drops the loop's turn counter with the engine's session, so
// the loop keeps no entry per session ever seen and a restarted id counts
// from turn 1 again — the `turn` a serve.turn span reports agrees with the
// reply's turn_index.
TEST_F(ServeTest, EndSessionRestartsTurnCount) {
  CachedAttentionEngine engine(&model_, DefaultEngineOptions());
  ServerOptions sopts;
  sopts.num_workers = 2;
  ServingLoop loop(&engine, sopts);
  const std::size_t vocab = model_.config().vocab_size;
  const SessionId session = 7;
  const auto turn = [&](std::uint64_t seed) {
    ServeRequest req;
    req.session = session;
    req.input = MakeTokens(6, seed, vocab);
    req.max_reply_tokens = 2;
    return req;
  };
  loop.Submit(turn(1));
  loop.Submit(turn(2));
  loop.WaitIdle();
  loop.EndSession(session);
  EXPECT_TRUE(engine.SessionHistory(session).empty()) << "engine state survived EndSession";
  loop.Submit(turn(3));
  loop.Shutdown();
  const auto replies = loop.TakeReplies();
  ASSERT_EQ(replies.size(), 3U);
  EXPECT_EQ(replies[0].turn_index, 1U);
  EXPECT_EQ(replies[1].turn_index, 2U);
  EXPECT_EQ(replies[2].turn_index, 1U) << "turn counter not reset by EndSession";
  // A fresh session: its prompt is only this turn's input.
  EXPECT_EQ(replies[2].turn.prompt_tokens, 6U);
}

TEST_F(ServeTest, DrainWithNonEmptyQueueServesEverythingAccepted) {
  CachedAttentionEngine engine(&model_, DefaultEngineOptions());
  ServerOptions sopts;
  sopts.num_workers = 2;
  ServingLoop loop(&engine, sopts);
  const std::size_t kSessions = 5, kTurns = 4;
  for (const ServeRequest& req : BuildWorkload(kSessions, kTurns, model_.config().vocab_size)) {
    loop.Submit(req);
  }
  // Shutdown immediately: the queue is still deep. Graceful drain must close
  // intake but serve every accepted job before returning.
  loop.Shutdown();
  EXPECT_FALSE(loop.accepting());
  EXPECT_EQ(loop.queue_depth(), 0U);
  const auto replies = loop.TakeReplies();
  ASSERT_EQ(replies.size(), kSessions * kTurns);
  for (const ServeReply& r : replies) {
    EXPECT_TRUE(r.status.ok()) << "job " << r.job;
  }
  // Intake is closed: post-drain submissions shed instead of enqueueing.
  ServeRequest late;
  late.session = 99;
  late.input = MakeTokens(4, 9, model_.config().vocab_size);
  EXPECT_FALSE(loop.TrySubmit(late).has_value());
}

TEST_F(ServeTest, BackpressureShedsAtIntakeAndNeverAborts) {
  CachedAttentionEngine engine(&model_, DefaultEngineOptions());
  ServerOptions sopts;
  sopts.num_workers = 1;
  sopts.max_queue_depth = 2;
  ServingLoop loop(&engine, sopts);
  const std::size_t vocab = model_.config().vocab_size;
  // Burst 40 TrySubmits with a single slow worker: the queue cap must shed
  // some of them (submission is orders of magnitude faster than a turn).
  std::size_t accepted = 0, rejected = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    ServeRequest req;
    req.session = static_cast<SessionId>(i % 8);
    req.input = MakeTokens(6, 2000 + i, vocab);
    req.max_reply_tokens = 3;
    if (loop.TrySubmit(std::move(req)).has_value()) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0U) << "queue cap 2 never sheds across a 40-job burst?";
  // Submit() ignores the cap: the queue grows instead of anything aborting.
  for (std::size_t i = 0; i < 10; ++i) {
    ServeRequest req;
    req.session = static_cast<SessionId>(100 + i);
    req.input = MakeTokens(6, 3000 + i, vocab);
    req.max_reply_tokens = 3;
    loop.Submit(std::move(req));
  }
  loop.WaitIdle();
  const auto replies = loop.TakeReplies();
  EXPECT_EQ(replies.size(), accepted + 10);
  for (const ServeReply& r : replies) {
    EXPECT_TRUE(r.status.ok());
  }
}

// The acceptance-criteria soak: ≥4 workers over ≥32 sessions, replies
// bitwise identical to a 1-worker run of the same workload, with the
// background prefetcher promoting disk-resident KV caches (store promotions
// and DRAM hits both observed) while workers serve turns.
TEST_F(ServeTest, FourWorkersMatchOneWorkerBitwiseWithPrefetch) {
  const std::size_t kSessions = 32, kTurns = 2;
  const std::size_t vocab = model_.config().vocab_size;
  const auto workload = BuildWorkload(kSessions, kTurns, vocab);

  // DRAM deliberately holds only a few sessions (with a §3.3.1 fetch buffer
  // reserved) so turn-1 saves spill to disk and the prefetcher has real
  // promotion work while the turn-2 wave queues.
  const auto tiered_options = [] {
    EngineOptions options = DefaultEngineOptions();
    options.store.dram_capacity = KiB(256);
    options.store.dram_buffer = KiB(64);
    options.store.block_bytes = KiB(32);
    options.store.disk_capacity = MiB(64);
    options.async_save = true;
    return options;
  };

  const auto run = [&](std::size_t workers, StoreStats* store_stats) {
    CachedAttentionEngine engine(&model_, tiered_options());
    ServerOptions sopts;
    sopts.num_workers = workers;
    ServingLoop loop(&engine, sopts);
    // Wave 1: populate every session's KV cache.
    for (std::size_t i = 0; i < kSessions; ++i) {
      loop.Submit(workload[i]);
    }
    loop.WaitIdle();
    // Wave 2: a deep queue of returning sessions. The workers wait until
    // the refresh thread has passed over the whole queue once, so it
    // promotes the disk-resident ones ahead of them on every schedule.
    loop.SubmitBehindRefreshForTesting(
        std::vector<ServeRequest>(workload.begin() + kSessions, workload.end()));
    loop.Shutdown();
    if (store_stats != nullptr) {
      *store_stats = engine.store().stats();  // quiescent: loop is shut down
    }
    return loop.TakeReplies();
  };

  const ReplyMap serial = ToReplyMap(run(1, nullptr));
  StoreStats store_stats;
  const ReplyMap parallel = ToReplyMap(run(4, &store_stats));
  ASSERT_EQ(serial.size(), kSessions * kTurns);
  ASSERT_EQ(parallel.size(), kSessions * kTurns);
  for (const auto& [key, reply] : serial) {
    const auto it = parallel.find(key);
    ASSERT_NE(it, parallel.end());
    EXPECT_EQ(it->second, reply) << "session " << key.first << " turn " << key.second
                                 << " diverged across worker counts";
  }
  // The background prefetcher must have promoted disk-resident caches into
  // DRAM while workers served (§3.3.1), and returning sessions must have hit
  // them there.
  EXPECT_GT(store_stats.promotions, 0ULL);
  EXPECT_GT(store_stats.dram_hits, 0ULL);
}

// Seeded fault-injection serving soak: a flaky disk under the serving loop
// (transient errors, torn writes) degrades individual loads to recomputes —
// every reply still matches a clean engine's, and nothing aborts.
TEST_F(ServeTest, FaultInjectionSoakMatchesCleanReplies) {
  const std::size_t kSessions = 8, kTurns = 3;
  const std::size_t vocab = model_.config().vocab_size;
  const auto workload = BuildWorkload(kSessions, kTurns, vocab);

  // Clean serial reference.
  CachedAttentionEngine clean(&model_, DefaultEngineOptions());
  ReplyMap expected;
  {
    std::map<SessionId, std::uint32_t> turn_counter;
    for (const ServeRequest& req : workload) {
      auto r = clean.Converse(req.session, req.input, req.max_reply_tokens);
      ASSERT_TRUE(r.ok());
      expected[{req.session, ++turn_counter[req.session]}] = r->reply;
    }
  }

  EngineOptions faulty = DefaultEngineOptions();
  // Force disk traffic so the injector actually sees I/O.
  faulty.store.dram_capacity = KiB(128);
  faulty.store.block_bytes = KiB(32);
  faulty.store.disk_fault.seed = 77;
  faulty.store.disk_fault.read_transient_p = 0.10;
  faulty.store.disk_fault.write_transient_p = 0.10;
  faulty.store.disk_fault.write_corrupt_p = 0.05;
  CachedAttentionEngine engine(&model_, faulty);
  ServerOptions sopts;
  sopts.num_workers = 4;
  ServingLoop loop(&engine, sopts);
  for (const ServeRequest& req : workload) {
    loop.Submit(req);
  }
  loop.Shutdown();
  const ReplyMap served = ToReplyMap(loop.TakeReplies());
  ASSERT_EQ(served.size(), expected.size());
  for (const auto& [key, reply] : expected) {
    const auto it = served.find(key);
    ASSERT_NE(it, served.end());
    EXPECT_EQ(it->second, reply) << "session " << key.first << " turn " << key.second
                                 << " diverged under injected faults";
  }
}

TEST_F(ServeTest, RepeatedShutdownIsIdempotent) {
  CachedAttentionEngine engine(&model_, DefaultEngineOptions());
  ServingLoop loop(&engine, ServerOptions{});
  ServeRequest req;
  req.session = 1;
  req.input = MakeTokens(6, 1, model_.config().vocab_size);
  loop.Submit(req);
  loop.Shutdown();
  loop.Shutdown();  // no-op, no deadlock, no double-join
  EXPECT_EQ(loop.TakeReplies().size(), 1U);
}

}  // namespace
}  // namespace ca
