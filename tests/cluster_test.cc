// ShardRouter tests (DESIGN.md §16):
//
//   * a 4-shard router's replies are bitwise-identical to a single
//     ServingLoop over the same session set;
//   * DrainShard under live traffic loses zero accepted sessions and the
//     migrated sessions resume with identical replies;
//   * seeded fault injection on the migration path (export/import I/O
//     errors) degrades to history-only migration + recompute — replies
//     still match a clean engine;
//   * TrySubmit backpressure: new sessions overflow to the least-loaded
//     shard, existing sessions shed (KV locality);
//   * whole-shard failure: a store with every tier quarantined is
//     auto-drained as kQuarantined by PollHealth.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/cluster/shard_router.h"
#include "src/common/rng.h"
#include "src/common/units.h"
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

EngineOptions DefaultEngineOptions() {
  EngineOptions options;
  options.store.dram_capacity = MiB(64);
  options.store.disk_capacity = MiB(256);
  options.store.block_bytes = KiB(64);
  options.store.audit = true;
  return options;
}

// Deterministic workload, wave-interleaved like tests/serve_test.cc.
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

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : model_(ModelConfig::Mini(), 51) {}

  // Serial clean-engine reference for a workload: the replies every router
  // configuration must reproduce bitwise (engine determinism contract).
  ReplyMap ReferenceReplies(const std::vector<ServeRequest>& workload) {
    CachedAttentionEngine clean(&model_, DefaultEngineOptions());
    ReplyMap out;
    std::map<SessionId, std::uint32_t> turn_counter;
    for (const ServeRequest& req : workload) {
      auto r = clean.Converse(req.session, req.input, req.max_reply_tokens);
      EXPECT_TRUE(r.ok()) << r.status();
      out[{req.session, ++turn_counter[req.session]}] = r->reply;
    }
    return out;
  }

  static void ExpectSameReplies(const ReplyMap& expected, const ReplyMap& actual) {
    ASSERT_EQ(expected.size(), actual.size());
    for (const auto& [key, reply] : expected) {
      const auto it = actual.find(key);
      ASSERT_NE(it, actual.end()) << "session " << key.first << " turn " << key.second
                                  << " never served";
      EXPECT_EQ(it->second, reply) << "session " << key.first << " turn " << key.second
                                   << " diverged";
    }
  }

  Transformer model_;
};

// Acceptance criterion: 4 shards, replies bitwise-identical to one
// ServingLoop for the same session set.
TEST_F(ClusterTest, FourShardsMatchSingleLoopBitwise) {
  const std::size_t kSessions = 16, kTurns = 3;
  const auto workload = BuildWorkload(kSessions, kTurns, model_.config().vocab_size);

  ReplyMap single;
  {
    CachedAttentionEngine engine(&model_, DefaultEngineOptions());
    ServerOptions sopts;
    sopts.num_workers = 1;
    ServingLoop loop(&engine, sopts);
    for (const ServeRequest& req : workload) {
      loop.Submit(req);
    }
    loop.Shutdown();
    single = ToReplyMap(loop.TakeReplies());
  }

  ClusterOptions copts;
  copts.num_shards = 4;
  copts.engine = DefaultEngineOptions();
  copts.server.num_workers = 2;
  ShardRouter router(&model_, copts);
  for (const ServeRequest& req : workload) {
    router.Submit(req);
  }
  router.Shutdown();
  const ReplyMap sharded = ToReplyMap(router.TakeReplies());

  ASSERT_EQ(single.size(), kSessions * kTurns);
  ExpectSameReplies(single, sharded);

  // The ring actually spread the sessions: more than one shard served jobs,
  // and every routed job is accounted for.
  std::size_t shards_used = 0;
  std::uint64_t routed = 0;
  for (ShardId s = 0; s < 4; ++s) {
    const ShardStatus st = router.shard_status(s);
    shards_used += st.jobs_routed > 0 ? 1 : 0;
    routed += st.jobs_routed;
  }
  EXPECT_GT(shards_used, 1U);
  EXPECT_EQ(routed, kSessions * kTurns);
}

// Acceptance criterion: DrainShard under live traffic loses zero accepted
// sessions; migrated sessions resume with identical replies.
TEST_F(ClusterTest, DrainUnderLiveTrafficLosesNothing) {
  const std::size_t kSessions = 12, kTurns = 4;
  const auto workload = BuildWorkload(kSessions, kTurns, model_.config().vocab_size);
  const ReplyMap expected = ReferenceReplies(workload);

  ClusterOptions copts;
  copts.num_shards = 4;
  copts.engine = DefaultEngineOptions();
  copts.server.num_workers = 2;
  ShardRouter router(&model_, copts);

  // Wave 1 populates every session's KV cache and pins it to a shard.
  for (std::size_t i = 0; i < kSessions; ++i) {
    router.Submit(workload[i]);
  }
  router.WaitIdle();
  const ShardId victim = router.ShardOf(0);  // session 0's pin: never empty
  ASSERT_GT(router.shard_status(victim).sessions_resident, 0U);

  // Drain the victim while the remaining waves are being submitted: turns
  // for its sessions park mid-drain and flush to the new owners.
  std::thread drainer([&] { EXPECT_TRUE(router.DrainShard(victim).ok()); });
  for (std::size_t i = kSessions; i < workload.size(); ++i) {
    router.Submit(workload[i]);
  }
  drainer.join();
  router.WaitIdle();
  router.Shutdown();

  ExpectSameReplies(expected, ToReplyMap(router.TakeReplies()));

  const ShardStatus st = router.shard_status(victim);
  EXPECT_EQ(st.health, ShardHealth::kDrained);
  EXPECT_GT(st.sessions_migrated_out, 0U);
  EXPECT_EQ(st.sessions_resident, 0U);
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_NE(router.ShardOf(static_cast<SessionId>(s)), victim)
        << "session " << s << " still placed on the drained shard";
  }
  // The KV payloads travelled: importing shards record the installs.
  std::uint64_t imports = 0;
  for (ShardId s = 0; s < 4; ++s) {
    imports += router.shard_engine(s).store().stats().imports;
  }
  EXPECT_GT(imports, 0U);
}

// Acceptance criterion (fault leg): with seeded I/O faults on the shards'
// disk tiers, exports/imports on the migration path can fail — the session
// then moves history-only and recomputes, and every reply still matches the
// clean reference.
TEST_F(ClusterTest, SeededFaultsOnMigrationPathStillMatchCleanReplies) {
  const std::size_t kSessions = 10, kTurns = 3;
  const auto workload = BuildWorkload(kSessions, kTurns, model_.config().vocab_size);
  const ReplyMap expected = ReferenceReplies(workload);

  ClusterOptions copts;
  copts.num_shards = 4;
  copts.server.num_workers = 2;
  copts.engine_options_fn = [](std::size_t shard) {
    EngineOptions options = DefaultEngineOptions();
    // Tiny DRAM forces disk traffic so the injector sees the save, export
    // and import I/O; high permanent-fault rates make some of them fail.
    options.store.dram_capacity = KiB(128);
    options.store.block_bytes = KiB(32);
    options.store.disk_fault.seed = 77 + shard;
    options.store.disk_fault.read_permanent_p = 0.25;
    options.store.disk_fault.write_permanent_p = 0.25;
    options.store.quarantine_after = 10000;  // keep the tier in play
    return options;
  };
  ShardRouter router(&model_, copts);

  for (std::size_t i = 0; i < kSessions; ++i) {
    router.Submit(workload[i]);
  }
  router.WaitIdle();
  const ShardId victim = router.ShardOf(3);
  ASSERT_TRUE(router.DrainShard(victim).ok());
  for (std::size_t i = kSessions; i < workload.size(); ++i) {
    router.Submit(workload[i]);
  }
  router.Shutdown();

  ExpectSameReplies(expected, ToReplyMap(router.TakeReplies()));
  EXPECT_GT(router.shard_status(victim).sessions_migrated_out, 0U);

  // The seeds really fired: the fleet observed injected I/O faults.
  std::uint64_t faults = 0;
  for (ShardId s = 0; s < 4; ++s) {
    faults += router.shard_engine(s).store().stats().io_faults();
  }
  EXPECT_GT(faults, 0U);
}

// Backpressure policy: when the ring owner's queue is full, a *new* session
// overflows to the least-loaded shard and pins there; an *existing* session
// sheds instead of moving (its KV is already local).
TEST_F(ClusterTest, TrySubmitOverflowsNewSessionsAndShedsExisting) {
  ClusterOptions copts;
  copts.num_shards = 2;
  copts.engine = DefaultEngineOptions();
  copts.server.num_workers = 1;
  copts.server.max_queue_depth = 1;
  ShardRouter router(&model_, copts);
  const std::size_t vocab = model_.config().vocab_size;

  // Pick 6 fresh sessions that all hash to shard 0, so its queue fills and
  // the overflow path must fire while shard 1 still has room.
  std::vector<SessionId> on_zero;
  for (SessionId s = 0; on_zero.size() < 6; ++s) {
    if (router.ShardOf(s) == 0) {
      on_zero.push_back(s);
    }
  }
  std::size_t accepted = 0;
  for (const SessionId s : on_zero) {
    ServeRequest req;
    req.session = s;
    req.input = MakeTokens(10, 4000 + s, vocab);
    req.max_reply_tokens = 24;  // slow turns keep the queues full
    accepted += router.TrySubmit(std::move(req)).has_value() ? 1 : 0;
  }
  const ShardStatus s0 = router.shard_status(0);
  const ShardStatus s1 = router.shard_status(1);
  EXPECT_GT(s1.jobs_overflowed_in, 0U) << "no new session overflowed to shard 1";
  EXPECT_GT(s0.jobs_shed + s1.jobs_shed, 0U) << "burst never shed with queue caps of 1";
  EXPECT_EQ(accepted + s0.jobs_shed + s1.jobs_shed, on_zero.size());

  router.WaitIdle();
  // An accepted overflow pinned its session to shard 1 for good.
  std::size_t pinned_off_ring = 0;
  for (const SessionId s : on_zero) {
    pinned_off_ring += router.ShardOf(s) == 1 ? 1 : 0;
  }
  EXPECT_GT(pinned_off_ring, 0U);

  // An existing session sheds (does not move) when its shard is full: fill
  // shard 0's queue with a long turn, then retry one of its pinned sessions.
  std::optional<SessionId> pinned_zero;
  for (const SessionId s : on_zero) {
    if (router.ShardOf(s) == 0) {
      pinned_zero = s;
      break;
    }
  }
  ASSERT_TRUE(pinned_zero.has_value()) << "every session overflowed off shard 0?";
  const std::uint64_t shed_before = router.shard_status(0).jobs_shed;
  std::size_t retries_shed = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    ServeRequest req;
    req.session = *pinned_zero;
    req.input = MakeTokens(10, 5000 + i, vocab);
    req.max_reply_tokens = 24;
    retries_shed += router.TrySubmit(std::move(req)).has_value() ? 0 : 1;
  }
  EXPECT_GT(retries_shed, 0U) << "8 rapid turns of one session never hit the cap";
  EXPECT_EQ(router.shard_status(0).jobs_shed, shed_before + retries_shed);
  EXPECT_EQ(router.ShardOf(*pinned_zero), 0U) << "existing session moved under load";

  router.Shutdown();
  const auto replies = router.TakeReplies();
  for (const ServeReply& r : replies) {
    EXPECT_TRUE(r.status.ok());
  }
  EXPECT_FALSE(router.TrySubmit(ServeRequest{}).has_value());
}

// Whole-shard failure: a shard whose store lost every configured tier is
// auto-drained as kQuarantined; its sessions resume elsewhere from their
// migrated histories with identical replies.
TEST_F(ClusterTest, QuarantinedShardIsAutoDrainedByPollHealth) {
  const std::size_t kSessions = 10, kTurns = 3;
  const auto workload = BuildWorkload(kSessions, kTurns, model_.config().vocab_size);
  const ReplyMap expected = ReferenceReplies(workload);

  ClusterOptions copts;
  copts.num_shards = 4;
  copts.server.num_workers = 2;
  copts.health_poll_every = 0;  // poll explicitly below
  // Ring owner of session 0, computed the same way the router will.
  ConsistentHashRing ring;
  for (ShardId s = 0; s < 4; ++s) {
    ring.AddShard(s);
  }
  const ShardId victim = ring.ShardFor(0);

  copts.engine_options_fn = [victim](std::size_t shard) {
    EngineOptions options = DefaultEngineOptions();
    if (shard == victim) {
      // DRAM-only store whose every write fails permanently: the single
      // configured tier quarantines on the first save, after which the
      // shard can cache nothing at all.
      options.store.disk_capacity = 0;
      options.store.dram_fault.write_permanent_p = 1.0;
      options.store.quarantine_after = 1;
    }
    return options;
  };
  ShardRouter router(&model_, copts);

  for (std::size_t i = 0; i < kSessions; ++i) {
    router.Submit(workload[i]);
  }
  router.WaitIdle();
  ASSERT_EQ(router.shard_engine(victim).StoreTierHealth(Tier::kDram),
            TierHealth::kQuarantined);

  EXPECT_EQ(router.PollHealth(), 1U);
  EXPECT_EQ(router.shard_status(victim).health, ShardHealth::kQuarantined);
  EXPECT_EQ(router.PollHealth(), 0U);  // idempotent: already retired

  for (std::size_t i = kSessions; i < workload.size(); ++i) {
    router.Submit(workload[i]);
  }
  router.Shutdown();
  ExpectSameReplies(expected, ToReplyMap(router.TakeReplies()));
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_NE(router.ShardOf(static_cast<SessionId>(s)), victim);
  }
}

// A migration that fails outright (injected whole-migration fault) must not
// leave the session's pin pointing at the retired shard: the drain sweeps
// it, and the session keeps being served — fresh via the ring (clean-miss
// recompute), never routed to the shut-down loop.
TEST_F(ClusterTest, FailedMigrationSweepsPinAndSessionKeepsBeingServed) {
  const std::size_t kSessions = 12;
  const std::size_t vocab = model_.config().vocab_size;

  ClusterOptions copts;
  copts.num_shards = 4;
  copts.engine = DefaultEngineOptions();
  copts.server.num_workers = 2;
  copts.migration_fault_fn = [](SessionId, ShardId) { return true; };  // fail every move
  ShardRouter router(&model_, copts);

  for (std::size_t s = 0; s < kSessions; ++s) {
    ServeRequest req;
    req.session = static_cast<SessionId>(s);
    req.input = MakeTokens(8, 9000 + s, vocab);
    req.max_reply_tokens = 3;
    router.Submit(std::move(req));
  }
  router.WaitIdle();

  const ShardId victim = router.ShardOf(0);
  std::vector<SessionId> on_victim;
  for (std::size_t s = 0; s < kSessions; ++s) {
    if (router.ShardOf(static_cast<SessionId>(s)) == victim) {
      on_victim.push_back(static_cast<SessionId>(s));
    }
  }
  ASSERT_FALSE(on_victim.empty());

  ASSERT_TRUE(router.DrainShard(victim).ok());
  const ShardStatus st = router.shard_status(victim);
  EXPECT_EQ(st.health, ShardHealth::kDrained);
  EXPECT_EQ(st.sessions_migrated_out, 0U) << "injected faults should fail every move";

  // Every pin left the retired shard even though nothing migrated...
  for (const SessionId s : on_victim) {
    EXPECT_NE(router.ShardOf(s), victim) << "session " << s << " pin survived the sweep";
  }
  // ...and the sessions are still servable: Submit must route them to a
  // live shard (a stale pin would abort on the victim's shut-down loop).
  for (const SessionId s : on_victim) {
    ServeRequest req;
    req.session = s;
    req.input = MakeTokens(8, 9500 + s, vocab);
    req.max_reply_tokens = 3;
    router.Submit(std::move(req));
  }
  router.Shutdown();
  for (const ServeReply& r : router.TakeReplies()) {
    EXPECT_TRUE(r.status.ok()) << "job " << r.job << ": " << r.status;
  }
}

// TrySubmit while the pinned shard drains: parked intake is bounded by
// max_queue_depth — overflow sheds instead of growing parked_ without limit.
// The migration fault hook doubles as a sync point holding the drain open.
TEST_F(ClusterTest, TrySubmitBoundsParkedBacklogDuringDrain) {
  const std::size_t vocab = model_.config().vocab_size;
  std::atomic<bool> release{false};

  ClusterOptions copts;
  copts.num_shards = 2;
  copts.engine = DefaultEngineOptions();
  copts.server.num_workers = 1;
  copts.server.max_queue_depth = 2;
  copts.migration_fault_fn = [&release](SessionId, ShardId) {
    while (!release.load()) {
      std::this_thread::yield();  // park the drain mid-migration
    }
    return false;  // then migrate normally
  };
  ShardRouter router(&model_, copts);

  // One served turn pins the session (and gives the drain a live session to
  // block on inside the fault hook).
  SessionId session = 0;
  ServeRequest first;
  first.session = session;
  first.input = MakeTokens(8, 11000, vocab);
  first.max_reply_tokens = 2;
  router.Submit(std::move(first));
  router.WaitIdle();
  const ShardId victim = router.ShardOf(session);

  std::thread drainer([&] { EXPECT_TRUE(router.DrainShard(victim).ok()); });
  while (router.shard_status(victim).health != ShardHealth::kDraining) {
    std::this_thread::yield();
  }

  // The drain is wedged in the hook: every TrySubmit for the pinned session
  // parks — until the cap (2), after which the rest shed.
  const std::size_t kAttempts = 6;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kAttempts; ++i) {
    ServeRequest req;
    req.session = session;
    req.input = MakeTokens(8, 12000 + i, vocab);
    req.max_reply_tokens = 2;
    accepted += router.TrySubmit(std::move(req)).has_value() ? 1 : 0;
  }
  EXPECT_EQ(accepted, copts.server.max_queue_depth);
  EXPECT_EQ(router.shard_status(victim).jobs_shed, kAttempts - accepted);

  release.store(true);
  drainer.join();
  router.Shutdown();

  // Everything accepted (1 pre-drain + the parked 2) was served.
  const auto replies = router.TakeReplies();
  EXPECT_EQ(replies.size(), 1 + accepted);
  for (const ServeReply& r : replies) {
    EXPECT_TRUE(r.status.ok()) << "job " << r.job << ": " << r.status;
  }
}

// Router-level EndSession retires the session everywhere: engine state on
// its pinned shard plus the router's pin and turn counter (the next turn
// starts over at turn_index 1).
TEST_F(ClusterTest, EndSessionErasesPinTurnCounterAndEngineState) {
  ClusterOptions copts;
  copts.num_shards = 2;
  copts.engine = DefaultEngineOptions();
  ShardRouter router(&model_, copts);
  const std::size_t vocab = model_.config().vocab_size;
  const SessionId session = 5;

  ServeRequest req;
  req.session = session;
  req.input = MakeTokens(8, 13000, vocab);
  req.max_reply_tokens = 2;
  router.Submit(std::move(req));
  router.WaitIdle();

  const ShardId pin = router.ShardOf(session);
  const auto resident = router.shard_engine(pin).LiveSessions();
  ASSERT_NE(std::find(resident.begin(), resident.end(), session), resident.end());

  router.EndSession(session);
  router.EndSession(static_cast<SessionId>(999));  // unknown: no-op

  const auto after = router.shard_engine(pin).LiveSessions();
  EXPECT_EQ(std::find(after.begin(), after.end(), session), after.end())
      << "engine state survived EndSession";
  EXPECT_EQ(router.shard_status(pin).sessions_resident, 0U);

  // The same id starts a fresh session: turn counter reset to 1.
  ServeRequest again;
  again.session = session;
  again.input = MakeTokens(8, 14000, vocab);
  again.max_reply_tokens = 2;
  router.Submit(std::move(again));
  router.Shutdown();
  const auto replies = router.TakeReplies();
  ASSERT_EQ(replies.size(), 2U);
  EXPECT_EQ(replies[0].turn_index, 1U);
  EXPECT_EQ(replies[1].turn_index, 1U) << "turn counter not reset by EndSession";
}

TEST_F(ClusterTest, RepeatedShutdownIsIdempotentAndRepliesComeInJobOrder) {
  ClusterOptions copts;
  copts.num_shards = 2;
  copts.engine = DefaultEngineOptions();
  ShardRouter router(&model_, copts);
  const std::size_t vocab = model_.config().vocab_size;
  for (std::size_t i = 0; i < 6; ++i) {
    ServeRequest req;
    req.session = static_cast<SessionId>(i);
    req.input = MakeTokens(5, 7000 + i, vocab);
    req.max_reply_tokens = 2;
    router.Submit(std::move(req));
  }
  router.Shutdown();
  router.Shutdown();  // no-op, no deadlock
  const auto replies = router.TakeReplies();
  ASSERT_EQ(replies.size(), 6U);
  for (std::size_t i = 1; i < replies.size(); ++i) {
    EXPECT_LT(replies[i - 1].job, replies[i].job) << "replies not in global JobId order";
  }
  EXPECT_TRUE(router.TakeReplies().empty());  // cleared by the first take
}

}  // namespace
}  // namespace ca
