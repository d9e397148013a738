// Scheduler-aware fetching tests (§3.3.1): look-ahead window sizing,
// prefetch planning, execution, and hint construction.
#include <gtest/gtest.h>

#include "src/store/attention_store.h"
#include "src/store/prefetcher.h"

namespace ca {
namespace {

const SchedulerHints kNoHints;

StoreConfig Config() {
  StoreConfig config;
  config.dram_capacity = MiB(16);  // 4 blocks
  config.disk_capacity = MiB(64);
  config.block_bytes = MiB(4);
  return config;
}

// Puts `n` sessions (ids 0..n-1) of one block each directly onto disk.
AttentionStore MakeStoreWithDiskSessions(std::size_t n) {
  AttentionStore store(Config());
  for (SessionId s = 0; s < n; ++s) {
    EXPECT_TRUE(store.Put(s, MiB(4), 100, static_cast<SimTime>(s), kNoHints).ok());
    EXPECT_TRUE(store.Demote(s, static_cast<SimTime>(s), kNoHints).ok());
  }
  return store;
}

TEST(PrefetcherTest, PlansDiskResidentUpcomingSessions) {
  AttentionStore store = MakeStoreWithDiskSessions(3);
  Prefetcher prefetcher(&store);
  const std::vector<SessionId> upcoming = {0, 2, 99};  // 99 not cached
  const PrefetchPlan plan = prefetcher.Plan(upcoming, MiB(4));
  // Window = 16 MiB free DRAM / 4 MiB = 4 jobs; all of 0 and 2 planned.
  EXPECT_EQ(plan.window_len, 4U);
  EXPECT_EQ(plan.to_fetch, (std::vector<SessionId>{0, 2}));
}

TEST(PrefetcherTest, SkipsDramResidentSessions) {
  AttentionStore store = MakeStoreWithDiskSessions(2);
  ASSERT_TRUE(store.Promote(0, 10, kNoHints).ok());
  Prefetcher prefetcher(&store);
  const std::vector<SessionId> upcoming = {0, 1};
  const PrefetchPlan plan = prefetcher.Plan(upcoming, MiB(4));
  EXPECT_EQ(plan.to_fetch, (std::vector<SessionId>{1}));
}

TEST(PrefetcherTest, WindowLimitedByAvgKvSize) {
  AttentionStore store = MakeStoreWithDiskSessions(6);
  Prefetcher prefetcher(&store);
  const std::vector<SessionId> upcoming = {0, 1, 2, 3, 4, 5};
  // Avg session KV = 8 MiB -> window = 16/8 = 2 jobs.
  const PrefetchPlan plan = prefetcher.Plan(upcoming, MiB(8));
  EXPECT_EQ(plan.window_len, 2U);
  EXPECT_EQ(plan.to_fetch, (std::vector<SessionId>{0, 1}));
}

TEST(PrefetcherTest, PlannedBytesRespectFreeDram) {
  // Sessions of 2 blocks each; free DRAM = 4 blocks -> only 2 fit even
  // though the window admits more by count.
  AttentionStore store(Config());
  for (SessionId s = 0; s < 3; ++s) {
    ASSERT_TRUE(store.Put(s, MiB(8), 100, static_cast<SimTime>(s), kNoHints).ok());
    ASSERT_TRUE(store.Demote(s, static_cast<SimTime>(s), kNoHints).ok());
  }
  Prefetcher prefetcher(&store);
  const std::vector<SessionId> upcoming = {0, 1, 2};
  const PrefetchPlan plan = prefetcher.Plan(upcoming, MiB(4));
  EXPECT_EQ(plan.to_fetch, (std::vector<SessionId>{0, 1}));
}

TEST(PrefetcherTest, ZeroAvgSizeYieldsEmptyPlan) {
  AttentionStore store = MakeStoreWithDiskSessions(1);
  Prefetcher prefetcher(&store);
  const std::vector<SessionId> upcoming = {0};
  EXPECT_TRUE(prefetcher.Plan(upcoming, 0).to_fetch.empty());
}

TEST(PrefetcherTest, ExecutePromotesPlannedSessions) {
  AttentionStore store = MakeStoreWithDiskSessions(2);
  Prefetcher prefetcher(&store);
  const std::vector<SessionId> upcoming = {0, 1};
  const PrefetchPlan plan = prefetcher.Plan(upcoming, MiB(4));
  const std::size_t promoted = prefetcher.Execute(plan, 100, kNoHints);
  EXPECT_EQ(promoted, 2U);
  EXPECT_EQ(store.Lookup(0), Tier::kDram);
  EXPECT_EQ(store.Lookup(1), Tier::kDram);
  EXPECT_EQ(store.stats().promotions, 2ULL);
}

TEST(BuildHintsTest, KeepsEarliestPosition) {
  const std::vector<SessionId> upcoming = {5, 7, 5, 9};
  const SchedulerHints hints = BuildHints(upcoming, 10);
  EXPECT_EQ(hints.NextUse(5), 0U);  // first occurrence wins
  EXPECT_EQ(hints.NextUse(7), 1U);
  EXPECT_EQ(hints.NextUse(9), 3U);
}

TEST(BuildHintsTest, TruncatesToWindow) {
  const std::vector<SessionId> upcoming = {1, 2, 3, 4};
  const SchedulerHints hints = BuildHints(upcoming, 2);
  EXPECT_TRUE(hints.InWindow(1));
  EXPECT_TRUE(hints.InWindow(2));
  EXPECT_FALSE(hints.InWindow(3));
}

TEST(EvictionWindowTest, PaperFormula) {
  AttentionStore store(Config());  // 16 MiB DRAM + 64 MiB disk (block-rounded)
  // (C_mem + C_disk) / S_kv = 80 MiB / 8 MiB = 10.
  EXPECT_EQ(EvictionWindowLength(store, MiB(8)), 10U);
  EXPECT_EQ(EvictionWindowLength(store, 0), 0U);
}

}  // namespace
}  // namespace ca
