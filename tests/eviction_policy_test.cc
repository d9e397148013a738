// Eviction policy unit tests: LRU, FIFO, and the scheduler-aware policy's
// window exemption + tail-priority rules (§3.3.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/store/eviction_policy.h"

namespace ca {
namespace {

std::vector<VictimView> Candidates() {
  // session, last_access, insert_seq.
  return {
      {.session = 10, .last_access = 30, .insert_seq = 0},
      {.session = 11, .last_access = 10, .insert_seq = 1},
      {.session = 12, .last_access = 20, .insert_seq = 2},
  };
}

TEST(LruPolicyTest, PicksLeastRecentlyUsed) {
  LruPolicy policy;
  const auto victim = policy.PickVictim(Candidates(), SchedulerHints{});
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 11U);  // last_access 10
}

TEST(LruPolicyTest, IgnoresHints) {
  LruPolicy policy;
  SchedulerHints hints;
  hints.next_use_index[11] = 0;  // LRU doesn't care that 11 is needed next
  const auto victim = policy.PickVictim(Candidates(), hints);
  EXPECT_EQ(*victim, 11U);
}

TEST(FifoPolicyTest, PicksFirstInserted) {
  FifoPolicy policy;
  const auto victim = policy.PickVictim(Candidates(), SchedulerHints{});
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 10U);  // insert_seq 0
}

TEST(SchedulerAwarePolicyTest, PrefersSessionsWithoutQueuedJobs) {
  SchedulerAwarePolicy policy;
  SchedulerHints hints;
  hints.next_use_index[11] = 0;  // 11 is needed next: exempt
  const auto victim = policy.PickVictim(Candidates(), hints);
  ASSERT_TRUE(victim.has_value());
  // Among the unqueued (10, 12), LRU tie-break picks 12 (access 20 < 30).
  EXPECT_EQ(*victim, 12U);
}

TEST(SchedulerAwarePolicyTest, AllQueuedPicksWindowTail) {
  SchedulerAwarePolicy policy;
  SchedulerHints hints;
  hints.next_use_index[10] = 3;
  hints.next_use_index[11] = 8;  // furthest next use: the tail
  hints.next_use_index[12] = 1;
  const auto victim = policy.PickVictim(Candidates(), hints);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 11U);
}

TEST(SchedulerAwarePolicyTest, NoHintsFallsBackToLru) {
  SchedulerAwarePolicy policy;
  const auto victim = policy.PickVictim(Candidates(), SchedulerHints{});
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 11U);
}

TEST(SchedulerAwarePolicyTest, SingleCandidateAlwaysChosen) {
  SchedulerAwarePolicy policy;
  std::vector<VictimView> one = {{.session = 5, .last_access = 1, .insert_seq = 0}};
  SchedulerHints hints;
  hints.next_use_index[5] = 0;  // even though it is needed next
  const auto victim = policy.PickVictim(one, hints);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 5U);
}

TEST(PolicyFactoryTest, MakesAllPolicies) {
  EXPECT_EQ(MakeEvictionPolicy("lru")->name(), "LRU");
  EXPECT_EQ(MakeEvictionPolicy("LRU")->name(), "LRU");
  EXPECT_EQ(MakeEvictionPolicy("fifo")->name(), "FIFO");
  EXPECT_EQ(MakeEvictionPolicy("scheduler-aware")->name(), "scheduler-aware");
  EXPECT_EQ(MakeEvictionPolicy("CA")->name(), "scheduler-aware");
}

TEST(PolicyFactoryDeathTest, UnknownNameAborts) {
  EXPECT_DEATH((void)MakeEvictionPolicy("belady"), "unknown eviction policy");
  EXPECT_DEATH((void)MakeEvictionPolicy("dedup-aware"), "unknown eviction policy");
}

TEST(SchedulerHintsTest, NextUseAndWindow) {
  SchedulerHints hints;
  hints.next_use_index[7] = 4;
  EXPECT_TRUE(hints.InWindow(7));
  EXPECT_FALSE(hints.InWindow(8));
  EXPECT_EQ(hints.NextUse(7), 4U);
  EXPECT_EQ(hints.NextUse(8), SchedulerHints::kNoFutureUse);
}

// The scheduler-aware policy approximates Belady: on a synthetic access
// trace with a known future, it must achieve at least the hit rate of LRU.
TEST(SchedulerAwarePolicyTest, BeatsLruOnAdversarialTrace) {
  // Cache of 2 slots; cyclic access pattern A B C A B C... LRU hits 0%.
  // With full future knowledge the best achievable is ~1/3.
  auto run = [](EvictionPolicy& policy, bool give_hints) {
    std::vector<SessionId> cache;
    const std::vector<SessionId> trace = {0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2};
    int hits = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const SessionId s = trace[i];
      if (std::find(cache.begin(), cache.end(), s) != cache.end()) {
        ++hits;
        continue;
      }
      if (cache.size() >= 2) {
        std::vector<VictimView> cands;
        for (const SessionId c : cache) {
          cands.push_back({.session = c, .last_access = 0, .insert_seq = c});
        }
        SchedulerHints hints;
        if (give_hints) {
          for (std::size_t j = i + 1; j < trace.size(); ++j) {
            hints.next_use_index.emplace(trace[j], j - i - 1);
          }
        }
        const auto victim = policy.PickVictim(cands, hints);
        cache.erase(std::find(cache.begin(), cache.end(), victim.value()));
      }
      cache.push_back(s);
    }
    return hits;
  };

  LruPolicy lru;
  SchedulerAwarePolicy aware;
  const int lru_hits = run(lru, false);
  int aware_hits = 0;
  run(aware, true);  // warm-up call for symmetric usage (ignored)
  aware_hits = run(aware, true);
  EXPECT_GT(aware_hits, lru_hits);
}

}  // namespace
}  // namespace ca
