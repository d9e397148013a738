// AttentionStore walkthrough: drive the hierarchical KV cache store
// directly and watch placement, demotion, scheduler-aware eviction and
// prefetch planning.
//
//   ./build/examples/store_inspector
#include <cstdio>

#include "src/common/check.h"
#include "src/store/attention_store.h"
#include "src/store/prefetcher.h"

namespace {

void Dump(const ca::AttentionStore& store) {
  using namespace ca;
  for (const Tier tier : {Tier::kDram, Tier::kDisk}) {
    std::printf("  %-4s %8s / %-8s :", std::string(TierName(tier)).c_str(),
                FormatBytes(store.UsedBytes(tier)).c_str(),
                FormatBytes(store.CapacityBytes(tier)).c_str());
    for (const SessionId s : store.SessionsInTier(tier)) {
      std::printf(" s%llu", static_cast<unsigned long long>(s));
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  using namespace ca;

  // A deliberately tiny hierarchy: 3 DRAM blocks over 6 disk blocks.
  StoreConfig config;
  config.dram_capacity = MiB(12);
  config.disk_capacity = MiB(24);
  config.block_bytes = MiB(4);
  config.eviction_policy = "scheduler-aware";
  AttentionStore store(config);
  const SchedulerHints no_hints;

  std::printf("1. Three sessions' KV caches fill DRAM:\n");
  for (SessionId s = 1; s <= 3; ++s) {
    CA_CHECK_OK(store.Put(s, MiB(4), 1000, static_cast<SimTime>(s), no_hints));
  }
  Dump(store);

  std::printf("\n2. A fourth session arrives; the LRU victim (s1) is demoted to disk:\n");
  CA_CHECK_OK(store.Put(4, MiB(4), 1000, 4, no_hints));
  Dump(store);

  std::printf("\n3. Same situation, but the job queue says s2 is needed next, so the\n"
              "   scheduler-aware policy demotes s3 instead (look-ahead exemption):\n");
  SchedulerHints hints;
  hints.next_use_index[2] = 0;  // s2's next job is at the queue head
  hints.next_use_index[4] = 1;
  hints.next_use_index[5] = 2;
  CA_CHECK_OK(store.Put(5, MiB(4), 1000, 5, hints));
  Dump(store);

  std::printf("\n4. The prefetcher plans disk->DRAM fetches for upcoming jobs\n"
              "   (look-ahead window L_pw = free DRAM / avg session KV):\n");
  Prefetcher prefetcher(&store);
  store.Remove(5);  // make a little room so the window is non-empty
  const std::vector<SessionId> upcoming = {1, 3, 2};
  const PrefetchPlan plan = prefetcher.Plan(upcoming, MiB(4));
  std::printf("  window length %zu; planned fetches:", plan.window_len);
  for (const SessionId s : plan.to_fetch) {
    std::printf(" s%llu", static_cast<unsigned long long>(s));
  }
  std::printf("\n");
  prefetcher.Execute(plan, 6, hints);
  Dump(store);

  std::printf("\n5. Store statistics:\n");
  const StoreStats& stats = store.stats();
  std::printf("  inserts %llu, updates %llu, demotions %llu, promotions %llu, "
              "evicted out %llu\n",
              static_cast<unsigned long long>(stats.inserts),
              static_cast<unsigned long long>(stats.updates),
              static_cast<unsigned long long>(stats.demotions),
              static_cast<unsigned long long>(stats.promotions),
              static_cast<unsigned long long>(stats.evictions_out));
  return 0;
}
