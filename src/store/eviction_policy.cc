#include "src/store/eviction_policy.h"

#include "src/common/check.h"

namespace ca {

std::optional<SessionId> LruPolicy::PickVictim(std::span<const VictimView> candidates,
                                               const SchedulerHints& hints) {
  (void)hints;  // history-only policy
  CA_CHECK(!candidates.empty());
  const VictimView* best = &candidates[0];
  for (const auto& c : candidates) {
    if (c.last_access < best->last_access) {
      best = &c;
    }
  }
  return best->session;
}

std::optional<SessionId> FifoPolicy::PickVictim(std::span<const VictimView> candidates,
                                                const SchedulerHints& hints) {
  (void)hints;  // history-only policy
  CA_CHECK(!candidates.empty());
  const VictimView* best = &candidates[0];
  for (const auto& c : candidates) {
    if (c.insert_seq < best->insert_seq) {
      best = &c;
    }
  }
  return best->session;
}

std::optional<SessionId> SchedulerAwarePolicy::PickVictim(std::span<const VictimView> candidates,
                                                          const SchedulerHints& hints) {
  CA_CHECK(!candidates.empty());
  // Pass 1: sessions with no queued job — LRU among them.
  const VictimView* best_unqueued = nullptr;
  for (const auto& c : candidates) {
    if (hints.InWindow(c.session)) {
      continue;
    }
    if (best_unqueued == nullptr || c.last_access < best_unqueued->last_access) {
      best_unqueued = &c;
    }
  }
  if (best_unqueued != nullptr) {
    return best_unqueued->session;
  }
  // Pass 2: everything is in the window; evict the tail (furthest next use).
  const VictimView* tail = &candidates[0];
  std::size_t tail_use = hints.NextUse(tail->session);
  for (const auto& c : candidates) {
    const std::size_t use = hints.NextUse(c.session);
    if (use > tail_use) {
      tail = &c;
      tail_use = use;
    }
  }
  return tail->session;
}

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(std::string_view name) {
  if (name == "lru" || name == "LRU") {
    return std::make_unique<LruPolicy>();
  }
  if (name == "fifo" || name == "FIFO") {
    return std::make_unique<FifoPolicy>();
  }
  if (name == "scheduler-aware" || name == "CA") {
    return std::make_unique<SchedulerAwarePolicy>();
  }
  CA_CHECK(false) << "unknown eviction policy: " << name;
  return nullptr;
}

}  // namespace ca
