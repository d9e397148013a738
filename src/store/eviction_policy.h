// Eviction policies for AttentionStore (§3.3.2).
//
// The scheduler-aware policy uses the job queue's look-ahead window: sessions
// with no visible future use are preferred victims (LRU among them as a
// tie-break); if every candidate has a queued job, the one whose next use is
// furthest away (the window tail) is chosen — Belady's rule restricted to
// the visible queue. LRU and FIFO are the paper's baselines.
#ifndef CA_STORE_EVICTION_POLICY_H_
#define CA_STORE_EVICTION_POLICY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "src/common/units.h"
#include "src/store/types.h"

namespace ca {

// Per-candidate metadata a policy may consult.
struct VictimView {
  SessionId session = kInvalidSession;
  SimTime last_access = 0;
  std::uint64_t insert_seq = 0;  // monotonically increasing insertion counter
};

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  virtual std::string_view name() const = 0;

  // Picks a victim among `candidates` (non-empty). Returns nullopt only if
  // the policy declines every candidate (scheduler-aware policy never
  // declines; the exemption rule is expressed as preference ordering, since
  // when the whole window is resident *something* must still go — the paper
  // evicts the tail item in that case).
  virtual std::optional<SessionId> PickVictim(std::span<const VictimView> candidates,
                                              const SchedulerHints& hints) = 0;
};

class LruPolicy final : public EvictionPolicy {
 public:
  std::string_view name() const override { return "LRU"; }
  std::optional<SessionId> PickVictim(std::span<const VictimView> candidates,
                                      const SchedulerHints& hints) override;
};

class FifoPolicy final : public EvictionPolicy {
 public:
  std::string_view name() const override { return "FIFO"; }
  std::optional<SessionId> PickVictim(std::span<const VictimView> candidates,
                                      const SchedulerHints& hints) override;
};

class SchedulerAwarePolicy final : public EvictionPolicy {
 public:
  std::string_view name() const override { return "scheduler-aware"; }
  std::optional<SessionId> PickVictim(std::span<const VictimView> candidates,
                                      const SchedulerHints& hints) override;
};

// Factory by name ("lru", "fifo", "scheduler-aware").
std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(std::string_view name);

}  // namespace ca

#endif  // CA_STORE_EVICTION_POLICY_H_
