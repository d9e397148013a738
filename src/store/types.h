// Shared vocabulary types for AttentionStore.
#ifndef CA_STORE_TYPES_H_
#define CA_STORE_TYPES_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/units.h"

namespace ca {

// Shared kill-switch for crash-schedule fault injection (DESIGN.md §15).
// Test-only: when a seeded schedule fires, `frozen` flips to true and every
// layer holding the switch (metadata journal, payload device) silently stops
// letting bytes reach its file — the in-memory store keeps running, but the
// on-disk state is pinned at the instant of the simulated SIGKILL.
// Abandoning the store object and re-Open()ing the same paths is then
// equivalent to a real kill-restart, minus the process churn (so the
// kill-restart tests run in-process under ASan/TSan with no leaks).
struct CrashSwitch {
  std::atomic<bool> frozen{false};
};

using SessionId = std::uint64_t;
inline constexpr SessionId kInvalidSession = std::numeric_limits<SessionId>::max();

// Storage hierarchy, fastest first. kNone means "not cached anywhere".
enum class Tier : std::uint8_t { kHbm = 0, kDram = 1, kDisk = 2, kNone = 3 };

inline constexpr std::size_t kNumTiers = 3;

std::string_view TierName(Tier tier);

// Per-tier health (DESIGN.md §10). A tier degrades on any I/O fault and
// recovers on the next clean operation; repeated *permanent* faults
// quarantine it — the tier leaves placement for the rest of the process
// lifetime and its records are dropped (each one a future miss, never an
// error). A tier whose backing storage cannot even be created starts out
// quarantined.
enum class TierHealth : std::uint8_t { kHealthy = 0, kDegraded = 1, kQuarantined = 2 };

std::string_view TierHealthName(TierHealth health);

// Scheduler hints: for each session with a waiting job, the queue position
// of its *next* use. Sessions absent from the map have no visible future
// use (the scheduler-aware policies treat them as the best eviction
// candidates, mirroring Belady within the look-ahead window).
struct SchedulerHints {
  std::unordered_map<SessionId, std::size_t> next_use_index;

  static constexpr std::size_t kNoFutureUse = std::numeric_limits<std::size_t>::max();

  std::size_t NextUse(SessionId session) const {
    const auto it = next_use_index.find(session);
    return it == next_use_index.end() ? kNoFutureUse : it->second;
  }
  bool InWindow(SessionId session) const {
    return next_use_index.find(session) != next_use_index.end();
  }
};

// Aggregate store statistics. A "lookup" is one per conversation turn; hits
// split by the tier the KV cache was found in (§4.3.3 reports DRAM vs disk
// hit rates separately).
struct StoreStats {
  std::uint64_t lookups = 0;
  std::uint64_t hbm_hits = 0;
  std::uint64_t dram_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;

  std::uint64_t inserts = 0;
  std::uint64_t updates = 0;
  std::uint64_t exports = 0;         // records serialized for migration
  std::uint64_t imports = 0;         // migrated records installed
  std::uint64_t demotions = 0;       // moved to a slower tier
  std::uint64_t promotions = 0;      // prefetched to a faster tier
  std::uint64_t evictions_out = 0;   // dropped from the system entirely
  std::uint64_t ttl_expirations = 0;

  std::uint64_t bytes_demoted = 0;
  std::uint64_t bytes_promoted = 0;

  // --- fault tolerance (DESIGN.md §10) ---------------------------------
  // Every injected or real I/O fault must be visible here: degradation is
  // only acceptable when it is observable.
  std::uint64_t io_retries = 0;          // transient errors retried with backoff
  std::uint64_t transient_io_faults = 0; // ops still failing after all retries
  std::uint64_t permanent_io_faults = 0; // non-retryable I/O failures (incl. checksum)
  std::uint64_t corrupt_payloads = 0;    // checksum mismatches detected on read
  std::uint64_t failed_puts = 0;         // Put tier-writes that failed (per tier tried)
  std::uint64_t failed_reads = 0;        // payload reads degraded to a miss
  std::uint64_t failed_moves = 0;        // promotions/demotions that failed & rolled back
  std::uint64_t fault_evictions = 0;     // records dropped because of faults
  std::uint64_t tiers_quarantined = 0;   // health transitions into kQuarantined
  std::uint64_t tiers_disabled = 0;      // tiers unusable from construction

  std::uint64_t io_faults() const { return transient_io_faults + permanent_io_faults; }

  // --- cross-session prefix sharing (DESIGN.md §17) --------------------
  std::uint64_t shared_puts = 0;        // Puts placed through the prefix index
  std::uint64_t prefix_lookups = 0;     // chunk-boundary prefix-index probes
  std::uint64_t prefix_hits = 0;        // probes that matched an existing chunk
  std::uint64_t chunks_created = 0;     // new shared chunk records written
  std::uint64_t chunks_freed = 0;       // chunk records freed at refcount zero
  std::uint64_t shared_bytes_saved = 0; // payload bytes deduplicated (not written)
  std::uint64_t access_checkpoints = 0; // coarse last_access frames journaled

  double prefix_hit_rate() const {
    return prefix_lookups == 0
               ? 0.0
               : static_cast<double>(prefix_hits) / static_cast<double>(prefix_lookups);
  }

  // --- per-tier I/O throughput (DESIGN.md §14) --------------------------
  // Wall time is accumulated per successful transfer *including* its retry
  // backoffs, so the derived rate is the effective bandwidth the engine
  // actually observed, not the device's best case.
  struct TierIo {
    std::uint64_t write_bytes = 0;
    std::uint64_t write_ns = 0;
    std::uint64_t read_bytes = 0;
    std::uint64_t read_ns = 0;

    double write_bytes_per_sec() const {
      return write_ns == 0 ? 0.0
                           : static_cast<double>(write_bytes) * 1e9 / static_cast<double>(write_ns);
    }
    double read_bytes_per_sec() const {
      return read_ns == 0 ? 0.0
                          : static_cast<double>(read_bytes) * 1e9 / static_cast<double>(read_ns);
    }
  };
  std::array<TierIo, kNumTiers> tier_io = {};

  std::uint64_t hits() const { return hbm_hits + dram_hits + disk_hits; }
  double hit_rate() const {
    return lookups == 0 ? 0.0 : static_cast<double>(hits()) / static_cast<double>(lookups);
  }
  double dram_hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hbm_hits + dram_hits) / static_cast<double>(lookups);
  }
  double disk_hit_rate() const {
    return lookups == 0 ? 0.0 : static_cast<double>(disk_hits) / static_cast<double>(lookups);
  }
};

}  // namespace ca

#endif  // CA_STORE_TYPES_H_
