// Deterministic fault injection for tier storage (DESIGN.md §10).
//
// FaultInjectingBlockStorage decorates any BlockStorage and injects a
// seeded, reproducible stream of I/O faults into its one write and one read:
//   * transient failures   — kUnavailable; a retry may succeed (the store's
//     bounded-backoff retry loop exists for exactly these);
//   * permanent failures   — kIoError; retrying is pointless (dead device);
//   * fail-after-N         — every read/write from op #N on fails
//     permanently, modelling a device dying mid-run;
//   * corruption           — the operation "succeeds" but the payload is
//     damaged: torn writes flip a byte on its way from the source to the
//     device, short reads zero the tail of the bytes streamed to the sink.
//     Only the store's per-extent checksum can catch these.
//
// Determinism: all decisions come from one seeded Rng consumed in operation
// order, so a single-threaded test replays the exact same fault sequence
// for the same seed. (Under concurrency the interleaving — not the injector
// — is the source of nondeterminism.) Free and UsedBlocks never fault:
// they are metadata operations that survive a failed device.
#ifndef CA_STORE_FAULT_INJECTION_H_
#define CA_STORE_FAULT_INJECTION_H_

#include <cstdint>
#include <memory>

#include "src/common/mutex.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/store/block_storage.h"

namespace ca {

struct FaultConfig {
  std::uint64_t seed = 1;

  // Per-operation fault probabilities in [0, 1]. Checked in the order
  // permanent → transient → corrupt; at most one fault fires per op.
  double read_transient_p = 0.0;   // kUnavailable
  double write_transient_p = 0.0;  // kUnavailable
  double read_permanent_p = 0.0;   // kIoError
  double write_permanent_p = 0.0;  // kIoError
  double read_corrupt_p = 0.0;     // short read: returned tail zeroed
  double write_corrupt_p = 0.0;    // torn write: stored byte flipped

  // When > 0, operation #N and every one after it fails with kIoError
  // (device death schedules; counted across the storage's lifetime).
  std::uint64_t fail_reads_after = 0;
  std::uint64_t fail_writes_after = 0;

  // Crash-schedule switch (DESIGN.md §15). Once frozen, the injector stops
  // rolling faults and passes every operation straight through: after the
  // simulated SIGKILL the device is no longer there to fail in interesting
  // ways, and injected faults would make the in-memory store diverge from
  // the pinned on-disk state in ways a real crash cannot.
  std::shared_ptr<CrashSwitch> crash;

  bool enabled() const {
    return read_transient_p > 0 || write_transient_p > 0 || read_permanent_p > 0 ||
           write_permanent_p > 0 || read_corrupt_p > 0 || write_corrupt_p > 0 ||
           fail_reads_after > 0 || fail_writes_after > 0;
  }
};

struct FaultInjectionStats {
  std::uint64_t reads = 0;   // Read calls observed
  std::uint64_t writes = 0;  // Write calls observed
  std::uint64_t transient_faults = 0;
  std::uint64_t permanent_faults = 0;
  std::uint64_t corruptions = 0;

  std::uint64_t faults() const { return transient_faults + permanent_faults + corruptions; }
};

class FaultInjectingBlockStorage final : public BlockStorage {
 public:
  FaultInjectingBlockStorage(std::unique_ptr<BlockStorage> inner, FaultConfig config);

  Result<BlockExtent> Write(PayloadSource& source) override CA_EXCLUDES(mutex_);
  Status Read(const BlockExtent& extent, PayloadSink& sink) override CA_EXCLUDES(mutex_);
  // Never faults: adoption is a metadata operation (recovery must see the
  // allocator's true state, DESIGN.md §15).
  Status AdoptExtent(const BlockExtent& extent) override;
  void Free(BlockExtent& extent) override;
  std::uint64_t UsedBlocks() const override;
  std::uint64_t block_bytes() const override;

  FaultInjectionStats fault_stats() const CA_EXCLUDES(mutex_);

 private:
  enum class Outcome { kOk, kTransient, kPermanent, kCorrupt };

  // Draws the next outcome for a read/write; `corrupt_pos` receives the
  // deterministic corruption site when the outcome is kCorrupt.
  Outcome NextOutcome(bool is_read, std::uint64_t* corrupt_pos) CA_EXCLUDES(mutex_);

  std::unique_ptr<BlockStorage> inner_;  // unguarded: set in ctor, immutable after
  const FaultConfig config_;

  mutable Mutex mutex_{"store.FaultInjecting"};
  Rng rng_ CA_GUARDED_BY(mutex_);
  FaultInjectionStats stats_ CA_GUARDED_BY(mutex_);
};

}  // namespace ca

#endif  // CA_STORE_FAULT_INJECTION_H_
