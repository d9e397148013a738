// Block-granular payload storage for one tier.
//
// BlockStorage is the abstract interface AttentionStore drives: write a
// record's bytes across fixed-size blocks, read them back given the block
// list, free the blocks. Each tier has exactly one write and one read.
// Implementations:
//  * PooledBlockStorage — the common allocator-backed base. Write and Read
//    walk an extent's blocks once, in order, and call one per-block hook per
//    direction.
//  * MemoryBlockStorage — heap arena (the DRAM / HBM tiers). The hooks fill
//    and stream arena memory in place, no staging buffer.
//  * FileBlockStorage — one backing file (the disk tier of the
//    real-execution path). The hooks stage one block through a 4 KiB-aligned
//    buffer: the source fills it and one pwrite lands it; one pread fills it
//    and the sink consumes it. Optional O_DIRECT pads the tail block to the
//    4 KiB granule. Opened through a fallible factory (a missing backing
//    file disables the tier, it never aborts the process); ephemeral files
//    are unlinked in the destructor, persistent ones (DiskIoOptions::persist,
//    the durable disk tier of DESIGN.md §15) carry a versioned superblock
//    and survive it.
//  * FaultInjectingBlockStorage (fault_injection.h) — decorator that injects
//    deterministic I/O faults for tests and the store hammer.
//
// Streaming protocol (DESIGN.md §14): Write pulls the payload from a
// PayloadSource — successive Fill(dest) calls hand the producer destination
// windows that cover the record exactly once, in byte order, so a serializer
// writes straight into tier block memory (or the disk block buffer) instead
// of a caller-side std::vector. Read pushes the payload into a PayloadSink
// the same way. Both are restartable: the retry loop calls Reset() and
// replays the whole transfer.
//
// The simulator never attaches payload storage (capacity accounting only);
// the real-execution engine always does.
//
// Failure contract: Write/Read return Status for everything a caller can
// degrade gracefully — device errors (kIoError), transient unavailability
// (kUnavailable), malformed extents from corrupted metadata (kInternal) and
// pool exhaustion (kResourceExhausted). The KV cache is soft state, so
// AttentionStore turns any of these into a cache miss (DESIGN.md §10);
// aborting is reserved for in-process invariant violations.
//
// Thread safety: all public operations are individually thread-safe (one
// internal mutex serializes the allocator and the block I/O), so the
// asynchronous KV-save stream and IO threads may share one storage. Callers
// still coordinate *which* extents they touch: freeing an extent another
// thread is reading is a logic error the mutex cannot catch.
#ifndef CA_STORE_BLOCK_STORAGE_H_
#define CA_STORE_BLOCK_STORAGE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/store/block_allocator.h"
#include "src/store/types.h"

namespace ca {

// The blocks holding one record plus its exact byte length (the last block
// is generally partially filled).
struct BlockExtent {
  std::vector<BlockId> blocks;
  std::uint64_t byte_length = 0;

  bool empty() const { return blocks.empty(); }
};

// Sequential producer of a record's bytes (the streaming write protocol).
// The storage calls Fill with successive destination windows whose sizes
// sum to size(); the producer must fill each window completely.
class PayloadSource {
 public:
  virtual ~PayloadSource() = default;

  // Total payload bytes this source produces per pass.
  virtual std::uint64_t size() const = 0;

  // Restarts the cursor at byte 0 (bounded-retry writes replay the pass).
  virtual void Reset() = 0;

  // Produces the next dest.size() bytes into dest.
  virtual void Fill(std::span<std::uint8_t> dest) = 0;
};

// Sequential consumer of a record's bytes (the streaming read protocol).
// Chunks arrive in byte order and cover the record exactly once per pass.
// NOTE: chunks are streamed BEFORE the store's checksum verdict is known;
// a consumer must discard everything it built if the surrounding call
// returns non-OK (see AttentionStore::ReadPayloadInto).
class PayloadSink {
 public:
  virtual ~PayloadSink() = default;

  // Restarts the pass (bounded-retry reads replay the transfer).
  virtual void Reset() = 0;

  virtual void Consume(std::span<const std::uint8_t> chunk) = 0;
};

// PayloadSource over a contiguous caller buffer.
class SpanSource final : public PayloadSource {
 public:
  explicit SpanSource(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint64_t size() const override { return bytes_.size(); }
  void Reset() override { offset_ = 0; }
  void Fill(std::span<std::uint8_t> dest) override {
    std::memcpy(dest.data(), bytes_.data() + offset_, dest.size());
    offset_ += dest.size();
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

class BlockStorage {
 public:
  BlockStorage() = default;
  virtual ~BlockStorage() = default;

  BlockStorage(const BlockStorage&) = delete;
  BlockStorage& operator=(const BlockStorage&) = delete;

  // Allocates blocks and pulls the payload from `source` (see file
  // comment). On failure no blocks stay allocated, but the source may have
  // been partially consumed — retries must Reset() it.
  virtual Result<BlockExtent> Write(PayloadSource& source) = 0;

  // Streams a record into `sink`. A malformed extent (block count
  // inconsistent with byte_length, or out-of-range block ids) yields
  // kInternal, not an abort: corrupted record metadata must be handleable
  // as a miss.
  virtual Status Read(const BlockExtent& extent, PayloadSink& sink) = 0;

  // Claims the exact blocks of `extent` without touching the device
  // (recovery re-attaches extents that survived a restart; DESIGN.md §15).
  // Fails with kFailedPrecondition — claiming nothing — if any block is
  // unavailable or the extent shape is inconsistent with the pool. Backends
  // without an allocator reject every extent.
  virtual Status AdoptExtent(const BlockExtent& extent);

  // Releases a record's blocks. Pure metadata: never touches the device, so
  // it stays safe on a failed tier.
  virtual void Free(BlockExtent& extent) = 0;

  // Currently allocated block count (the invariant auditor cross-checks
  // this against the live records' extents).
  virtual std::uint64_t UsedBlocks() const = 0;

  virtual std::uint64_t block_bytes() const = 0;
};

// Allocator-backed storage base: owns the block pool and serializes all
// operations behind one mutex; concrete backends supply the block I/O.
class PooledBlockStorage : public BlockStorage {
 public:
  PooledBlockStorage(std::uint64_t capacity_bytes, std::uint64_t block_bytes)
      : allocator_(capacity_bytes, block_bytes) {}

  Result<BlockExtent> Write(PayloadSource& source) override CA_EXCLUDES(mutex_);
  Status Read(const BlockExtent& extent, PayloadSink& sink) override CA_EXCLUDES(mutex_);
  Status AdoptExtent(const BlockExtent& extent) override CA_EXCLUDES(mutex_);
  void Free(BlockExtent& extent) override CA_EXCLUDES(mutex_);
  std::uint64_t UsedBlocks() const override CA_EXCLUDES(mutex_);
  std::uint64_t block_bytes() const override CA_EXCLUDES(mutex_);

 protected:
  // Per-block hooks, invoked with mutex_ held once per block of an extent,
  // in extent order. `len` is the block's share of the record: block_bytes,
  // or less for the tail block. WriteBlock pulls exactly `len` bytes from
  // the source; ReadBlock hands exactly `len` bytes to the sink.
  virtual Status WriteBlock(BlockId block, std::uint64_t len, PayloadSource& source)
      CA_REQUIRES(mutex_) = 0;
  virtual Status ReadBlock(BlockId block, std::uint64_t len, PayloadSink& sink)
      CA_REQUIRES(mutex_) = 0;

  // Rejects extents whose shape is inconsistent with the pool (kInternal).
  Status ValidateExtent(const BlockExtent& extent) const CA_REQUIRES(mutex_);

  mutable Mutex mutex_{"store.PooledBlockStorage"};
  BlockAllocator allocator_ CA_GUARDED_BY(mutex_);
  // Medium label on io.write/io.read trace spans; concrete backends override
  // at construction (immutable afterwards).
  const char* trace_medium_ = "mem";  // unguarded: set at construction only
};

class MemoryBlockStorage final : public PooledBlockStorage {
 public:
  MemoryBlockStorage(std::uint64_t capacity_bytes, std::uint64_t block_bytes);

 protected:
  Status WriteBlock(BlockId block, std::uint64_t len, PayloadSource& source)
      CA_REQUIRES(mutex_) override;
  Status ReadBlock(BlockId block, std::uint64_t len, PayloadSink& sink)
      CA_REQUIRES(mutex_) override;

 private:
  std::uint8_t* BlockPtr(BlockId block) CA_REQUIRES(mutex_) {
    return arena_.get() + static_cast<std::uint64_t>(block) * allocator_.block_bytes();
  }

  std::unique_ptr<std::uint8_t[]> arena_ CA_GUARDED_BY(mutex_);
};

struct DiskIoOptions {
  // Open the backing file O_DIRECT and pad tail writes to the 4 KiB DMA
  // granule. Requires 4 KiB-aligned block_bytes; silently falls back to
  // buffered I/O on filesystems that reject O_DIRECT (e.g. tmpfs).
  bool direct_io = false;

  // --- durability (DESIGN.md §15) ---------------------------------------
  // Keep the backing file on destruction and stamp a versioned superblock
  // into a 4 KiB header region ahead of block 0 (all block offsets shift by
  // that region). Ephemeral stores (the default) stay headerless and are
  // unlinked in the destructor, exactly as before.
  bool persist = false;
  // Open an existing backing file instead of truncating. The superblock
  // must match (magic, format version, block_bytes, store_id) or Open fails
  // with kFailedPrecondition. Requires persist.
  bool reuse_existing = false;
  // Identity stamped into a fresh superblock / required of a reused one
  // (pairs the payload file with its metadata journal).
  std::uint64_t store_id = 0;

  // --- crash schedule (tests; DESIGN.md §15) ----------------------------
  // With a switch attached: once frozen, writes are swallowed before they
  // reach the file (the in-memory allocator and record table stay coherent
  // — recovery reconciles). When crash_after_block_writes = N > 0, device
  // block write #N is the last to reach the file, and then the switch
  // freezes. Every block is still filled from the source either way.
  std::shared_ptr<CrashSwitch> crash;
  std::uint64_t crash_after_block_writes = 0;
};

class FileBlockStorage final : public PooledBlockStorage {
 public:
  // Creates/truncates `path` (or re-opens it when io.persist &&
  // io.reuse_existing). Fails with kIoError if the file cannot be opened —
  // callers (AttentionStore) disable the tier instead of crashing — and
  // with kFailedPrecondition when a reused superblock disagrees with the
  // requested identity (wrong format version, block size, or store id).
  static Result<std::unique_ptr<FileBlockStorage>> Open(std::string path,
                                                        std::uint64_t capacity_bytes,
                                                        std::uint64_t block_bytes,
                                                        DiskIoOptions io = {});
  ~FileBlockStorage() override;

  const std::string& path() const { return path_; }
  bool direct_io() const { return direct_io_; }
  bool persist() const { return persist_; }
  std::uint64_t store_id() const { return store_id_; }

 protected:
  Status WriteBlock(BlockId block, std::uint64_t len, PayloadSource& source)
      CA_REQUIRES(mutex_) override;
  Status ReadBlock(BlockId block, std::uint64_t len, PayloadSink& sink)
      CA_REQUIRES(mutex_) override;

 private:
  struct AlignedDeleter {
    void operator()(std::uint8_t* p) const;
  };
  using AlignedBuffer = std::unique_ptr<std::uint8_t[], AlignedDeleter>;

  FileBlockStorage(std::string path, int fd, std::uint64_t capacity_bytes,
                   std::uint64_t block_bytes, bool direct, AlignedBuffer buffer,
                   const DiskIoOptions& io);

  // File offset of `block` (past the superblock region when persistent).
  std::uint64_t BlockOffset(BlockId block) const CA_REQUIRES(mutex_);

  const std::string path_;          // immutable after construction
  const int fd_;                    // immutable after construction
  const bool direct_io_;            // immutable after construction
  const bool persist_;              // immutable after construction
  const std::uint64_t data_offset_; // immutable: superblock region (0 when ephemeral)
  const std::uint64_t store_id_;    // immutable after construction

  // Crash schedule (tests; see DiskIoOptions). The switch itself is atomic;
  // the write counter is only touched under mutex_.
  const std::shared_ptr<CrashSwitch> crash_;  // immutable after construction
  const std::uint64_t crash_after_block_writes_;  // immutable after construction
  std::uint64_t crash_blocks_written_ CA_GUARDED_BY(mutex_) = 0;

  // One block, rounded up to the 4 KiB O_DIRECT granule and 4 KiB-aligned:
  // every block write and read stages through it.
  AlignedBuffer block_buf_ CA_GUARDED_BY(mutex_);
};

}  // namespace ca

#endif  // CA_STORE_BLOCK_STORAGE_H_
