#include "src/store/block_storage.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "src/common/hash.h"
#include "src/obs/trace.h"

namespace ca {

namespace {

// O_DIRECT DMA granule: offsets, lengths and buffer addresses must be
// multiples of this (4 KiB covers every modern logical block size).
constexpr std::uint64_t kDirectAlign = 4096;

constexpr std::uint64_t RoundUpDirect(std::uint64_t n) {
  return (n + kDirectAlign - 1) / kDirectAlign * kDirectAlign;
}

// Persistent-mode superblock (DESIGN.md §15): one O_DIRECT-sized header
// region ahead of block 0. Fields are stored host-endian — the journal and
// payload file are a local pair, never shipped across architectures.
constexpr std::uint64_t kSuperblockBytes = kDirectAlign;
constexpr std::uint32_t kPayloadMagic = 0x50424143;  // "CABP"
constexpr std::uint32_t kPayloadVersion = 1;
// Byte layout: [0] magic u32, [4] version u32, [8] block_bytes u64,
// [16] capacity_bytes u64, [24] store_id u64, [32] Fnv1a64 over [0,32).
constexpr std::uint64_t kSuperblockPayloadBytes = 32;

void PutU32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, sizeof v); }
void PutU64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, sizeof v); }
std::uint32_t GetU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}
std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

Status BlockStorage::AdoptExtent(const BlockExtent& extent) {
  (void)extent;
  return FailedPreconditionError("this storage backend cannot adopt extents");
}

Result<BlockExtent> PooledBlockStorage::Write(PayloadSource& source) {
  const std::uint64_t byte_length = source.size();
  CA_TRACE_SPAN("io.write", "medium", trace_medium_, "bytes", byte_length);
  MutexLock lock(mutex_);
  CA_ASSIGN_OR_RETURN(std::vector<BlockId> blocks,
                      allocator_.Allocate(allocator_.BlocksFor(byte_length)));
  const std::uint64_t block_bytes = allocator_.block_bytes();
  std::uint64_t off = 0;
  for (const BlockId block : blocks) {
    const std::uint64_t len = std::min(block_bytes, byte_length - off);
    const Status s = WriteBlock(block, len, source);
    if (!s.ok()) {
      allocator_.Free(blocks);
      return s;
    }
    off += len;
  }
  return BlockExtent{.blocks = std::move(blocks), .byte_length = byte_length};
}

Status PooledBlockStorage::Read(const BlockExtent& extent, PayloadSink& sink) {
  CA_TRACE_SPAN("io.read", "medium", trace_medium_, "bytes", extent.byte_length);
  MutexLock lock(mutex_);
  CA_RETURN_IF_ERROR(ValidateExtent(extent));
  const std::uint64_t block_bytes = allocator_.block_bytes();
  std::uint64_t off = 0;
  for (const BlockId block : extent.blocks) {
    const std::uint64_t len = std::min(block_bytes, extent.byte_length - off);
    CA_RETURN_IF_ERROR(ReadBlock(block, len, sink));
    off += len;
  }
  return Status::Ok();
}

Status PooledBlockStorage::ValidateExtent(const BlockExtent& extent) const {
  // A corrupted record can hand us an extent whose shape no longer matches
  // its byte length; that must surface as a handleable error (the store
  // degrades it to a miss), never as an abort or an out-of-bounds block read.
  if (allocator_.BlocksFor(extent.byte_length) != extent.blocks.size()) {
    return InternalError("malformed extent: " + std::to_string(extent.blocks.size()) +
                         " blocks cannot hold " + std::to_string(extent.byte_length) + " bytes");
  }
  for (const BlockId block : extent.blocks) {
    if (block >= allocator_.total_blocks()) {
      return InternalError("malformed extent: block " + std::to_string(block) +
                           " out of range (pool has " +
                           std::to_string(allocator_.total_blocks()) + ")");
    }
  }
  return Status::Ok();
}

Status PooledBlockStorage::AdoptExtent(const BlockExtent& extent) {
  MutexLock lock(mutex_);
  CA_RETURN_IF_ERROR(ValidateExtent(extent));
  return allocator_.AllocateSpecific(extent.blocks);
}

void PooledBlockStorage::Free(BlockExtent& extent) {
  MutexLock lock(mutex_);
  allocator_.Free(extent.blocks);
  extent.blocks.clear();
  extent.byte_length = 0;
}

std::uint64_t PooledBlockStorage::UsedBlocks() const {
  MutexLock lock(mutex_);
  return allocator_.used_blocks();
}

std::uint64_t PooledBlockStorage::block_bytes() const {
  MutexLock lock(mutex_);
  return allocator_.block_bytes();
}

MemoryBlockStorage::MemoryBlockStorage(std::uint64_t capacity_bytes, std::uint64_t block_bytes)
    : PooledBlockStorage(capacity_bytes, block_bytes),
      // Left uninitialised: every read covers bytes a write filled (an
      // extent's first byte_length bytes), so memory never written is never
      // read, and a tier's untouched capacity costs no resident memory.
      arena_(std::make_unique_for_overwrite<std::uint8_t[]>(allocator_.capacity_bytes())) {}

Status MemoryBlockStorage::WriteBlock(BlockId block, std::uint64_t len, PayloadSource& source) {
  // The producer serializes straight into arena memory.
  source.Fill(std::span<std::uint8_t>(BlockPtr(block), len));
  return Status::Ok();
}

Status MemoryBlockStorage::ReadBlock(BlockId block, std::uint64_t len, PayloadSink& sink) {
  // The consumer sees the arena span directly.
  sink.Consume(std::span<const std::uint8_t>(BlockPtr(block), len));
  return Status::Ok();
}

void FileBlockStorage::AlignedDeleter::operator()(std::uint8_t* p) const {
  std::free(p);  // NOLINT(cppcoreguidelines-owning-memory): posix_memalign pair
}

Result<std::unique_ptr<FileBlockStorage>> FileBlockStorage::Open(std::string path,
                                                                 std::uint64_t capacity_bytes,
                                                                 std::uint64_t block_bytes,
                                                                 DiskIoOptions io) {
  // The block buffer doubles as the superblock's O_DIRECT-compatible
  // staging area, so it is at least one granule.
  void* raw = nullptr;
  const std::uint64_t buf_bytes = std::max(RoundUpDirect(block_bytes), kSuperblockBytes);
  if (::posix_memalign(&raw, kDirectAlign, buf_bytes) != 0) {
    return ResourceExhaustedError("cannot allocate " + std::to_string(buf_bytes) +
                                  " aligned block buffer bytes");
  }
  AlignedBuffer buffer(static_cast<std::uint8_t*>(raw));
  bool direct = io.direct_io && block_bytes % kDirectAlign == 0;
  const bool reuse = io.persist && io.reuse_existing;
  int flags = O_RDWR | O_CREAT;
  if (!reuse) {
    flags |= O_TRUNC;
  }
  int fd = -1;
  if (direct) {
    fd = ::open(path.c_str(), flags | O_DIRECT, 0644);
    if (fd < 0) {
      direct = false;  // tmpfs & friends reject O_DIRECT: fall back to buffered
    }
  }
  if (fd < 0) {
    fd = ::open(path.c_str(), flags, 0644);
  }
  if (fd < 0) {
    return IoError("cannot open " + path + ": " + std::strerror(errno));
  }

  if (io.persist) {
    std::uint8_t* const sb = buffer.get();
    const auto fail = [&](Status status) {
      ::close(fd);
      return status;
    };
    if (reuse) {
      std::size_t got = 0;
      while (got < kSuperblockBytes) {
        const ssize_t n =
            ::pread(fd, sb + got, kSuperblockBytes - got, static_cast<off_t>(got));
        if (n < 0) {
          return fail(IoError(path + ": superblock read: " + std::strerror(errno)));
        }
        if (n == 0) {
          return fail(FailedPreconditionError(
              path + ": payload file has no superblock (truncated or never created); "
                     "remove the metadata journal to start fresh"));
        }
        got += static_cast<std::size_t>(n);
      }
      const std::span<const std::uint8_t> head(sb, kSuperblockPayloadBytes);
      if (Fnv1a64(head) != GetU64(sb + 32)) {
        return fail(FailedPreconditionError(path + ": payload superblock corrupt"));
      }
      if (GetU32(sb) != kPayloadMagic) {
        return fail(FailedPreconditionError(path + ": not a payload file (bad magic)"));
      }
      if (GetU32(sb + 4) != kPayloadVersion) {
        return fail(FailedPreconditionError(
            path + ": payload format version " + std::to_string(GetU32(sb + 4)) +
            ", this build expects " + std::to_string(kPayloadVersion)));
      }
      if (GetU64(sb + 8) != block_bytes) {
        return fail(FailedPreconditionError(
            path + ": payload written with block_bytes=" + std::to_string(GetU64(sb + 8)) +
            ", store configured with " + std::to_string(block_bytes)));
      }
      if (GetU64(sb + 24) != io.store_id) {
        return fail(FailedPreconditionError(
            path + ": payload store id does not match the metadata journal "
                   "(the pair was not created together)"));
      }
      // Stored capacity_bytes is informational: a shrunk pool simply makes
      // out-of-range recovered extents reconcile to clean misses.
    } else {
      std::memset(sb, 0, kSuperblockBytes);
      PutU32(sb, kPayloadMagic);
      PutU32(sb + 4, kPayloadVersion);
      PutU64(sb + 8, block_bytes);
      PutU64(sb + 16, capacity_bytes);
      PutU64(sb + 24, io.store_id);
      PutU64(sb + 32, Fnv1a64(std::span<const std::uint8_t>(sb, kSuperblockPayloadBytes)));
      std::size_t written = 0;
      while (written < kSuperblockBytes) {
        const ssize_t n = ::pwrite(fd, sb + written, kSuperblockBytes - written,
                                   static_cast<off_t>(written));
        if (n < 0) {
          return fail(IoError(path + ": superblock write: " + std::strerror(errno)));
        }
        written += static_cast<std::size_t>(n);
      }
      if (::fdatasync(fd) != 0) {
        return fail(IoError(path + ": superblock fdatasync: " + std::strerror(errno)));
      }
    }
  }

  return std::unique_ptr<FileBlockStorage>(
      // NOLINT(naked-new, cppcoreguidelines-owning-memory, modernize-make-unique): private ctor
      new FileBlockStorage(std::move(path), fd, capacity_bytes, block_bytes,  // NOLINT(naked-new)
                           direct, std::move(buffer), io));
}

FileBlockStorage::FileBlockStorage(std::string path, int fd, std::uint64_t capacity_bytes,
                                   std::uint64_t block_bytes, bool direct, AlignedBuffer buffer,
                                   const DiskIoOptions& io)
    : PooledBlockStorage(capacity_bytes, block_bytes),
      path_(std::move(path)),
      fd_(fd),
      direct_io_(direct),
      persist_(io.persist),
      data_offset_(io.persist ? kSuperblockBytes : 0),
      store_id_(io.store_id),
      crash_(io.crash),
      crash_after_block_writes_(io.crash_after_block_writes),
      block_buf_(std::move(buffer)) {
  trace_medium_ = "disk";
}

FileBlockStorage::~FileBlockStorage() {
  if (fd_ >= 0) {
    ::close(fd_);
    if (!persist_) {
      ::unlink(path_.c_str());
    }
  }
}

std::uint64_t FileBlockStorage::BlockOffset(BlockId block) const {
  return data_offset_ + static_cast<std::uint64_t>(block) * allocator_.block_bytes();
}

Status FileBlockStorage::WriteBlock(BlockId block, std::uint64_t len, PayloadSource& source) {
  // Fill first, whatever the crash schedule says: a hashing source folds the
  // record checksum in as it fills, so it must always see the whole payload.
  std::uint8_t* const buf = block_buf_.get();
  source.Fill(std::span<std::uint8_t>(buf, len));
  // O_DIRECT moves whole granules: zero the tail block's pad.
  const std::uint64_t io_bytes = direct_io_ ? RoundUpDirect(len) : len;
  std::memset(buf + len, 0, io_bytes - len);
  if (crash_ != nullptr) {
    if (crash_->frozen.load(std::memory_order_relaxed)) {
      return Status::Ok();  // post-crash: the bytes never reach the device
    }
    if (crash_after_block_writes_ > 0 && ++crash_blocks_written_ >= crash_after_block_writes_) {
      // Simulated SIGKILL: this block write is the last to reach the file.
      crash_->frozen.store(true, std::memory_order_relaxed);
    }
  }
  const auto offset = static_cast<off_t>(BlockOffset(block));
  std::uint64_t written = 0;
  while (written < io_bytes) {
    const ssize_t n = ::pwrite(fd_, buf + written, io_bytes - written,
                               offset + static_cast<off_t>(written));
    if (n < 0) {
      return IoError(std::string("pwrite: ") + std::strerror(errno));
    }
    written += static_cast<std::uint64_t>(n);
  }
  return Status::Ok();
}

Status FileBlockStorage::ReadBlock(BlockId block, std::uint64_t len, PayloadSink& sink) {
  std::uint8_t* const buf = block_buf_.get();
  const std::uint64_t io_bytes = direct_io_ ? RoundUpDirect(len) : len;
  const auto offset = static_cast<off_t>(BlockOffset(block));
  // Stop once the record's bytes are in: an O_DIRECT request is rounded up
  // to the granule, and a tail block written through buffered I/O may end
  // the file short of it.
  std::uint64_t got = 0;
  while (got < len) {
    const ssize_t n = ::pread(fd_, buf + got, io_bytes - got, offset + static_cast<off_t>(got));
    if (n < 0) {
      return IoError(std::string("pread: ") + std::strerror(errno));
    }
    if (n == 0) {
      return IoError("pread: unexpected EOF");
    }
    got += static_cast<std::uint64_t>(n);
  }
  sink.Consume(std::span<const std::uint8_t>(buf, len));
  return Status::Ok();
}

}  // namespace ca
