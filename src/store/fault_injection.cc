#include "src/store/fault_injection.h"

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace ca {

FaultInjectingBlockStorage::FaultInjectingBlockStorage(std::unique_ptr<BlockStorage> inner,
                                                       FaultConfig config)
    : inner_(std::move(inner)), config_(config), rng_(config.seed) {
  CA_CHECK(inner_ != nullptr);
}

FaultInjectingBlockStorage::Outcome FaultInjectingBlockStorage::NextOutcome(
    bool is_read, std::uint64_t* corrupt_pos) {
  MutexLock lock(mutex_);
  std::uint64_t& ops = is_read ? stats_.reads : stats_.writes;
  ++ops;
  if (config_.crash != nullptr && config_.crash->frozen.load(std::memory_order_relaxed)) {
    // Post-crash: pass through without rolling faults (see FaultConfig::crash).
    *corrupt_pos = 0;
    return Outcome::kOk;
  }
  const std::uint64_t fail_after = is_read ? config_.fail_reads_after : config_.fail_writes_after;
  // The rng is consumed in a fixed per-op order (permanent, transient,
  // corrupt, position) regardless of which draw fires, so the fault stream
  // of op N never depends on the outcomes of ops before it.
  const bool permanent =
      rng_.NextBool(is_read ? config_.read_permanent_p : config_.write_permanent_p);
  const bool transient =
      rng_.NextBool(is_read ? config_.read_transient_p : config_.write_transient_p);
  const bool corrupt = rng_.NextBool(is_read ? config_.read_corrupt_p : config_.write_corrupt_p);
  *corrupt_pos = rng_.NextU64();
  if ((fail_after > 0 && ops >= fail_after) || permanent) {
    ++stats_.permanent_faults;
    return Outcome::kPermanent;
  }
  if (transient) {
    ++stats_.transient_faults;
    return Outcome::kTransient;
  }
  if (corrupt) {
    ++stats_.corruptions;
    return Outcome::kCorrupt;
  }
  return Outcome::kOk;
}

namespace {

// Flips one byte of the stream as it passes from the producer to the device.
// Wrapping *outside* the store's hashing source means the recorded checksum
// covers the clean bytes while the device holds the damaged ones — exactly
// what a torn DMA write looks like to the read path.
class CorruptingSource final : public PayloadSource {
 public:
  CorruptingSource(PayloadSource& inner, std::uint64_t corrupt_pos)
      : inner_(inner), target_(corrupt_pos % inner.size()) {}

  std::uint64_t size() const override { return inner_.size(); }
  void Reset() override {
    inner_.Reset();
    offset_ = 0;
  }
  void Fill(std::span<std::uint8_t> dest) override {
    inner_.Fill(dest);
    if (target_ >= offset_ && target_ < offset_ + dest.size()) {
      dest[target_ - offset_] ^= 0xFF;
    }
    offset_ += dest.size();
  }

 private:
  PayloadSource& inner_;
  const std::uint64_t target_;
  std::uint64_t offset_ = 0;
};

// Short read: every byte from the fault position on is lost on its way to
// the sink, and the first lost byte is flipped too, so a zero-filled payload
// still differs. Damaged chunks are copied out: the device's bytes stay
// intact, only this read sees the damage.
class ShortReadSink final : public PayloadSink {
 public:
  ShortReadSink(PayloadSink& inner, std::uint64_t from) : inner_(inner), from_(from) {}

  void Reset() override {
    inner_.Reset();
    offset_ = 0;
  }
  void Consume(std::span<const std::uint8_t> chunk) override {
    const std::uint64_t begin = offset_;
    offset_ += chunk.size();
    if (offset_ <= from_) {
      inner_.Consume(chunk);
      return;
    }
    damaged_.assign(chunk.begin(), chunk.end());
    const std::uint64_t kept = from_ > begin ? from_ - begin : 0;
    std::fill(damaged_.begin() + static_cast<std::ptrdiff_t>(kept), damaged_.end(), 0);
    if (from_ >= begin) {
      damaged_[kept] ^= 0xFF;
    }
    inner_.Consume(damaged_);
  }

 private:
  PayloadSink& inner_;
  const std::uint64_t from_;
  std::uint64_t offset_ = 0;
  std::vector<std::uint8_t> damaged_;
};

}  // namespace

Result<BlockExtent> FaultInjectingBlockStorage::Write(PayloadSource& source) {
  std::uint64_t corrupt_pos = 0;
  switch (NextOutcome(/*is_read=*/false, &corrupt_pos)) {
    case Outcome::kPermanent:
      return IoError("injected permanent write fault");
    case Outcome::kTransient:
      return UnavailableError("injected transient write fault");
    case Outcome::kCorrupt: {
      if (source.size() == 0) {
        return inner_->Write(source);
      }
      CorruptingSource torn(source, corrupt_pos);
      return inner_->Write(torn);
    }
    case Outcome::kOk:
      break;
  }
  return inner_->Write(source);
}

Status FaultInjectingBlockStorage::Read(const BlockExtent& extent, PayloadSink& sink) {
  std::uint64_t corrupt_pos = 0;
  switch (NextOutcome(/*is_read=*/true, &corrupt_pos)) {
    case Outcome::kPermanent:
      return IoError("injected permanent read fault");
    case Outcome::kTransient:
      return UnavailableError("injected transient read fault");
    case Outcome::kCorrupt: {
      if (extent.byte_length == 0) {
        return inner_->Read(extent, sink);
      }
      ShortReadSink damaged(sink, corrupt_pos % extent.byte_length);
      return inner_->Read(extent, damaged);
    }
    case Outcome::kOk:
      break;
  }
  return inner_->Read(extent, sink);
}

Status FaultInjectingBlockStorage::AdoptExtent(const BlockExtent& extent) {
  return inner_->AdoptExtent(extent);
}

void FaultInjectingBlockStorage::Free(BlockExtent& extent) { inner_->Free(extent); }

std::uint64_t FaultInjectingBlockStorage::UsedBlocks() const { return inner_->UsedBlocks(); }

std::uint64_t FaultInjectingBlockStorage::block_bytes() const { return inner_->block_bytes(); }

FaultInjectionStats FaultInjectingBlockStorage::fault_stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace ca
