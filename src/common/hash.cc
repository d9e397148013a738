#include "src/common/hash.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CA_HASH_X86 1
#include <immintrin.h>
#endif

namespace ca {

namespace {

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;
// Lane seed spreader (golden-ratio odd constant) so permuting lane contents
// changes the digest even for symmetric inputs.
constexpr std::uint64_t kLaneSeed = 0x9E3779B97F4A7C15ULL;

inline std::uint64_t LoadU64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// Bulk kernel: fold `n_groups` 64-byte groups at `p` into the 8 lanes.
using GroupKernel = void (*)(const std::uint8_t* p, std::size_t n_groups, std::uint64_t* lanes);

// Portable kernel. The eight xor-multiply chains are independent, so the
// compiler keeps all accumulators in registers and the 3-cycle multiplies
// pipeline across lanes instead of serializing like byte-wise FNV-1a.
void FoldGroupsScalar(const std::uint8_t* p, std::size_t n_groups, std::uint64_t* lanes) {
  std::uint64_t l0 = lanes[0], l1 = lanes[1], l2 = lanes[2], l3 = lanes[3];
  std::uint64_t l4 = lanes[4], l5 = lanes[5], l6 = lanes[6], l7 = lanes[7];
  for (std::size_t g = 0; g < n_groups; ++g, p += ChunkedHash64::kGroupBytes) {
    l0 = (l0 ^ LoadU64(p + 0)) * kFnvPrime;
    l1 = (l1 ^ LoadU64(p + 8)) * kFnvPrime;
    l2 = (l2 ^ LoadU64(p + 16)) * kFnvPrime;
    l3 = (l3 ^ LoadU64(p + 24)) * kFnvPrime;
    l4 = (l4 ^ LoadU64(p + 32)) * kFnvPrime;
    l5 = (l5 ^ LoadU64(p + 40)) * kFnvPrime;
    l6 = (l6 ^ LoadU64(p + 48)) * kFnvPrime;
    l7 = (l7 ^ LoadU64(p + 56)) * kFnvPrime;
  }
  lanes[0] = l0;
  lanes[1] = l1;
  lanes[2] = l2;
  lanes[3] = l3;
  lanes[4] = l4;
  lanes[5] = l5;
  lanes[6] = l6;
  lanes[7] = l7;
}

#ifdef CA_HASH_X86

// AVX2 has no 64-bit vector multiply, so (a * prime) mod 2^64 is decomposed
// into 32-bit halves. With prime = 0x100'000001B3 (hi = 0x100, lo = 0x1B3):
//   a * prime = a_lo*lo + ((a_lo*hi + a_hi*lo) << 32)
//             = mul_epu32(a, lo) + (((a_lo << 8) + mul_epu32(a>>32, lo)) << 32)
// exploiting hi == 2^8. Digest-identical to FoldGroupsScalar (asserted by
// ChunkedHashTest.ScalarAndAvx2KernelsAgree).
__attribute__((target("avx2"))) void FoldGroupsAvx2(const std::uint8_t* p, std::size_t n_groups,
                                                    std::uint64_t* lanes) {
  const __m256i prime_lo = _mm256_set1_epi64x(static_cast<long long>(kFnvPrime & 0xFFFFFFFFULL));
  const __m256i mask32 = _mm256_set1_epi64x(0xFFFFFFFFLL);
  __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes));
  __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes + 4));
  for (std::size_t g = 0; g < n_groups; ++g, p += ChunkedHash64::kGroupBytes) {
    a = _mm256_xor_si256(a, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
    b = _mm256_xor_si256(b, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32)));
    const __m256i a_lo = _mm256_and_si256(a, mask32);
    const __m256i b_lo = _mm256_and_si256(b, mask32);
    const __m256i a_hi = _mm256_srli_epi64(a, 32);
    const __m256i b_hi = _mm256_srli_epi64(b, 32);
    const __m256i a_hi_prod =
        _mm256_add_epi64(_mm256_slli_epi64(a_lo, 8), _mm256_mul_epu32(a_hi, prime_lo));
    const __m256i b_hi_prod =
        _mm256_add_epi64(_mm256_slli_epi64(b_lo, 8), _mm256_mul_epu32(b_hi, prime_lo));
    a = _mm256_add_epi64(_mm256_mul_epu32(a, prime_lo), _mm256_slli_epi64(a_hi_prod, 32));
    b = _mm256_add_epi64(_mm256_mul_epu32(b, prime_lo), _mm256_slli_epi64(b_hi_prod, 32));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), a);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes + 4), b);
}

#endif  // CA_HASH_X86

bool CpuHasAvx2() {
#ifdef CA_HASH_X86
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

#ifdef CA_HASH_X86
// One-shot shootout (the Linux kernel picks its raid6 kernel the same way):
// fold a 64 KiB scratch with each candidate, keep the faster. Which side
// wins is genuinely microarchitecture-dependent — the AVX2 fold spends ~6
// vector ops per 64-bit multiply (no vpmullq in the ISA) while the scalar
// fold's eight independent imul chains pipeline at 1/cycle — so a
// compile-time or cpuid-only choice would be wrong on some hosts. Both
// kernels produce identical digests, so the pick is invisible to callers.
GroupKernel MeasureFasterKernel(GroupKernel a, GroupKernel b) {
  constexpr std::size_t kScratchBytes = 64 * 1024;
  constexpr std::size_t kScratchGroups = kScratchBytes / ChunkedHash64::kGroupBytes;
  constexpr int kReps = 8;
  std::vector<std::uint8_t> scratch(kScratchBytes);
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    scratch[i] = static_cast<std::uint8_t>(i * 131U + 7U);
  }
  std::uint64_t lanes[ChunkedHash64::kLanes] = {};
  const auto time_one = [&](GroupKernel k) {
    k(scratch.data(), kScratchGroups, lanes);  // warm-up: page-in + i-cache
    auto best = std::chrono::steady_clock::duration::max();
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      k(scratch.data(), kScratchGroups, lanes);
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, t1 - t0);
    }
    return best;
  };
  return time_one(b) < time_one(a) ? b : a;
}
#endif  // CA_HASH_X86

GroupKernel PickGroupKernel() {
#ifdef CA_HASH_X86
  if (CpuHasAvx2()) {
    return MeasureFasterKernel(&FoldGroupsScalar, &FoldGroupsAvx2);
  }
#endif
  return &FoldGroupsScalar;
}

GroupKernel ActiveGroupKernel() {
  static const GroupKernel kernel = PickGroupKernel();
  return kernel;
}

}  // namespace

namespace internal {

std::uint64_t ChecksumWithKernel(std::span<const std::uint8_t> bytes, bool use_avx2) {
  GroupKernel kernel = &FoldGroupsScalar;
#ifdef CA_HASH_X86
  if (use_avx2 && CpuHasAvx2()) {
    kernel = &FoldGroupsAvx2;
  }
#else
  (void)use_avx2;
#endif
  // Mirror of ChunkedHash64 over an explicit kernel (whole buffer, so no
  // pending-buffer handling is needed: full groups + a byte-serial tail).
  std::array<std::uint64_t, ChunkedHash64::kLanes> lanes;
  for (std::size_t i = 0; i < ChunkedHash64::kLanes; ++i) {
    lanes[i] = kFnvBasis ^ (kLaneSeed * (i + 1));
  }
  const std::size_t groups = bytes.size() / ChunkedHash64::kGroupBytes;
  if (groups > 0) {
    kernel(bytes.data(), groups, lanes.data());
  }
  std::uint64_t h = kFnvBasis;
  for (const std::uint64_t lane : lanes) {
    h = (h ^ lane) * kFnvPrime;
  }
  std::uint64_t tail = kFnvBasis;
  for (std::size_t i = groups * ChunkedHash64::kGroupBytes; i < bytes.size(); ++i) {
    tail = (tail ^ bytes[i]) * kFnvPrime;
  }
  h = (h ^ tail) * kFnvPrime;
  h = (h ^ static_cast<std::uint64_t>(bytes.size())) * kFnvPrime;
  h ^= h >> 33;
  h *= 0xC2B2AE3D27D4EB4FULL;
  h ^= h >> 29;
  return h;
}

}  // namespace internal

bool ChunkedHashAvx2Available() { return CpuHasAvx2(); }

void ChunkedHash64::Reset() {
  for (std::size_t i = 0; i < kLanes; ++i) {
    lanes_[i] = kFnvBasis ^ (kLaneSeed * (i + 1));
  }
  pending_len_ = 0;
  total_len_ = 0;
}

void ChunkedHash64::Update(std::span<const std::uint8_t> chunk) {
  total_len_ += chunk.size();
  const std::uint8_t* p = chunk.data();
  std::size_t n = chunk.size();
  if (pending_len_ > 0) {
    const std::size_t take = std::min(n, kGroupBytes - pending_len_);
    std::memcpy(pending_.data() + pending_len_, p, take);
    pending_len_ += take;
    p += take;
    n -= take;
    if (pending_len_ < kGroupBytes) {
      return;
    }
    ActiveGroupKernel()(pending_.data(), 1, lanes_.data());
    pending_len_ = 0;
  }
  const std::size_t groups = n / kGroupBytes;
  if (groups > 0) {
    ActiveGroupKernel()(p, groups, lanes_.data());
    p += groups * kGroupBytes;
    n -= groups * kGroupBytes;
  }
  if (n > 0) {
    std::memcpy(pending_.data(), p, n);
    pending_len_ = n;
  }
}

std::uint64_t ChunkedHash64::Finalize() const {
  // Fold the lanes, then the (< kGroupBytes) tail byte-serially, then the
  // total length, so "same bytes, different split" collides but "same bytes
  // plus trailing zeros" does not.
  std::uint64_t h = kFnvBasis;
  for (const std::uint64_t lane : lanes_) {
    h = (h ^ lane) * kFnvPrime;
  }
  std::uint64_t tail = kFnvBasis;
  for (std::size_t i = 0; i < pending_len_; ++i) {
    tail = (tail ^ pending_[i]) * kFnvPrime;
  }
  h = (h ^ tail) * kFnvPrime;
  h = (h ^ total_len_) * kFnvPrime;
  // Final avalanche: FNV's last multiply barely stirs the high bits.
  h ^= h >> 33;
  h *= 0xC2B2AE3D27D4EB4FULL;
  h ^= h >> 29;
  return h;
}

std::uint64_t Checksum64(std::span<const std::uint8_t> bytes) {
  ChunkedHash64 hash;
  hash.Update(bytes);
  return hash.Finalize();
}

}  // namespace ca
