#include "src/tensor/ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/parallel_for.h"

// The matmul kernels and the exp behind SoftmaxRow/SiluInPlace have
// AVX2+FMA variants selected at runtime (the build stays plain
// -O2/-mno-avx compatible; the `target` attribute compiles just these
// functions for the wider ISA). Dispatch is per call and identical for
// serial and pooled execution, so the parallel == serial bitwise contract
// (DESIGN.md §9) is unaffected: on one machine every run takes the same
// code path. Across machines the matmul's SIMD lane grouping changes the
// rounding of reductions, which the cross-kernel tests absorb with
// tolerances; the scalar fallback remains the portable reference.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CA_KERNELS_X86 1
#include <immintrin.h>
#endif

// The attention kernel's SIMD path needs only SSE2, which every x86-64 CPU
// has: no runtime dispatch, and no FMA for the compiler to contract into.
#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace ca {

namespace {

// Rows per parallel chunk: aim for ~4 chunks per worker (plus the caller)
// so stragglers balance, but never fewer rows than makes a task worthwhile.
std::size_t RowGrain(ThreadPool* pool, std::size_t rows) {
  if (pool == nullptr) {
    return rows;
  }
  return std::max<std::size_t>(1, rows / (4 * (pool->num_threads() + 1)));
}

// One output row of a[m,k] @ b[n,k]^T, j blocked 4-wide: the four
// independent dot products share every a-row load, quadrupling the
// arithmetic per byte streamed from `a`.
void MatMulTransposedBRow(const float* arow, const Tensor& b, float* orow, std::size_t k,
                          std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const float* b0 = b.row(j);
    const float* b1 = b.row(j + 1);
    const float* b2 = b.row(j + 2);
    const float* b3 = b.row(j + 3);
    float s00 = 0.0f, s01 = 0.0f, s02 = 0.0f, s03 = 0.0f;
    float s10 = 0.0f, s11 = 0.0f, s12 = 0.0f, s13 = 0.0f;
    float s20 = 0.0f, s21 = 0.0f, s22 = 0.0f, s23 = 0.0f;
    float s30 = 0.0f, s31 = 0.0f, s32 = 0.0f, s33 = 0.0f;
    std::size_t kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      const float a0 = arow[kk];
      const float a1 = arow[kk + 1];
      const float a2 = arow[kk + 2];
      const float a3 = arow[kk + 3];
      s00 += a0 * b0[kk];
      s01 += a1 * b0[kk + 1];
      s02 += a2 * b0[kk + 2];
      s03 += a3 * b0[kk + 3];
      s10 += a0 * b1[kk];
      s11 += a1 * b1[kk + 1];
      s12 += a2 * b1[kk + 2];
      s13 += a3 * b1[kk + 3];
      s20 += a0 * b2[kk];
      s21 += a1 * b2[kk + 1];
      s22 += a2 * b2[kk + 2];
      s23 += a3 * b2[kk + 3];
      s30 += a0 * b3[kk];
      s31 += a1 * b3[kk + 1];
      s32 += a2 * b3[kk + 2];
      s33 += a3 * b3[kk + 3];
    }
    for (; kk < k; ++kk) {
      const float av = arow[kk];
      s00 += av * b0[kk];
      s10 += av * b1[kk];
      s20 += av * b2[kk];
      s30 += av * b3[kk];
    }
    orow[j] = (s00 + s01) + (s02 + s03);
    orow[j + 1] = (s10 + s11) + (s12 + s13);
    orow[j + 2] = (s20 + s21) + (s22 + s23);
    orow[j + 3] = (s30 + s31) + (s32 + s33);
  }
  for (; j < n; ++j) {
    orow[j] = DotUnchecked(arow, b.row(j), k);
  }
}

// One output row of a[m,k] @ b[k,n]: orow = sum_kk arow[kk] * b.row(kk).
void MatMulRow(const float* arow, const Tensor& b, float* orow, std::size_t k, std::size_t n) {
  std::memset(orow, 0, n * sizeof(float));
  for (std::size_t kk = 0; kk < k; ++kk) {
    AxpyUnchecked(arow[kk], b.row(kk), orow, n);
  }
}

#ifdef CA_KERNELS_X86

__attribute__((target("avx2,fma"))) inline float HorizontalSum8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

// HorizontalSum8 of four accumulators at once, as [h(a), h(b), h(c), h(d)]:
// the same adds on the same operands (lanes i + i+4, then 0+2 and 1+3,
// then those two), done for four columns per instruction.
__attribute__((target("avx2,fma"))) inline __m128 HorizontalSum8x4(__m256 a, __m256 b, __m256 c,
                                                                   __m256 d) {
  // Halves: [a.lo + a.hi | b.lo + b.hi] and [c.lo + c.hi | d.lo + d.hi].
  const __m256 ab =
      _mm256_add_ps(_mm256_permute2f128_ps(a, b, 0x20), _mm256_permute2f128_ps(a, b, 0x31));
  const __m256 cd =
      _mm256_add_ps(_mm256_permute2f128_ps(c, d, 0x20), _mm256_permute2f128_ps(c, d, 0x31));
  // [x0 + x2, x1 + x3, y0 + y2, y1 + y3] with (x, y) = (a, c) | (b, d).
  const __m256 p = _mm256_add_ps(_mm256_shuffle_ps(ab, cd, _MM_SHUFFLE(1, 0, 1, 0)),
                                 _mm256_shuffle_ps(ab, cd, _MM_SHUFFLE(3, 2, 3, 2)));
  // [h(a), h(c), h(a), h(c) | h(b), h(d), h(b), h(d)].
  const __m256 h = _mm256_hadd_ps(p, p);
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 0, 4, 1, 5);
  return _mm256_castps256_ps128(_mm256_permutevar8x32_ps(h, order));
}

// Every AVX2 output of a[m,k] @ b[n,k]^T is this dot product: an 8-lane
// FMA chain over k, HorizontalSum8, then one scalar FMA per leftover k.
// (The tails are written as std::fma: it is what GCC and Clang contract
// `s += a * b` to in an FMA-enabled function, spelled out so that no
// kernel depends on the contraction setting.)
__attribute__((target("avx2,fma"))) inline float DotAvx2(const float* arow, const float* brow,
                                                         std::size_t k) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk), _mm256_loadu_ps(brow + kk), acc);
  }
  float s = HorizontalSum8(acc);
  for (; kk < k; ++kk) {
    s = std::fma(arow[kk], brow[kk], s);
  }
  return s;
}

// DotAvx2 of one A row against B rows b0..b3 (k floats apart), into
// out[0..4): the four chains share every A load.
__attribute__((target("avx2,fma"))) inline void Dot1x4Avx2(const float* arow, const float* b0,
                                                           std::size_t k, float* out) {
  const float* b1 = b0 + k;
  const float* b2 = b1 + k;
  const float* b3 = b2 + k;
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  std::size_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    const __m256 va = _mm256_loadu_ps(arow + kk);
    acc0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b0 + kk), acc0);
    acc1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b1 + kk), acc1);
    acc2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b2 + kk), acc2);
    acc3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b3 + kk), acc3);
  }
  float s[4];
  _mm_storeu_ps(s, HorizontalSum8x4(acc0, acc1, acc2, acc3));
  for (; kk < k; ++kk) {
    const float av = arow[kk];
    s[0] = std::fma(av, b0[kk], s[0]);
    s[1] = std::fma(av, b1[kk], s[1]);
    s[2] = std::fma(av, b2[kk], s[2]);
    s[3] = std::fma(av, b3[kk], s[3]);
  }
  std::memcpy(out, s, sizeof(s));
}

// DotAvx2 of three A rows against four B rows (k floats apart): a 3x4 tile
// of outputs in 12 accumulators, so each streamed B row serves three A
// rows instead of one.
__attribute__((target("avx2,fma"))) inline void Dot3x4Avx2(const float* a0, const float* b0,
                                                           std::size_t k, float* o0, float* o1,
                                                           float* o2) {
  const float* a1 = a0 + k;
  const float* a2 = a1 + k;
  const float* b1 = b0 + k;
  const float* b2 = b1 + k;
  const float* b3 = b2 + k;
  // cRC: A row R against B row C.
  __m256 c00 = _mm256_setzero_ps();
  __m256 c01 = _mm256_setzero_ps();
  __m256 c02 = _mm256_setzero_ps();
  __m256 c03 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps();
  __m256 c11 = _mm256_setzero_ps();
  __m256 c12 = _mm256_setzero_ps();
  __m256 c13 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps();
  __m256 c21 = _mm256_setzero_ps();
  __m256 c22 = _mm256_setzero_ps();
  __m256 c23 = _mm256_setzero_ps();
  std::size_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    const __m256 va0 = _mm256_loadu_ps(a0 + kk);
    const __m256 va1 = _mm256_loadu_ps(a1 + kk);
    const __m256 va2 = _mm256_loadu_ps(a2 + kk);
    __m256 vb = _mm256_loadu_ps(b0 + kk);
    c00 = _mm256_fmadd_ps(va0, vb, c00);
    c10 = _mm256_fmadd_ps(va1, vb, c10);
    c20 = _mm256_fmadd_ps(va2, vb, c20);
    vb = _mm256_loadu_ps(b1 + kk);
    c01 = _mm256_fmadd_ps(va0, vb, c01);
    c11 = _mm256_fmadd_ps(va1, vb, c11);
    c21 = _mm256_fmadd_ps(va2, vb, c21);
    vb = _mm256_loadu_ps(b2 + kk);
    c02 = _mm256_fmadd_ps(va0, vb, c02);
    c12 = _mm256_fmadd_ps(va1, vb, c12);
    c22 = _mm256_fmadd_ps(va2, vb, c22);
    vb = _mm256_loadu_ps(b3 + kk);
    c03 = _mm256_fmadd_ps(va0, vb, c03);
    c13 = _mm256_fmadd_ps(va1, vb, c13);
    c23 = _mm256_fmadd_ps(va2, vb, c23);
  }
  float s[3][4];
  _mm_storeu_ps(s[0], HorizontalSum8x4(c00, c01, c02, c03));
  _mm_storeu_ps(s[1], HorizontalSum8x4(c10, c11, c12, c13));
  _mm_storeu_ps(s[2], HorizontalSum8x4(c20, c21, c22, c23));
  const float* arows[3] = {a0, a1, a2};
  for (; kk < k; ++kk) {
    for (std::size_t r = 0; r < 3; ++r) {
      const float av = arows[r][kk];
      s[r][0] = std::fma(av, b0[kk], s[r][0]);
      s[r][1] = std::fma(av, b1[kk], s[r][1]);
      s[r][2] = std::fma(av, b2[kk], s[r][2]);
      s[r][3] = std::fma(av, b3[kk], s[r][3]);
    }
  }
  std::memcpy(o0, s[0], sizeof(s[0]));
  std::memcpy(o1, s[1], sizeof(s[1]));
  std::memcpy(o2, s[2], sizeof(s[2]));
}

// One output row: four columns at a time, then one.
__attribute__((target("avx2,fma"))) void MatMulTransposedBRowAvx2(const float* arow,
                                                                  const Tensor& b, float* orow,
                                                                  std::size_t k, std::size_t n) {
  const float* bd = b.data();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    Dot1x4Avx2(arow, bd + j * k, k, orow + j);
  }
  for (; j < n; ++j) {
    orow[j] = DotAvx2(arow, bd + j * k, k);
  }
}

// Rows [row_begin, row_end) of a[m,k] @ b[n,k]^T, three at a time in 3x4
// tiles. Every output gets DotAvx2's arithmetic in every path (the same
// FMA chain, horizontal sum and scalar tail), so a tiled output is
// bitwise the row kernel's. Leftover columns go through DotAvx2, leftover
// rows through the row kernel.
__attribute__((target("avx2,fma"))) void MatMulTransposedBRowsAvx2(const Tensor& a,
                                                                   const Tensor& b, Tensor& out,
                                                                   std::size_t row_begin,
                                                                   std::size_t row_end) {
  const std::size_t k = a.dim(1);
  const std::size_t n = b.dim(0);
  const float* bd = b.data();
  std::size_t i = row_begin;
  for (; i + 3 <= row_end; i += 3) {
    const float* a0 = a.row(i);
    float* o0 = out.row(i);
    float* o1 = o0 + n;
    float* o2 = o1 + n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      Dot3x4Avx2(a0, bd + j * k, k, o0 + j, o1 + j, o2 + j);
    }
    for (; j < n; ++j) {
      const float* brow = bd + j * k;
      o0[j] = DotAvx2(a0, brow, k);
      o1[j] = DotAvx2(a0 + k, brow, k);
      o2[j] = DotAvx2(a0 + 2 * k, brow, k);
    }
  }
  for (; i < row_end; ++i) {
    MatMulTransposedBRowAvx2(a.row(i), b, out.row(i), k, n);
  }
}

__attribute__((target("avx2,fma"))) void MatMulRowAvx2(const float* arow, const Tensor& b,
                                                       float* orow, std::size_t k,
                                                       std::size_t n) {
  std::memset(orow, 0, n * sizeof(float));
  for (std::size_t kk = 0; kk < k; ++kk) {
    const __m256 va = _mm256_set1_ps(arow[kk]);
    const float* brow = b.row(kk);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 acc =
          _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + j), _mm256_loadu_ps(orow + j));
      _mm256_storeu_ps(orow + j, acc);
    }
    const float av = arow[kk];
    for (; j < n; ++j) {
      orow[j] += av * brow[j];
    }
  }
}

// --- ExpF: glibc's expf, eight lanes at a time ------------------------------
//
// The algorithm and data of glibc's expf (sysdeps/ieee754/flt-32/e_expf.c,
// from ARM's optimized-routines): exp(x) = 2^(k/32) * 2^(r/32), with k the
// nearest integer to x * 32/ln2, 2^(k/32) built from a 32-entry table, and
// 2^(r/32) a degree-3 polynomial, all in double. The FMAs are those of
// glibc's x86-64 FMA variant (the one its ifunc picks on an AVX2+FMA CPU),
// so every lane rounds exactly as that expf does; UseExpF() checks this
// against std::exp before SoftmaxRow and SiluInPlace rely on it.

// kExpTable[i] = bits(2^(i/32)) - (i << 47): adding k << 47 to entry k % 32
// puts k / 32 into the exponent field.
alignas(32) constexpr long long kExpTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr double kExpInvLn2N = 0x1.71547652b82fep+5;  // 32 / ln 2
constexpr double kExpShift = 0x1.8p+52;               // rounds to an integer in the low bits
constexpr double kExpC0 = 0x1.c6af84b912394p-20;
constexpr double kExpC1 = 0x1.ebfce50fac4f3p-13;
constexpr double kExpC2 = 0x1.62e42ff0c52d6p-6;
// Lanes whose top bits exceed this (|x| >= 88, inf, NaN) take std::exp,
// which handles overflow, underflow and the special values.
constexpr int kExpSpecialTop = 0x42a;

// glibc's expf main path for four lanes (no special-case handling).
__attribute__((target("avx2,fma"))) inline __m128 ExpF4(__m128 x) {
  const __m256d xd = _mm256_cvtps_pd(x);
  const __m256d inv_ln2n = _mm256_set1_pd(kExpInvLn2N);
  const __m256d shift = _mm256_set1_pd(kExpShift);
  const __m256d kd = _mm256_fmadd_pd(inv_ln2n, xd, shift);
  const __m256d r = _mm256_fmsub_pd(inv_ln2n, xd, _mm256_sub_pd(kd, shift));
  const __m256i ki = _mm256_castpd_si256(kd);
  const __m256i t = _mm256_add_epi64(
      _mm256_i64gather_epi64(kExpTable, _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8),
      _mm256_slli_epi64(ki, 47));
  const __m256d s = _mm256_castsi256_pd(t);
  const __m256d z = _mm256_fmadd_pd(_mm256_set1_pd(kExpC0), r, _mm256_set1_pd(kExpC1));
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d y0 = _mm256_fmadd_pd(_mm256_set1_pd(kExpC2), r, _mm256_set1_pd(1.0));
  const __m256d y = _mm256_mul_pd(_mm256_fmadd_pd(z, r2, y0), s);
  return _mm256_cvtpd_ps(y);
}

// exp of eight floats, each bitwise equal to glibc's expf.
__attribute__((target("avx2,fma"))) __m256 ExpF(__m256 x) {
  __m256 y = _mm256_set_m128(ExpF4(_mm256_extractf128_ps(x, 1)),
                             ExpF4(_mm256_castps256_ps128(x)));
  const __m256i top = _mm256_and_si256(_mm256_srli_epi32(_mm256_castps_si256(x), 20),
                                       _mm256_set1_epi32(0x7ff));
  const int special = _mm256_movemask_ps(
      _mm256_castsi256_ps(_mm256_cmpgt_epi32(top, _mm256_set1_epi32(kExpSpecialTop))));
  if (special != 0) {
    alignas(32) float in[8];
    alignas(32) float out[8];
    _mm256_store_ps(in, x);
    _mm256_store_ps(out, y);
    for (int lane = 0; lane < 8; ++lane) {
      if ((special >> lane) & 1) {
        out[lane] = std::exp(in[lane]);
      }
    }
    y = _mm256_load_ps(out);
  }
  return y;
}

// Lanes [0, count) set, for the last count < 8 floats of a row.
__attribute__((target("avx2,fma"))) inline __m256i TailMask(std::size_t count) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// SoftmaxRow on the ExpF path. The lane maxima are std::max chains over
// each lane's elements, so the row maximum is std::max's up to the sign of
// a zero maximum, which no v - max_v can see. The exps are stored and then
// summed one at a time in index order, and the final scale is elementwise:
// bitwise the scalar definition.
__attribute__((target("avx2,fma"))) void SoftmaxRowAvx2(float* row, std::size_t n) {
  const std::size_t body = n - n % 8;
  __m256 lane_max = _mm256_set1_ps(-INFINITY);
  for (std::size_t i = 0; i < body; i += 8) {
    // max_ps(v, m) is (m < v) ? v : m, std::max(m, v) per lane.
    lane_max = _mm256_max_ps(_mm256_loadu_ps(row + i), lane_max);
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, lane_max);
  float max_v = -INFINITY;
  for (const float v : lanes) {
    max_v = std::max(max_v, v);
  }
  for (std::size_t i = body; i < n; ++i) {
    max_v = std::max(max_v, row[i]);
  }
  const __m256 vmax = _mm256_set1_ps(max_v);
  float sum = 0.0f;
  for (std::size_t i = 0; i < body; i += 8) {
    _mm256_storeu_ps(row + i, ExpF(_mm256_sub_ps(_mm256_loadu_ps(row + i), vmax)));
    for (std::size_t l = i; l < i + 8; ++l) {
      sum += row[l];
    }
  }
  if (body < n) {
    // Zero the lanes past the end after the subtraction, so they never
    // reach std::exp as a special case.
    const __m256i mask = TailMask(n - body);
    const __m256 x = _mm256_and_ps(_mm256_castsi256_ps(mask),
                                   _mm256_sub_ps(_mm256_maskload_ps(row + body, mask), vmax));
    _mm256_maskstore_ps(row + body, mask, ExpF(x));
    for (std::size_t l = body; l < n; ++l) {
      sum += row[l];
    }
  }
  const float inv = 1.0f / sum;
  const __m256 vinv = _mm256_set1_ps(inv);
  for (std::size_t i = 0; i < body; i += 8) {
    _mm256_storeu_ps(row + i, _mm256_mul_ps(_mm256_loadu_ps(row + i), vinv));
  }
  for (std::size_t i = body; i < n; ++i) {
    row[i] *= inv;
  }
}

// SiLU of eight floats, x / (1 + ExpF(-x)): negation, add and divide are
// elementwise, so this is bitwise the scalar definition.
__attribute__((target("avx2,fma"))) __m256 Silu8(__m256 x) {
  const __m256 e = ExpF(_mm256_xor_ps(x, _mm256_set1_ps(-0.0f)));
  return _mm256_div_ps(x, _mm256_add_ps(_mm256_set1_ps(1.0f), e));
}

// SiluInPlace on the ExpF path (maskload zeroes the lanes past the end).
__attribute__((target("avx2,fma"))) void SiluAvx2(float* data, std::size_t n) {
  const std::size_t body = n - n % 8;
  for (std::size_t i = 0; i < body; i += 8) {
    _mm256_storeu_ps(data + i, Silu8(_mm256_loadu_ps(data + i)));
  }
  if (body < n) {
    const __m256i mask = TailMask(n - body);
    _mm256_maskstore_ps(data + body, mask, Silu8(_mm256_maskload_ps(data + body, mask)));
  }
}

// y[i] = ExpF(x[i]) for n floats (maskload zeroes the lanes past the end).
__attribute__((target("avx2,fma"))) void ExpFArrayAvx2(const float* x, float* y, std::size_t n) {
  const std::size_t body = n - n % 8;
  for (std::size_t i = 0; i < body; i += 8) {
    _mm256_storeu_ps(y + i, ExpF(_mm256_loadu_ps(x + i)));
  }
  if (body < n) {
    const __m256i mask = TailMask(n - body);
    _mm256_maskstore_ps(y + body, mask, ExpF(_mm256_maskload_ps(x + body, mask)));
  }
}

#endif  // CA_KERNELS_X86

// Row-kernel signature shared by the scalar and SIMD variants.
using RowKernel = void (*)(const float*, const Tensor&, float*, std::size_t, std::size_t);

bool CpuHasAvx2Fma() {
#ifdef CA_KERNELS_X86
  static const bool has =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return has;
#else
  return false;
#endif
}

RowKernel PickMatMulRowKernel() {
#ifdef CA_KERNELS_X86
  if (CpuHasAvx2Fma()) {
    return &MatMulRowAvx2;
  }
#endif
  return &MatMulRow;
}

// Rows [row_begin, row_end) of a @ b^T.
using RowsKernel = void (*)(const Tensor&, const Tensor&, Tensor&, std::size_t, std::size_t);

void MatMulTransposedBRows(const Tensor& a, const Tensor& b, Tensor& out, std::size_t row_begin,
                           std::size_t row_end) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    MatMulTransposedBRow(a.row(i), b, out.row(i), a.dim(1), b.dim(0));
  }
}

RowsKernel PickMatMulTransposedBKernel() {
#ifdef CA_KERNELS_X86
  if (CpuHasAvx2Fma()) {
    return &MatMulTransposedBRowsAvx2;
  }
#endif
  return &MatMulTransposedBRows;
}

#ifdef CA_KERNELS_X86
// The one-time check behind UseExpF: ExpF against std::exp, bit for bit, on
// a fixed sample of the main path's inputs (a stride through every bit
// pattern with |x| < 88, both signs) plus the edges of the special-case
// range: +-0, the smallest subnormal, the neighbours of 88, the overflow
// edge near 88.72, the underflow edge near -103.97, +-inf and NaN.
bool ExpFMatchesStdExp() {
  std::vector<float> xs;
  for (std::uint32_t bits = 0; bits < 0x42b00000U; bits += 0x8561U) {
    xs.push_back(std::bit_cast<float>(bits));
    xs.push_back(std::bit_cast<float>(bits | 0x80000000U));
  }
  for (const std::uint32_t bits :
       {0x00000000U, 0x80000000U, 0x00000001U, 0x80000001U, 0x42afffffU, 0x42b00000U,
        0xc2afffffU, 0xc2b00000U, 0x42b17217U, 0x42b17218U, 0xc2cff1b4U, 0xc2cff1b5U,
        0x7f800000U, 0xff800000U, 0x7fc00000U}) {
    xs.push_back(std::bit_cast<float>(bits));
  }
  std::vector<float> ys(xs.size());
  ExpFArrayAvx2(xs.data(), ys.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(ys[i]) != std::bit_cast<std::uint32_t>(std::exp(xs[i]))) {
      return false;
    }
  }
  return true;
}
#endif

// ExpF replaces std::exp only where it was just seen to agree with it, so
// a libm that rounds differently keeps every reply as it was.
bool UseExpF() {
#ifdef CA_KERNELS_X86
  static const bool use = CpuHasAvx2Fma() && ExpFMatchesStdExp();
  return use;
#else
  return false;
#endif
}

#ifdef __SSE2__

// AttendHead's scores, 4 keys per step (head_dim % 4 == 0). Each key gets a
// 4-lane accumulator whose lane m is DotUnchecked's acc m: the same
// products, added in the same order. A 4x4 transpose then lines the keys up
// across lanes, so one vertical (acc0 + acc1) + (acc2 + acc3) reduces all
// four exactly as DotUnchecked reduces one.
void AttentionScoresSse2(const float* q, const float* k, std::size_t stride,
                         std::size_t head_dim, std::size_t ctx, float scale, float* probs) {
  const __m128 vscale = _mm_set1_ps(scale);
  std::size_t j = 0;
  for (; j + 4 <= ctx; j += 4) {
    const float* k0 = k + j * stride;
    const float* k1 = k0 + stride;
    const float* k2 = k1 + stride;
    const float* k3 = k2 + stride;
    __m128 acc0 = _mm_setzero_ps();
    __m128 acc1 = _mm_setzero_ps();
    __m128 acc2 = _mm_setzero_ps();
    __m128 acc3 = _mm_setzero_ps();
    for (std::size_t i = 0; i < head_dim; i += 4) {
      const __m128 qv = _mm_loadu_ps(q + i);
      acc0 = _mm_add_ps(acc0, _mm_mul_ps(qv, _mm_loadu_ps(k0 + i)));
      acc1 = _mm_add_ps(acc1, _mm_mul_ps(qv, _mm_loadu_ps(k1 + i)));
      acc2 = _mm_add_ps(acc2, _mm_mul_ps(qv, _mm_loadu_ps(k2 + i)));
      acc3 = _mm_add_ps(acc3, _mm_mul_ps(qv, _mm_loadu_ps(k3 + i)));
    }
    _MM_TRANSPOSE4_PS(acc0, acc1, acc2, acc3);  // accN lane m: key m's acc N
    const __m128 dots = _mm_add_ps(_mm_add_ps(acc0, acc1), _mm_add_ps(acc2, acc3));
    _mm_storeu_ps(probs + j, _mm_mul_ps(dots, vscale));
  }
  for (; j < ctx; ++j) {
    probs[j] = DotUnchecked(q, k + j * stride, head_dim) * scale;
  }
}

// AttendHead's output (head_dim % 4 == 0): 16 (then 4) output floats stay
// in registers across the key loop. Every element still sees
// 0 + p_0 v_0 + p_1 v_1 + ... in key order, one multiply and one add per
// term, exactly as the AxpyUnchecked loop computes it.
void AttentionValuesSse2(const float* probs, const float* v, std::size_t stride,
                         std::size_t head_dim, std::size_t ctx, float* out) {
  std::size_t i = 0;
  for (; i + 16 <= head_dim; i += 16) {
    __m128 o0 = _mm_setzero_ps();
    __m128 o1 = _mm_setzero_ps();
    __m128 o2 = _mm_setzero_ps();
    __m128 o3 = _mm_setzero_ps();
    const float* vj = v + i;
    for (std::size_t j = 0; j < ctx; ++j, vj += stride) {
      const __m128 p = _mm_set1_ps(probs[j]);
      o0 = _mm_add_ps(o0, _mm_mul_ps(p, _mm_loadu_ps(vj)));
      o1 = _mm_add_ps(o1, _mm_mul_ps(p, _mm_loadu_ps(vj + 4)));
      o2 = _mm_add_ps(o2, _mm_mul_ps(p, _mm_loadu_ps(vj + 8)));
      o3 = _mm_add_ps(o3, _mm_mul_ps(p, _mm_loadu_ps(vj + 12)));
    }
    _mm_storeu_ps(out + i, o0);
    _mm_storeu_ps(out + i + 4, o1);
    _mm_storeu_ps(out + i + 8, o2);
    _mm_storeu_ps(out + i + 12, o3);
  }
  for (; i < head_dim; i += 4) {
    __m128 o = _mm_setzero_ps();
    const float* vj = v + i;
    for (std::size_t j = 0; j < ctx; ++j, vj += stride) {
      o = _mm_add_ps(o, _mm_mul_ps(_mm_set1_ps(probs[j]), _mm_loadu_ps(vj)));
    }
    _mm_storeu_ps(out + i, o);
  }
}

#endif  // __SSE2__

}  // namespace

void MatMul(const Tensor& a, const Tensor& b, Tensor& out, ThreadPool* pool) {
  CA_CHECK_EQ(a.rank(), 2U);
  CA_CHECK_EQ(b.rank(), 2U);
  CA_CHECK_EQ(out.rank(), 2U);
  const std::size_t m = a.dim(0);
  const std::size_t k = a.dim(1);
  const std::size_t n = b.dim(1);
  CA_CHECK_EQ(b.dim(0), k);
  CA_CHECK_EQ(out.dim(0), m);
  CA_CHECK_EQ(out.dim(1), n);
  // ikj loop order: streams through b and out rows. Branch-free over the
  // values of `a` (a zero-skip here is a per-element mispredict on dense
  // activations and makes the kernel's timing value-dependent). Each output
  // row is reduced in the same kk order no matter how rows are chunked, so
  // parallel == serial bitwise.
  const RowKernel kernel = PickMatMulRowKernel();
  ParallelFor(pool, 0, m, RowGrain(pool, m), [&](std::size_t row_begin, std::size_t row_end) {
    for (std::size_t i = row_begin; i < row_end; ++i) {
      kernel(a.row(i), b, out.row(i), k, n);
    }
  });
}

void MatMulTransposedB(const Tensor& a, const Tensor& b, Tensor& out, ThreadPool* pool) {
  CA_CHECK_EQ(a.rank(), 2U);
  CA_CHECK_EQ(b.rank(), 2U);
  CA_CHECK_EQ(out.rank(), 2U);
  const std::size_t m = a.dim(0);
  const std::size_t k = a.dim(1);
  const std::size_t n = b.dim(0);
  CA_CHECK_EQ(b.dim(1), k);
  CA_CHECK_EQ(out.dim(0), m);
  CA_CHECK_EQ(out.dim(1), n);
  const RowsKernel kernel = PickMatMulTransposedBKernel();
  // Chunks of whole 3-row tiles; the chunking changes no output bit.
  const std::size_t grain = (RowGrain(pool, m) + 2) / 3 * 3;
  ParallelFor(pool, 0, m, grain, [&](std::size_t row_begin, std::size_t row_end) {
    kernel(a, b, out, row_begin, row_end);
  });
}

bool ExpFSelected() { return UseExpF(); }

void ExpFArray(std::span<const float> x, std::span<float> y) {
  CA_CHECK(UseExpF()) << "ExpF is not selected: no AVX2+FMA, or its check against std::exp failed";
  CA_CHECK_EQ(x.size(), y.size());
#ifdef CA_KERNELS_X86
  ExpFArrayAvx2(x.data(), y.data(), x.size());
#endif
}

void SoftmaxRow(std::span<float> row) {
#ifdef CA_KERNELS_X86
  if (UseExpF()) {
    SoftmaxRowAvx2(row.data(), row.size());
    return;
  }
#endif
  float max_v = -INFINITY;
  for (const float v : row) {
    max_v = std::max(max_v, v);
  }
  float sum = 0.0f;
  for (float& v : row) {
    v = std::exp(v - max_v);
    sum += v;
  }
  const float inv = 1.0f / sum;
  for (float& v : row) {
    v *= inv;
  }
}

void SoftmaxRows(Tensor& t) {
  CA_CHECK_EQ(t.rank(), 2U);
  const std::size_t rows = t.dim(0);
  const std::size_t cols = t.dim(1);
  for (std::size_t r = 0; r < rows; ++r) {
    SoftmaxRow({t.row(r), cols});
  }
}

void RmsNormRows(const Tensor& x, std::span<const float> weight, Tensor& out, float eps) {
  CA_CHECK_EQ(x.rank(), 2U);
  const std::size_t rows = x.dim(0);
  const std::size_t cols = x.dim(1);
  CA_CHECK_EQ(weight.size(), cols);
  CA_CHECK_EQ(out.dim(0), rows);
  CA_CHECK_EQ(out.dim(1), cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* in = x.row(r);
    float* o = out.row(r);
    const float ss = DotUnchecked(in, in, cols);
    const float inv_rms = 1.0f / std::sqrt(ss / static_cast<float>(cols) + eps);
    for (std::size_t c = 0; c < cols; ++c) {
      o[c] = in[c] * inv_rms * weight[c];
    }
  }
}

void SiluInPlace(Tensor& t) {
#ifdef CA_KERNELS_X86
  if (UseExpF()) {
    SiluAvx2(t.data(), t.numel());
    return;
  }
#endif
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const float x = t[i];
    t[i] = x / (1.0f + std::exp(-x));
  }
}

void Add(const Tensor& a, const Tensor& b, Tensor& out) {
  CA_CHECK_EQ(a.numel(), b.numel());
  CA_CHECK_EQ(a.numel(), out.numel());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (std::size_t i = 0; i < a.numel(); ++i) {
    po[i] = pa[i] + pb[i];
  }
}

void AddInPlace(Tensor& a, const Tensor& b) {
  CA_CHECK_EQ(a.numel(), b.numel());
  float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < a.numel(); ++i) {
    pa[i] += pb[i];
  }
}

void MulInPlace(Tensor& a, const Tensor& b) {
  CA_CHECK_EQ(a.numel(), b.numel());
  float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < a.numel(); ++i) {
    pa[i] *= pb[i];
  }
}

void AttendHead(const float* q, const float* k, const float* v, std::size_t stride,
                std::size_t head_dim, std::size_t ctx, float scale, float* probs, float* out) {
#ifdef __SSE2__
  if (head_dim % 4 == 0) {
    AttentionScoresSse2(q, k, stride, head_dim, ctx, scale, probs);
    SoftmaxRow({probs, ctx});
    AttentionValuesSse2(probs, v, stride, head_dim, ctx, out);
    return;
  }
#endif
  // The definition itself: the fallback without SSE2 or for a head_dim
  // that is not a multiple of 4.
  for (std::size_t j = 0; j < ctx; ++j) {
    probs[j] = DotUnchecked(q, k + j * stride, head_dim) * scale;
  }
  SoftmaxRow({probs, ctx});
  std::memset(out, 0, head_dim * sizeof(float));
  for (std::size_t j = 0; j < ctx; ++j) {
    AxpyUnchecked(probs[j], v + j * stride, out, head_dim);
  }
}

float Dot(std::span<const float> a, std::span<const float> b) {
  CA_CHECK_EQ(a.size(), b.size());
  return DotUnchecked(a.data(), b.data(), a.size());
}

void Axpy(float alpha, std::span<const float> x, std::span<float> y) {
  CA_CHECK_EQ(x.size(), y.size());
  AxpyUnchecked(alpha, x.data(), y.data(), x.size());
}

float LogSumExp(std::span<const float> row) {
  float max_v = -INFINITY;
  for (const float v : row) {
    max_v = std::max(max_v, v);
  }
  float sum = 0.0f;
  for (const float v : row) {
    sum += std::exp(v - max_v);
  }
  return max_v + std::log(sum);
}

}  // namespace ca
