#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/parallel_for.h"

// The matmul row kernels have AVX2+FMA variants selected at runtime (the
// build stays plain -O2/-mno-avx compatible; the `target` attribute compiles
// just these functions for the wider ISA). Dispatch is per matmul call and
// identical for serial and pooled execution, so the parallel == serial
// bitwise contract (DESIGN.md §9) is unaffected: on one machine every run
// takes the same code path. Across machines the SIMD lane grouping changes
// the rounding of reductions, which the cross-kernel tests absorb with
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

__attribute__((target("avx2,fma"))) void MatMulTransposedBRowAvx2(const float* arow,
                                                                  const Tensor& b, float* orow,
                                                                  std::size_t k, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const float* b0 = b.row(j);
    const float* b1 = b.row(j + 1);
    const float* b2 = b.row(j + 2);
    const float* b3 = b.row(j + 3);
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
    float s0 = HorizontalSum8(acc0);
    float s1 = HorizontalSum8(acc1);
    float s2 = HorizontalSum8(acc2);
    float s3 = HorizontalSum8(acc3);
    for (; kk < k; ++kk) {
      const float av = arow[kk];
      s0 += av * b0[kk];
      s1 += av * b1[kk];
      s2 += av * b2[kk];
      s3 += av * b3[kk];
    }
    orow[j] = s0;
    orow[j + 1] = s1;
    orow[j + 2] = s2;
    orow[j + 3] = s3;
  }
  for (; j < n; ++j) {
    const float* brow = b.row(j);
    __m256 acc = _mm256_setzero_ps();
    std::size_t kk = 0;
    for (; kk + 8 <= k; kk += 8) {
      acc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk), _mm256_loadu_ps(brow + kk), acc);
    }
    float s = HorizontalSum8(acc);
    for (; kk < k; ++kk) {
      s += arow[kk] * brow[kk];
    }
    orow[j] = s;
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

RowKernel PickMatMulTransposedBRowKernel() {
#ifdef CA_KERNELS_X86
  if (CpuHasAvx2Fma()) {
    return &MatMulTransposedBRowAvx2;
  }
#endif
  return &MatMulTransposedBRow;
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
  const RowKernel kernel = PickMatMulTransposedBRowKernel();
  ParallelFor(pool, 0, m, RowGrain(pool, m), [&](std::size_t row_begin, std::size_t row_end) {
    for (std::size_t i = row_begin; i < row_end; ++i) {
      kernel(a.row(i), b, out.row(i), k, n);
    }
  });
}

void SoftmaxRow(std::span<float> row) {
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
