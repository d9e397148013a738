// Dense kernels for the model executor: matmul, softmax, rmsnorm, silu,
// elementwise ops. All operate on fp32 row-major tensors.
//
// The matmuls optionally run data-parallel over output rows on a ThreadPool
// (see src/common/parallel_for.h). Each output row is produced entirely by
// one task with a fixed reduction order, so parallel results are
// bitwise-identical to serial (`pool == nullptr`) ones — the serial path
// stays the reference the tests compare against.
#ifndef CA_TENSOR_OPS_H_
#define CA_TENSOR_OPS_H_

#include <cstddef>
#include <span>

#include "src/common/thread_pool.h"
#include "src/tensor/tensor.h"

namespace ca {

// out[m,n] = a[m,k] @ b[k,n]. out must be preallocated and distinct from
// both inputs. Parallel over rows of `out` when pool != nullptr.
void MatMul(const Tensor& a, const Tensor& b, Tensor& out, ThreadPool* pool = nullptr);

// out[m,n] = a[m,k] @ b[n,k]^T  (b given row-major as [n,k]; this is the
// layout of projection weight matrices and of K against Q). Parallel over
// rows of `out` when pool != nullptr.
void MatMulTransposedB(const Tensor& a, const Tensor& b, Tensor& out, ThreadPool* pool = nullptr);

// In-place numerically-stable softmax over the last dimension of a 2-D
// tensor (each row independently).
void SoftmaxRows(Tensor& t);

// In-place softmax of a single contiguous row. Defined as
//   max_v = std::max over the row, in index order
//   row[i] = std::exp(row[i] - max_v); sum += row[i], in index order
//   row[i] *= 1.0f / sum
// and bitwise-identical to that definition on every path (DESIGN.md §9).
void SoftmaxRow(std::span<float> row);

// RMSNorm: out[i] = x[i] / rms(x) * weight[i] over the last dim of each row.
void RmsNormRows(const Tensor& x, std::span<const float> weight, Tensor& out, float eps = 1e-5f);

// SiLU, elementwise in place: x / (1.0f + std::exp(-x)), bitwise on every
// path.
void SiluInPlace(Tensor& t);

// SoftmaxRow and SiluInPlace take their exps from ExpF, an 8-lane
// evaluation of glibc's expf, when the CPU has AVX2+FMA and a one-time
// check finds ExpF bitwise equal to std::exp on a fixed sample; otherwise
// they call std::exp. True when ExpF is in use.
bool ExpFSelected();

// y[i] = ExpF(x[i]) for spans of equal length; for tests and benchmarks.
// CA_CHECKs ExpFSelected().
void ExpFArray(std::span<const float> x, std::span<float> y);

// out = a + b elementwise.
void Add(const Tensor& a, const Tensor& b, Tensor& out);
// a += b elementwise.
void AddInPlace(Tensor& a, const Tensor& b);
// a *= b elementwise.
void MulInPlace(Tensor& a, const Tensor& b);

// Unchecked hot-loop primitives. Four-accumulator unrolled loops: the
// independent partial sums give the compiler ILP/SLP headroom while keeping
// a deterministic, input-shape-only reduction order.
//
// sum(a[i] * b[i]) over n contiguous floats.
inline float DotUnchecked(const float* a, const float* b, std::size_t n) {
  float acc0 = 0.0f;
  float acc1 = 0.0f;
  float acc2 = 0.0f;
  float acc3 = 0.0f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) {
    acc0 += a[i] * b[i];
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

// y[i] += alpha * x[i] over n contiguous floats.
inline void AxpyUnchecked(float alpha, const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    y[i] += alpha * x[i];
    y[i + 1] += alpha * x[i + 1];
    y[i + 2] += alpha * x[i + 2];
    y[i + 3] += alpha * x[i + 3];
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

// One query head's causal attention over `ctx` cached positions, the
// per-(query, head) work item of the forward pass. Key j's row starts at
// k + j * stride, value j's at v + j * stride. Defined as
//   probs[j] = DotUnchecked(q, key j, head_dim) * scale   for j < ctx
//   SoftmaxRow(probs[0, ctx))
//   out = 0; AxpyUnchecked(probs[j], value j, out, head_dim) for j < ctx
// and bitwise-identical to that definition on every path (DESIGN.md §9).
// `probs` (ctx floats) receives the attention distribution, `out`
// (head_dim floats) the head's output.
void AttendHead(const float* q, const float* k, const float* v, std::size_t stride,
                std::size_t head_dim, std::size_t ctx, float scale, float* probs, float* out);

// Dot product of two length-n float spans.
float Dot(std::span<const float> a, std::span<const float> b);

// y += alpha * x.
void Axpy(float alpha, std::span<const float> x, std::span<float> y);

// log(sum(exp(row))) for a contiguous row, numerically stable.
float LogSumExp(std::span<const float> row);

}  // namespace ca

#endif  // CA_TENSOR_OPS_H_
