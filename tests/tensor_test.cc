// Tests for the tensor library and its kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/tensor/arena.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"

namespace ca {
namespace {

TEST(TensorTest, ZerosShapeAndContents) {
  Tensor t({2, 3});
  EXPECT_EQ(t.rank(), 2U);
  EXPECT_EQ(t.dim(0), 2U);
  EXPECT_EQ(t.dim(1), 3U);
  EXPECT_EQ(t.numel(), 6U);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(t[i], 0.0f);
  }
}

TEST(TensorTest, IndexingRoundTrips) {
  Tensor t({3, 4});
  t.at2(2, 3) = 5.0f;
  EXPECT_EQ(t.at2(2, 3), 5.0f);
  EXPECT_EQ(t[2 * 4 + 3], 5.0f);

  Tensor u({2, 3, 4});
  u.at3(1, 2, 3) = -1.0f;
  EXPECT_EQ(u.at3(1, 2, 3), -1.0f);
  EXPECT_EQ(u[(1 * 3 + 2) * 4 + 3], -1.0f);
}

TEST(TensorTest, RowPointer) {
  Tensor t({2, 3});
  t.row(1)[2] = 7.0f;
  EXPECT_EQ(t.at2(1, 2), 7.0f);
}

TEST(TensorTest, ViewSharesStorage) {
  float buf[6] = {1, 2, 3, 4, 5, 6};
  Tensor v = Tensor::View(buf, {2, 3});
  EXPECT_EQ(v.at2(1, 0), 4.0f);
  v.at2(0, 0) = 9.0f;
  EXPECT_EQ(buf[0], 9.0f);
}

TEST(TensorTest, CloneIsIndependent) {
  Tensor t({2, 2});
  t.Fill(1.0f);
  Tensor c = t.Clone();
  c.Fill(2.0f);
  EXPECT_EQ(t[0], 1.0f);
  EXPECT_EQ(c[0], 2.0f);
}

TEST(TensorTest, RandnIsDeterministic) {
  Rng a(1);
  Rng b(1);
  Tensor x = Tensor::Randn({4, 4}, a);
  Tensor y = Tensor::Randn({4, 4}, b);
  EXPECT_TRUE(AllClose(x, y, 0.0f, 0.0f));
}

TEST(TensorTest, ShapeString) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.ShapeString(), "[2, 3, 4]");
}

TEST(TensorDeathTest, OutOfBoundsAborts) {
  Tensor t({2, 2});
  EXPECT_DEATH(t[4], "CA_CHECK failed");
  EXPECT_DEATH((void)t.row(2), "CA_CHECK failed");
}

TEST(OpsTest, MatMulSmallKnown) {
  Tensor a({2, 3});
  Tensor b({3, 2});
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  for (int i = 0; i < 6; ++i) {
    a[i] = static_cast<float>(i + 1);
    b[i] = static_cast<float>(i + 7);
  }
  Tensor out({2, 2});
  MatMul(a, b, out);
  EXPECT_FLOAT_EQ(out.at2(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(out.at2(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(out.at2(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(out.at2(1, 1), 154.0f);
}

TEST(OpsTest, MatMulTransposedBMatchesMatMul) {
  Rng rng(4);
  Tensor a = Tensor::Randn({5, 7}, rng);
  Tensor b = Tensor::Randn({7, 6}, rng);
  // bt[n,k] = b[k,n]^T
  Tensor bt({6, 7});
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      bt.at2(j, i) = b.at2(i, j);
    }
  }
  Tensor ref({5, 6});
  Tensor out({5, 6});
  MatMul(a, b, ref);
  MatMulTransposedB(a, bt, out);
  EXPECT_TRUE(AllClose(out, ref, 1e-5f, 1e-6f));
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(5);
  Tensor t = Tensor::Randn({4, 16}, rng, 3.0f);
  SoftmaxRows(t);
  for (std::size_t r = 0; r < 4; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 16; ++c) {
      const float v = t.at2(r, c);
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(OpsTest, SoftmaxIsShiftInvariant) {
  Tensor a({1, 4});
  Tensor b({1, 4});
  for (int i = 0; i < 4; ++i) {
    a[i] = static_cast<float>(i);
    b[i] = static_cast<float>(i) + 100.0f;  // stability: huge shift
  }
  SoftmaxRows(a);
  SoftmaxRows(b);
  EXPECT_TRUE(AllClose(a, b, 1e-5f, 1e-6f));
}

TEST(OpsTest, RmsNormUnitWeightNormalises) {
  Tensor x({1, 4});
  x[0] = 1.0f;
  x[1] = 2.0f;
  x[2] = 3.0f;
  x[3] = 4.0f;
  std::vector<float> w(4, 1.0f);
  Tensor out({1, 4});
  RmsNormRows(x, w, out, 0.0f);
  const float rms = std::sqrt((1.0f + 4.0f + 9.0f + 16.0f) / 4.0f);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(out[i], x[i] / rms, 1e-5f);
  }
}

TEST(OpsTest, SiluKnownValues) {
  Tensor t({1, 3});
  t[0] = 0.0f;
  t[1] = 10.0f;
  t[2] = -10.0f;
  SiluInPlace(t);
  EXPECT_NEAR(t[0], 0.0f, 1e-6f);
  EXPECT_NEAR(t[1], 10.0f, 1e-3f);   // silu(10) ~ 10
  EXPECT_NEAR(t[2], 0.0f, 1e-3f);    // silu(-10) ~ 0
}

TEST(OpsTest, ElementwiseAddMul) {
  Tensor a({1, 3});
  Tensor b({1, 3});
  for (int i = 0; i < 3; ++i) {
    a[i] = static_cast<float>(i + 1);
    b[i] = 2.0f;
  }
  Tensor out({1, 3});
  Add(a, b, out);
  EXPECT_FLOAT_EQ(out[2], 5.0f);
  AddInPlace(a, b);
  EXPECT_FLOAT_EQ(a[0], 3.0f);
  MulInPlace(a, b);
  EXPECT_FLOAT_EQ(a[0], 6.0f);
}

TEST(OpsTest, DotAndAxpy) {
  const std::vector<float> x = {1.0f, 2.0f, 3.0f};
  std::vector<float> y = {4.0f, 5.0f, 6.0f};
  EXPECT_FLOAT_EQ(Dot(x, y), 32.0f);
  Axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[2], 12.0f);
}

TEST(OpsTest, LogSumExpStable) {
  const std::vector<float> row = {1000.0f, 1000.0f};
  EXPECT_NEAR(LogSumExp(row), 1000.0f + std::log(2.0f), 1e-3f);
  const std::vector<float> row2 = {0.0f};
  EXPECT_NEAR(LogSumExp(row2), 0.0f, 1e-6f);
}

TEST(OpsTest, MaxAbsDiff) {
  Tensor a({1, 3});
  Tensor b({1, 3});
  a[1] = 2.0f;
  b[1] = -1.0f;
  EXPECT_FLOAT_EQ(MaxAbsDiff(a, b), 3.0f);
}

// Property sweep: MatMulTransposedB against a plain triple loop, across
// shapes.
class MatMulShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapes, AgreesWithNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10000 + k * 100 + n));
  Tensor a = Tensor::Randn({static_cast<std::size_t>(m), static_cast<std::size_t>(k)}, rng);
  Tensor bt = Tensor::Randn({static_cast<std::size_t>(n), static_cast<std::size_t>(k)}, rng);
  Tensor out({static_cast<std::size_t>(m), static_cast<std::size_t>(n)});
  MatMulTransposedB(a, bt, out);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) {
        acc += a.at2(i, kk) * bt.at2(j, kk);
      }
      EXPECT_NEAR(out.at2(i, j), acc, 1e-4f) << "at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulShapes,
                         ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 8, 3),
                                           std::make_tuple(5, 3, 7), std::make_tuple(16, 32, 8),
                                           std::make_tuple(3, 64, 64)));

// --- Parallel kernels: bitwise-identical to serial ------------------------
//
// The determinism contract (DESIGN.md §9): each output row is produced by
// exactly one ParallelFor chunk with a fixed, shape-only reduction order, so
// a pooled run must match the serial run bit for bit — including odd shapes
// (1x1, rows < grain, dims that are not a multiple of the 4-wide tile).

class ParallelMatMulShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ParallelMatMulShapes, MatMulBitwiseMatchesSerial) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 7919 + k * 131 + n));
  Tensor a = Tensor::Randn({static_cast<std::size_t>(m), static_cast<std::size_t>(k)}, rng);
  Tensor b = Tensor::Randn({static_cast<std::size_t>(k), static_cast<std::size_t>(n)}, rng);
  Tensor serial({static_cast<std::size_t>(m), static_cast<std::size_t>(n)});
  Tensor parallel({static_cast<std::size_t>(m), static_cast<std::size_t>(n)});
  MatMul(a, b, serial);
  ThreadPool pool(4);
  MatMul(a, b, parallel, &pool);
  EXPECT_EQ(std::memcmp(serial.data(), parallel.data(), serial.numel() * sizeof(float)), 0);
}

TEST_P(ParallelMatMulShapes, MatMulTransposedBBitwiseMatchesSerial) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 104729 + k * 433 + n));
  Tensor a = Tensor::Randn({static_cast<std::size_t>(m), static_cast<std::size_t>(k)}, rng);
  Tensor bt = Tensor::Randn({static_cast<std::size_t>(n), static_cast<std::size_t>(k)}, rng);
  Tensor serial({static_cast<std::size_t>(m), static_cast<std::size_t>(n)});
  Tensor parallel({static_cast<std::size_t>(m), static_cast<std::size_t>(n)});
  MatMulTransposedB(a, bt, serial);
  ThreadPool pool(4);
  MatMulTransposedB(a, bt, parallel, &pool);
  EXPECT_EQ(std::memcmp(serial.data(), parallel.data(), serial.numel() * sizeof(float)), 0);
}

INSTANTIATE_TEST_SUITE_P(OddShapes, ParallelMatMulShapes,
                         ::testing::Values(std::make_tuple(1, 1, 1),    // degenerate
                                           std::make_tuple(2, 8, 4),    // m < default grain
                                           std::make_tuple(7, 9, 5),    // nothing divides 4
                                           std::make_tuple(13, 31, 17),  // prime everything
                                           std::make_tuple(64, 33, 66)));

// MatMulTransposedB computes rows in 3x4 tiles where it can; a one-row
// call takes the row kernel alone. Every output must be bitwise the row
// kernel's, serial and pooled: m 1..7 covers no tile, whole tiles and
// leftover rows, n 1..9 leftover columns, and k % 8 != 0 the scalar tail.
TEST(OpsTest, TiledMatMulTransposedBMatchesRowKernel) {
  ThreadPool pool(4);
  for (const std::size_t k : {8UL, 13UL, 128UL, 256UL}) {
    for (const std::size_t n : {1UL, 2UL, 3UL, 4UL, 5UL, 6UL, 7UL, 8UL, 9UL, 64UL, 257UL}) {
      for (std::size_t m = 1; m <= 7; ++m) {
        SCOPED_TRACE(testing::Message() << "m=" << m << " n=" << n << " k=" << k);
        Rng rng(m * 100003 + n * 101 + k);
        const Tensor a = Tensor::Randn({m, k}, rng);
        const Tensor bt = Tensor::Randn({n, k}, rng);
        Tensor by_row({m, n});
        for (std::size_t i = 0; i < m; ++i) {
          Tensor arow({1, k});
          std::memcpy(arow.data(), a.row(i), k * sizeof(float));
          Tensor orow({1, n});
          MatMulTransposedB(arow, bt, orow);
          std::memcpy(by_row.row(i), orow.data(), n * sizeof(float));
        }
        Tensor serial({m, n});
        Tensor pooled({m, n});
        MatMulTransposedB(a, bt, serial);
        MatMulTransposedB(a, bt, pooled, &pool);
        EXPECT_EQ(std::memcmp(serial.data(), by_row.data(), m * n * sizeof(float)), 0);
        EXPECT_EQ(std::memcmp(pooled.data(), by_row.data(), m * n * sizeof(float)), 0);
      }
    }
  }
}

// --- Attention kernel: bitwise-identical to its definition ---------------
//
// AttendHead's SIMD path must reproduce the scalar definition bit for bit
// (DESIGN.md §9): every key count around the 4-key step, head dims on the
// SIMD path, and one (6) that takes the scalar fallback.

// AttendHead as ops.h defines it, from the scalar primitives.
void ReferenceAttendHead(const float* q, const float* k, const float* v, std::size_t stride,
                         std::size_t head_dim, std::size_t ctx, float scale, float* probs,
                         float* out) {
  for (std::size_t j = 0; j < ctx; ++j) {
    probs[j] = DotUnchecked(q, k + j * stride, head_dim) * scale;
  }
  SoftmaxRow({probs, ctx});
  std::fill(out, out + head_dim, 0.0f);
  for (std::size_t j = 0; j < ctx; ++j) {
    AxpyUnchecked(probs[j], v + j * stride, out, head_dim);
  }
}

class AttendHeadShapes : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(AttendHeadShapes, BitwiseMatchesDefinition) {
  const auto [head_dim, ctx] = GetParam();
  // Rows hold two heads plus padding, like a GQA cache row of kv_dim
  // floats; the kernel reads the second head.
  const std::size_t stride = 2 * head_dim + 4;
  Rng rng(head_dim * 1000 + ctx);
  const Tensor q = Tensor::Randn({head_dim}, rng);
  const Tensor k = Tensor::Randn({ctx, stride}, rng, 2.0f);
  const Tensor v = Tensor::Randn({ctx, stride}, rng);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  std::vector<float> probs(ctx);
  std::vector<float> out(head_dim);
  std::vector<float> ref_probs(ctx);
  std::vector<float> ref_out(head_dim);
  AttendHead(q.data(), k.data() + head_dim, v.data() + head_dim, stride, head_dim, ctx, scale,
             probs.data(), out.data());
  ReferenceAttendHead(q.data(), k.data() + head_dim, v.data() + head_dim, stride, head_dim, ctx,
                      scale, ref_probs.data(), ref_out.data());
  EXPECT_EQ(std::memcmp(probs.data(), ref_probs.data(), ctx * sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(out.data(), ref_out.data(), head_dim * sizeof(float)), 0);
}

INSTANTIATE_TEST_SUITE_P(HeadDimsContexts, AttendHeadShapes,
                         ::testing::Combine(::testing::Values(4UL, 6UL, 8UL, 16UL, 32UL),
                                            ::testing::Values(1UL, 3UL, 4UL, 5UL, 17UL, 256UL)));

// --- ExpF: bitwise std::exp ----------------------------------------------
//
// SoftmaxRow and SiluInPlace take their exps from ExpF only where it is
// selected (DESIGN.md §9); these cases check it against the libm the test
// runs with and skip where it is not selected.

// Number of xs whose ExpF differs from std::exp in any bit; prints the
// first few.
std::size_t CountExpFMismatches(const std::vector<float>& xs) {
  std::vector<float> ys(xs.size());
  ExpFArray(xs, ys);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const float want = std::exp(xs[i]);
    if (std::bit_cast<std::uint32_t>(ys[i]) != std::bit_cast<std::uint32_t>(want)) {
      if (++mismatches <= 8) {
        ADD_FAILURE() << std::hexfloat << "ExpF(" << xs[i] << ") = " << ys[i]
                      << ", std::exp = " << want;
      }
    }
  }
  return mismatches;
}

TEST(ExpFTest, MatchesStdExpOnStridedSweep) {
  if (!ExpFSelected()) {
    GTEST_SKIP() << "ExpF is not selected (no AVX2+FMA, or its check against std::exp failed)";
  }
  // Every 4099th bit pattern (a prime stride, so the low mantissa bits
  // vary), about a million inputs across both signs and every exponent.
  std::vector<float> xs;
  for (std::uint64_t bits = 0; bits < (1ULL << 32); bits += 4099) {
    xs.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(bits)));
  }
  EXPECT_EQ(CountExpFMismatches(xs), 0U);
}

TEST(ExpFTest, MatchesStdExpAtBoundaries) {
  if (!ExpFSelected()) {
    GTEST_SKIP() << "ExpF is not selected (no AVX2+FMA, or its check against std::exp failed)";
  }
  std::vector<float> xs;
  const auto around = [&xs](std::uint32_t bits) {
    for (std::uint32_t b = bits - 2; b != bits + 3; ++b) {
      xs.push_back(std::bit_cast<float>(b));
    }
  };
  around(0x00000002U);  // +0 and the smallest positive subnormals
  around(0x80000002U);  // -0 and the smallest negative subnormals
  around(0x00800000U);  // the subnormal / normal edge
  around(0x80800000U);
  around(0x42b00000U);  // 88: the main path's upper edge
  around(0xc2b00000U);  // -88
  around(0x42b17218U);  // 88.72: exp overflows above it
  around(0xc2aeac50U);  // -87.34: results turn subnormal below it
  around(0xc2cff1b5U);  // -103.97: exp underflows to 0 below it
  around(0x7f800002U);  // +inf and the NaNs beside it
  around(0xff800002U);  // -inf and the NaNs beside it
  xs.push_back(std::numeric_limits<float>::quiet_NaN());
  xs.push_back(-std::numeric_limits<float>::quiet_NaN());
  xs.push_back(std::numeric_limits<float>::max());
  xs.push_back(std::numeric_limits<float>::lowest());
  EXPECT_EQ(CountExpFMismatches(xs), 0U);
}

// Every float: about 50 s on one core, so it runs only when asked for
// (--gtest_also_run_disabled_tests; CI's release job does). It shows
// whether the sampled self-check that selected ExpF was fooled by the libm
// the test runs with.
TEST(ExpFTest, DISABLED_MatchesStdExpOnEveryFloat) {
  if (!ExpFSelected()) {
    GTEST_SKIP() << "ExpF is not selected (no AVX2+FMA, or its check against std::exp failed)";
  }
  constexpr std::uint64_t kBlock = 1 << 20;
  std::vector<float> xs(kBlock);
  std::size_t mismatches = 0;
  for (std::uint64_t base = 0; base < (1ULL << 32); base += kBlock) {
    for (std::uint64_t i = 0; i < kBlock; ++i) {
      xs[i] = std::bit_cast<float>(static_cast<std::uint32_t>(base + i));
    }
    mismatches += CountExpFMismatches(xs);
  }
  EXPECT_EQ(mismatches, 0U);
}

// SoftmaxRow and SiluInPlace against their scalar definitions (ops.h), for
// every length around the 8-lane step. Wide inputs send some exps through
// the special-case lanes (|x| >= 88).
TEST(OpsTest, SoftmaxRowMatchesDefinition) {
  for (const float spread : {1.0f, 8.0f, 60.0f}) {
    for (std::size_t n = 1; n <= 40; ++n) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " spread=" << spread);
      Rng rng(n * 31 + static_cast<std::size_t>(spread));
      const Tensor x = Tensor::Randn({n}, rng, spread);
      std::vector<float> got(x.data(), x.data() + n);
      std::vector<float> want = got;
      SoftmaxRow(got);
      float max_v = -INFINITY;
      for (const float v : want) {
        max_v = std::max(max_v, v);
      }
      float sum = 0.0f;
      for (float& v : want) {
        v = std::exp(v - max_v);
        sum += v;
      }
      const float inv = 1.0f / sum;
      for (float& v : want) {
        v *= inv;
      }
      EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0);
    }
  }
}

TEST(OpsTest, SiluInPlaceMatchesDefinition) {
  for (const float spread : {1.0f, 8.0f, 60.0f}) {
    for (std::size_t n = 1; n <= 40; ++n) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " spread=" << spread);
      Rng rng(n * 37 + static_cast<std::size_t>(spread));
      Tensor got = Tensor::Randn({n}, rng, spread);
      std::vector<float> want(got.data(), got.data() + n);
      SiluInPlace(got);
      for (float& v : want) {
        v = v / (1.0f + std::exp(-v));
      }
      EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0);
    }
  }
}

// --- ScratchArena ---------------------------------------------------------

TEST(ScratchArenaTest, Alloc2dShapesAndWritable) {
  ScratchArena arena;
  Tensor t = arena.Alloc2d(3, 5);
  EXPECT_EQ(t.dim(0), 3U);
  EXPECT_EQ(t.dim(1), 5U);
  t.Fill(2.5f);
  EXPECT_EQ(t.at2(2, 4), 2.5f);
}

TEST(ScratchArenaTest, PointersStableAcrossGrowth) {
  ScratchArena arena;
  Tensor first = arena.Alloc2d(4, 4);
  first.Fill(7.0f);
  float* base = first.data();
  // Force several slab growths; earlier allocations must not move.
  for (int i = 0; i < 8; ++i) {
    (void)arena.AllocSpan(1 << (10 + i));
  }
  EXPECT_EQ(first.data(), base);
  EXPECT_EQ(first.at2(3, 3), 7.0f);
}

TEST(ScratchArenaTest, ResetReusesCapacityWithoutGrowth) {
  ScratchArena arena;
  (void)arena.AllocSpan(10000);
  arena.Reset();
  const std::size_t cap = arena.capacity();
  EXPECT_GE(cap, 10000U);
  // Everything fits into the coalesced slab: capacity must not grow again.
  (void)arena.AllocSpan(4000);
  (void)arena.AllocSpan(4000);
  EXPECT_EQ(arena.capacity(), cap);
}

TEST(ScratchArenaTest, SpansDoNotOverlap) {
  ScratchArena arena;
  auto a = arena.AllocSpan(100);
  auto b = arena.AllocSpan(100);
  std::fill(a.begin(), a.end(), 1.0f);
  std::fill(b.begin(), b.end(), 2.0f);
  for (float v : a) {
    EXPECT_EQ(v, 1.0f);
  }
}

}  // namespace
}  // namespace ca
