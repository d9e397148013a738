// RoPE properties the decoupled-PE scheme depends on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/model/rope.h"
#include "src/tensor/ops.h"

namespace ca {
namespace {

std::vector<float> RandomVec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.NextGaussian());
  }
  return v;
}

float Norm(const std::vector<float>& v) {
  float s = 0.0f;
  for (const float x : v) {
    s += x * x;
  }
  return std::sqrt(s);
}

TEST(RopeTest, PositionZeroIsIdentity) {
  RopeTable rope(8, 10000.0f, /*max_positions=*/1);
  std::vector<float> v = RandomVec(8, 1);
  const std::vector<float> orig = v;
  rope.Apply(v, 0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i], orig[i], 1e-6f);
  }
}

TEST(RopeTest, PreservesNorm) {
  RopeTable rope(16, 10000.0f, /*max_positions=*/4097);
  for (std::size_t pos : {1UL, 7UL, 100UL, 4096UL}) {
    std::vector<float> v = RandomVec(16, pos);
    const float before = Norm(v);
    rope.Apply(v, pos);
    EXPECT_NEAR(Norm(v), before, 1e-4f) << "pos " << pos;
  }
}

TEST(RopeTest, InverseUndoesApply) {
  RopeTable rope(32, 10000.0f, /*max_positions=*/124);
  std::vector<float> v = RandomVec(32, 3);
  const std::vector<float> orig = v;
  rope.Apply(v, 123);
  rope.ApplyInverse(v, 123);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i], orig[i], 1e-5f);
  }
}

// The core RoPE property: <rope(q, m), rope(k, n)> depends only on m - n.
// This is what makes position re-embedding after truncation sound: shifting
// all positions by the same offset leaves attention scores unchanged.
TEST(RopeTest, ScoreDependsOnlyOnRelativePosition) {
  RopeTable rope(16, 10000.0f, /*max_positions=*/2054);
  const std::vector<float> q0 = RandomVec(16, 10);
  const std::vector<float> k0 = RandomVec(16, 11);

  auto score = [&](std::size_t m, std::size_t n) {
    std::vector<float> q = q0;
    std::vector<float> k = k0;
    rope.Apply(q, m);
    rope.Apply(k, n);
    return Dot(q, k);
  };

  // Same relative distance 5 at different absolute offsets.
  const float s1 = score(5, 0);
  const float s2 = score(105, 100);
  const float s3 = score(2053, 2048);
  EXPECT_NEAR(s1, s2, 1e-3f);
  EXPECT_NEAR(s1, s3, 1e-2f);

  // Different relative distance must (generically) give a different score.
  const float s4 = score(9, 0);
  EXPECT_GT(std::fabs(s1 - s4), 1e-3f);
}

TEST(RopeTest, ApplyAllHeadsRotatesEachHead) {
  RopeTable rope(4, 10000.0f, /*max_positions=*/10);
  std::vector<float> packed = RandomVec(12, 21);  // 3 heads x dim 4
  std::vector<float> head0(packed.begin(), packed.begin() + 4);
  std::vector<float> head2(packed.begin() + 8, packed.end());
  rope.ApplyAllHeads(packed, 9);
  rope.Apply(head0, 9);
  rope.Apply(head2, 9);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(packed[i], head0[i], 1e-6f);
    EXPECT_NEAR(packed[8 + i], head2[i], 1e-6f);
  }
}

TEST(RopeDeathTest, OddDimAborts) {
  EXPECT_DEATH(RopeTable(7, 10000.0f, 1), "CA_CHECK failed");
}

TEST(RopeDeathTest, PositionPastTableAborts) {
  const RopeTable rope(8, 10000.0f, /*max_positions=*/16);
  std::vector<float> v = RandomVec(8, 5);
  rope.Apply(v, 15);  // the last table row
  EXPECT_DEATH(rope.Apply(v, 16), "RoPE position past the table");
  EXPECT_DEATH(rope.ApplyInverse(v, 16), "RoPE position past the table");
}

// RoPE from its definition, with a fresh cos/sin per call: pair (2i, 2i+1)
// turns by pos * theta^(-2i/head_dim), backwards when `inverse`.
void RotateByFormula(std::vector<float>& v, std::size_t pos, float theta, bool inverse) {
  // Read through a volatile so the compiler cannot fold pow/cos/sin at
  // build time: its folding may round differently from the runtime libm.
  const volatile float runtime_theta = theta;
  const std::size_t head_dim = v.size();
  for (std::size_t i = 0; i < head_dim / 2; ++i) {
    const float inv_freq =
        std::pow(runtime_theta, -2.0f * static_cast<float>(i) / static_cast<float>(head_dim));
    const float angle = static_cast<float>(pos) * inv_freq;
    const float c = std::cos(angle);
    const float s = std::sin(angle);
    const float x = v[2 * i];
    const float y = v[2 * i + 1];
    if (inverse) {
      v[2 * i] = x * c + y * s;
      v[2 * i + 1] = -x * s + y * c;
    } else {
      v[2 * i] = x * c - y * s;
      v[2 * i + 1] = x * s + y * c;
    }
  }
}

// The table only caches the formula's cos/sin: at every table position,
// Apply and ApplyInverse produce the formula's floats bit for bit.
TEST(RopeTest, TableMatchesFormulaBitwise) {
  for (const auto& [dim, theta, positions] :
       {std::tuple<std::size_t, float, std::size_t>{16, 10000.0f, 256},
        {4, 10000.0f, 128},
        {32, 500000.0f, 512}}) {
    const RopeTable rope(dim, theta, positions);
    for (std::size_t pos = 0; pos < positions; ++pos) {
      const std::vector<float> v0 = RandomVec(dim, pos);
      std::vector<float> table = v0;
      std::vector<float> formula = v0;
      rope.Apply(table, pos);
      RotateByFormula(formula, pos, theta, /*inverse=*/false);
      ASSERT_EQ(std::memcmp(table.data(), formula.data(), dim * sizeof(float)), 0)
          << "Apply, dim " << dim << " pos " << pos;
      table = v0;
      formula = v0;
      rope.ApplyInverse(table, pos);
      RotateByFormula(formula, pos, theta, /*inverse=*/true);
      ASSERT_EQ(std::memcmp(table.data(), formula.data(), dim * sizeof(float)), 0)
          << "ApplyInverse, dim " << dim << " pos " << pos;
    }
  }
}

// Parameterised sweep over head dims and thetas: norm preservation and
// relative-position invariance must hold for every configuration the model
// presets use.
class RopeSweep : public ::testing::TestWithParam<std::tuple<std::size_t, float>> {};

TEST_P(RopeSweep, RelativeInvariance) {
  const auto [dim, theta] = GetParam();
  RopeTable rope(dim, theta, /*max_positions=*/118);
  const std::vector<float> q0 = RandomVec(dim, dim);
  const std::vector<float> k0 = RandomVec(dim, dim + 1);
  auto score = [&](std::size_t m, std::size_t n) {
    std::vector<float> q = q0;
    std::vector<float> k = k0;
    rope.Apply(q, m);
    rope.Apply(k, n);
    return Dot(q, k);
  };
  EXPECT_NEAR(score(17, 3), score(117, 103), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(DimsThetas, RopeSweep,
                         ::testing::Combine(::testing::Values(4UL, 8UL, 16UL, 64UL, 128UL),
                                            ::testing::Values(1000.0f, 10000.0f, 500000.0f)));

}  // namespace
}  // namespace ca
