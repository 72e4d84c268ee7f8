#include "util/prng.h"

#include <vector>

#include <gtest/gtest.h>

namespace maze {
namespace {

TEST(PrngTest, DeterministicForSeed) {
  Xorshift64Star a(123);
  Xorshift64Star b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(PrngTest, DifferentSeedsDiffer) {
  Xorshift64Star a(1);
  Xorshift64Star b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(PrngTest, ZeroSeedIsRemapped) {
  Xorshift64Star rng(0);
  // xorshift with zero state would be stuck at zero forever.
  EXPECT_NE(rng.Next(), 0u);
  EXPECT_NE(rng.Next(), rng.Next());
}

TEST(PrngTest, NextBoundedStaysInRange) {
  Xorshift64Star rng(7);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(PrngTest, NextBoundedCoversRange) {
  Xorshift64Star rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_GT(c, 8000);  // Roughly uniform: each bucket near 10000.
    EXPECT_LT(c, 12000);
  }
}

TEST(PrngTest, NextDoubleInUnitInterval) {
  Xorshift64Star rng(13);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(PrngTest, GaussianMomentsAreSane) {
  Xorshift64Star rng(17);
  double sum = 0;
  double sq = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.02);
  EXPECT_NEAR(sq / kSamples, 1.0, 0.05);
}

TEST(SplitMixTest, ProducesDistinctStreams) {
  uint64_t s1 = 42;
  uint64_t s2 = 43;
  EXPECT_NE(SplitMix64(s1), SplitMix64(s2));
  // Repeated calls advance the state.
  uint64_t s = 7;
  uint64_t first = SplitMix64(s);
  uint64_t second = SplitMix64(s);
  EXPECT_NE(first, second);
}

TEST(PrngTest, JumpMatchesStepping) {
  for (uint64_t steps : {0ull, 1ull, 2ull, 63ull, 64ull, 1000ull, 81920ull}) {
    Xorshift64Star stepped(77);
    for (uint64_t i = 0; i < steps; ++i) stepped.Next();
    Xorshift64Star jumped(77);
    jumped.Jump(steps);
    for (int i = 0; i < 4; ++i) ASSERT_EQ(jumped.Next(), stepped.Next()) << steps;
  }
}

TEST(PrngTest, JumpsCompose) {
  Xorshift64Star once(5);
  once.Jump((uint64_t{1} << 40) + 12345);
  Xorshift64Star twice(5);
  twice.Jump(uint64_t{1} << 40);
  twice.Jump(12345);
  EXPECT_EQ(once.Next(), twice.Next());
}

}  // namespace
}  // namespace maze
