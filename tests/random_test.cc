#include "util/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace granulock {
namespace {

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(1234);
  SplitMix64 b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsProduceDifferentStreams) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() != b.NextUint64()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, NextDoubleInHalfOpenUnit) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleOpenClosedExcludesZero) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDoubleOpenClosed();
    ASSERT_GT(x, 0.0);
    ASSERT_LE(x, 1.0);
  }
}

TEST(RngTest, UniformIntCoversFullRangeInclusively) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(1, 6);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all six faces appear
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.UniformInt(5, 5), 5);
  }
}

TEST(RngTest, UniformIntMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.UniformInt(1, 100));
  const double mean = sum / n;
  EXPECT_NEAR(mean, 50.5, 0.5);
}

TEST(RngTest, UniformDoubleRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.UniformDouble(-2.0, 3.0);
    ASSERT_GE(x, -2.0);
    ASSERT_LT(x, 3.0);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(9);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RngTest, SampleWithoutReplacementBasicProperties) {
  Rng rng(17);
  std::vector<int64_t> sample;
  for (int trial = 0; trial < 100; ++trial) {
    rng.SampleWithoutReplacement(50, 10, &sample);
    ASSERT_EQ(sample.size(), 10u);
    ASSERT_TRUE(std::is_sorted(sample.begin(), sample.end()));
    ASSERT_TRUE(std::adjacent_find(sample.begin(), sample.end()) ==
                sample.end());  // distinct
    for (int64_t v : sample) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, 50);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(19);
  std::vector<int64_t> sample;
  rng.SampleWithoutReplacement(10, 10, &sample);
  ASSERT_EQ(sample.size(), 10u);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(sample[static_cast<size_t>(i)], i);
}

TEST(RngTest, SampleWithoutReplacementEmpty) {
  Rng rng(19);
  std::vector<int64_t> sample{4, 2};  // replaced, not appended to
  rng.SampleWithoutReplacement(10, 0, &sample);
  EXPECT_TRUE(sample.empty());
}

TEST(RngTest, SampleWithoutReplacementIsUniform) {
  // Each element of [0,10) should appear in a 5-subset with p = 0.5.
  Rng rng(23);
  std::vector<int> counts(10, 0);
  std::vector<int64_t> sample;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    rng.SampleWithoutReplacement(10, 5, &sample);
    for (int64_t v : sample) counts[static_cast<size_t>(v)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.5, 0.02);
  }
}

TEST(RngTest, SampleWithoutReplacementMatchesFloydDrawForDraw) {
  // Textbook Floyd over a std::set: the sampler must choose the same set
  // from the same draws, for both element types and a reused buffer, and
  // leave the stream where the textbook version does.
  const auto reference = [](Rng& rng, int64_t n, int64_t k) {
    std::set<int64_t> chosen;
    for (int64_t j = n - k; j < n; ++j) {
      if (!chosen.insert(rng.UniformInt(0, j)).second) chosen.insert(j);
    }
    return std::vector<int64_t>(chosen.begin(), chosen.end());
  };
  Rng rng(31);
  Rng ref(31);
  std::vector<int64_t> wide;
  std::vector<int32_t> narrow;
  for (const auto& [n, k] : std::vector<std::pair<int64_t, int64_t>>{
           {1, 1}, {30, 7}, {100, 20}, {5000, 250}, {5000, 500},
           {64, 64}, {12, 3}}) {
    for (int round = 0; round < 20; ++round) {
      rng.SampleWithoutReplacement(n, k, &wide);
      ASSERT_EQ(wide, reference(ref, n, k)) << n << " " << k;
      rng.SampleWithoutReplacement(n, k, &narrow);
      ASSERT_EQ(std::vector<int64_t>(narrow.begin(), narrow.end()),
                reference(ref, n, k))
          << n << " " << k;
    }
  }
  EXPECT_EQ(rng.NextUint64(), ref.NextUint64());
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(RngTest, ForkStreamsAreIndependentAndReproducible) {
  Rng parent(101);
  Rng c1 = parent.Fork(0);
  Rng c1_again = parent.Fork(0);
  EXPECT_EQ(c1.NextUint64(), c1_again.NextUint64());
  // Different streams should not collide on the first draw.
  Rng d1 = parent.Fork(0);
  Rng d2 = parent.Fork(1);
  EXPECT_NE(d1.NextUint64(), d2.NextUint64());
}

TEST(ZipfGeneratorTest, ValuesInRange) {
  ZipfGenerator zipf(100, 0.9);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = zipf.Sample(rng);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 100);
  }
}

TEST(ZipfGeneratorTest, ThetaZeroIsRoughlyUniform) {
  ZipfGenerator zipf(10, 0.0);
  Rng rng(2);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[static_cast<size_t>(zipf.Sample(rng))]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.015);
  }
}

TEST(ZipfGeneratorTest, HighThetaConcentratesOnHotKeys) {
  ZipfGenerator zipf(1000, 0.99);
  Rng rng(3);
  int hot10 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) < 10) ++hot10;
  }
  // Under theta=0.99 the top 1% of keys draw ~39% of accesses
  // (zeta(10,.99)/zeta(1000,.99)); uniform would give them 1%.
  EXPECT_GT(static_cast<double>(hot10) / n, 0.35);
}

TEST(ZipfGeneratorTest, RankFrequenciesMatchPowerLaw) {
  // P(0)/P(1) should be ~2^theta.
  const double theta = 0.8;
  ZipfGenerator zipf(100, theta);
  Rng rng(4);
  int c0 = 0, c1 = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    const int64_t v = zipf.Sample(rng);
    if (v == 0) ++c0;
    if (v == 1) ++c1;
  }
  EXPECT_NEAR(static_cast<double>(c0) / c1, std::pow(2.0, theta), 0.15);
}

TEST(ZipfGeneratorTest, SingleElementDomain) {
  ZipfGenerator zipf(1, 0.5);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 0);
}

TEST(RngTest, ForkDoesNotAdvanceParent) {
  Rng a(55);
  Rng b(55);
  (void)a.Fork(3);
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

}  // namespace
}  // namespace granulock
