#include "workload/size_distribution.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

namespace granulock::workload {
namespace {

TEST(UniformSizeTest, RangeAndMean) {
  UniformSizeDistribution dist(500);
  Rng rng(1);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const int64_t s = dist.Sample(rng);
    ASSERT_GE(s, 1);
    ASSERT_LE(s, 500);
    sum += static_cast<double>(s);
  }
  EXPECT_NEAR(sum / n, 250.5, 2.0);
  EXPECT_DOUBLE_EQ(dist.Mean(), 250.5);
  EXPECT_EQ(dist.MaxSize(), 500);
}

TEST(UniformSizeTest, DegenerateSizeOne) {
  UniformSizeDistribution dist(1);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dist.Sample(rng), 1);
  EXPECT_DOUBLE_EQ(dist.Mean(), 1.0);
}

TEST(UniformSizeTest, Describe) {
  EXPECT_EQ(UniformSizeDistribution(50).Describe(), "uniform{1..50}");
}

TEST(ConstantSizeTest, AlwaysSameValue) {
  ConstantSizeDistribution dist(250);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dist.Sample(rng), 250);
  EXPECT_DOUBLE_EQ(dist.Mean(), 250.0);
  EXPECT_EQ(dist.MaxSize(), 250);
  EXPECT_EQ(dist.Describe(), "constant{250}");
}

TEST(MixedSizeTest, CreateValidation) {
  auto small = std::make_shared<UniformSizeDistribution>(50);
  auto large = std::make_shared<UniformSizeDistribution>(500);

  EXPECT_FALSE(MixedSizeDistribution::Create({}).ok());
  EXPECT_FALSE(
      MixedSizeDistribution::Create({{0.5, small}, {0.6, large}}).ok());
  EXPECT_FALSE(
      MixedSizeDistribution::Create({{-0.1, small}, {1.1, large}}).ok());
  EXPECT_FALSE(MixedSizeDistribution::Create({{1.0, nullptr}}).ok());
  EXPECT_TRUE(
      MixedSizeDistribution::Create({{0.8, small}, {0.2, large}}).ok());
}

TEST(MixedSizeTest, CreateRejectsNonFiniteWeights) {
  auto small = std::make_shared<UniformSizeDistribution>(10);
  auto large = std::make_shared<UniformSizeDistribution>(100);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A NaN passes every comparison, so each check must reject it.
  EXPECT_FALSE(
      MixedSizeDistribution::Create({{nan, small}, {1.0, large}}).ok());
  EXPECT_FALSE(
      MixedSizeDistribution::Create({{1.0, small}, {nan, large}}).ok());
  EXPECT_FALSE(MixedSizeDistribution::Create({{nan, small}}).ok());
  EXPECT_FALSE(
      MixedSizeDistribution::Create({{inf, small}, {1.0, large}}).ok());
  EXPECT_FALSE(
      MixedSizeDistribution::Create({{inf, small}, {-inf, large}}).ok());
}

TEST(MixedSizeTest, PaperMixMeanAndMax) {
  // §3.6: 80% small (mean ~25.5), 20% large (mean ~250.5).
  auto mix = MakeSmallLargeMix(0.8, 50, 500);
  EXPECT_NEAR(mix->Mean(), 0.8 * 25.5 + 0.2 * 250.5, 1e-9);
  EXPECT_EQ(mix->MaxSize(), 500);
}

TEST(MixedSizeTest, EmpiricalComponentFrequencies) {
  auto mix = MakeSmallLargeMix(0.8, 50, 500);
  Rng rng(5);
  int large_count = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (mix->Sample(rng) > 50) ++large_count;
  }
  // Large draws above 50 occur with p = 0.2 * (450/500) = 0.18.
  EXPECT_NEAR(static_cast<double>(large_count) / n, 0.18, 0.01);
}

TEST(MixedSizeTest, EmpiricalMean) {
  auto mix = MakeSmallLargeMix(0.8, 50, 500);
  Rng rng(6);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(mix->Sample(rng));
  EXPECT_NEAR(sum / n, mix->Mean(), 1.5);
}

TEST(MixedSizeTest, DescribeListsComponents) {
  auto mix = MakeSmallLargeMix(0.8, 50, 500);
  const std::string d = mix->Describe();
  EXPECT_NE(d.find("80%"), std::string::npos);
  EXPECT_NE(d.find("uniform{1..50}"), std::string::npos);
  EXPECT_NE(d.find("uniform{1..500}"), std::string::npos);
}

TEST(MixedSizeTest, SingleComponentDegeneratesToComponent) {
  auto base = std::make_shared<ConstantSizeDistribution>(7);
  auto result = MixedSizeDistribution::Create({{1.0, base}});
  ASSERT_TRUE(result.ok());
  Rng rng(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ((*result)->Sample(rng), 7);
}

}  // namespace
}  // namespace granulock::workload
