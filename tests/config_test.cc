#include "model/config.h"

#include <limits>

#include <gtest/gtest.h>

namespace granulock::model {
namespace {

TEST(SystemConfigTest, Table1DefaultsMatchPaper) {
  const SystemConfig cfg = SystemConfig::Table1Defaults();
  EXPECT_EQ(cfg.dbsize, 5000);
  EXPECT_EQ(cfg.ntrans, 10);
  EXPECT_EQ(cfg.maxtransize, 500);
  EXPECT_DOUBLE_EQ(cfg.cputime, 0.05);
  EXPECT_DOUBLE_EQ(cfg.iotime, 0.2);
  EXPECT_DOUBLE_EQ(cfg.lcputime, 0.01);
  EXPECT_DOUBLE_EQ(cfg.liotime, 0.2);
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(SystemConfigTest, DefaultConstructedValidates) {
  SystemConfig cfg;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(SystemConfigTest, RejectsZeroDbsize) {
  SystemConfig cfg;
  cfg.dbsize = 0;
  EXPECT_EQ(cfg.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(SystemConfigTest, RejectsLtotOutOfRange) {
  SystemConfig cfg;
  cfg.ltot = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.ltot = cfg.dbsize + 1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.ltot = cfg.dbsize;  // one lock per entity is legal
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.ltot = 1;  // whole-database lock is legal
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(SystemConfigTest, RejectsBadNtrans) {
  SystemConfig cfg;
  cfg.ntrans = 0;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(SystemConfigTest, RejectsMaxtransizeLargerThanDb) {
  SystemConfig cfg;
  cfg.maxtransize = cfg.dbsize + 1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.maxtransize = cfg.dbsize;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(SystemConfigTest, RejectsNegativeServiceTimes) {
  SystemConfig cfg;
  cfg.liotime = -0.1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = SystemConfig{};
  cfg.cputime = -1.0;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(SystemConfigTest, AllowsZeroLockIoTime) {
  // liotime = 0 models the memory-resident lock table of §3.3.
  SystemConfig cfg;
  cfg.liotime = 0.0;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(SystemConfigTest, RejectsAllZeroTransactionWork) {
  SystemConfig cfg;
  cfg.cputime = 0.0;
  cfg.iotime = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(SystemConfigTest, RejectsBadNpros) {
  SystemConfig cfg;
  cfg.npros = 0;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(SystemConfigTest, RejectsBadTmaxAndWarmup) {
  SystemConfig cfg;
  cfg.tmax = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = SystemConfig{};
  cfg.warmup = cfg.tmax;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.warmup = -1.0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.warmup = cfg.tmax / 2;
  EXPECT_TRUE(cfg.Validate().ok());
  // Comparisons pass NaN through, and an infinite horizon never ends.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    cfg = SystemConfig{};
    cfg.tmax = bad;
    EXPECT_FALSE(cfg.Validate().ok()) << "tmax=" << bad;
    cfg = SystemConfig{};
    cfg.warmup = bad;
    EXPECT_FALSE(cfg.Validate().ok()) << "warmup=" << bad;
    cfg = SystemConfig{};
    cfg.think_time = bad;
    EXPECT_FALSE(cfg.Validate().ok()) << "think_time=" << bad;
    cfg = SystemConfig{};
    cfg.cputime = bad;
    EXPECT_FALSE(cfg.Validate().ok()) << "cputime=" << bad;
    cfg = SystemConfig{};
    cfg.liotime = bad;
    EXPECT_FALSE(cfg.Validate().ok()) << "liotime=" << bad;
  }
}

TEST(SystemConfigTest, ThinkTimeDefaultsToPaperModel) {
  EXPECT_DOUBLE_EQ(SystemConfig::Table1Defaults().think_time, 0.0);
  SystemConfig cfg;
  cfg.think_time = 50.0;
  EXPECT_TRUE(cfg.Validate().ok());
  EXPECT_NE(cfg.ToString().find("think_time=50"), std::string::npos);
}

TEST(SystemConfigTest, ToStringContainsKeyParameters) {
  const SystemConfig cfg = SystemConfig::Table1Defaults();
  const std::string s = cfg.ToString();
  EXPECT_NE(s.find("dbsize=5000"), std::string::npos);
  EXPECT_NE(s.find("ntrans=10"), std::string::npos);
  EXPECT_NE(s.find("maxtransize=500"), std::string::npos);
}

TEST(SystemConfigTest, EqualityComparesAllFields) {
  SystemConfig a = SystemConfig::Table1Defaults();
  SystemConfig b = a;
  EXPECT_EQ(a, b);
  b.ltot = 42;
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace granulock::model
