#include "db/transfer_simulator.h"

#include <gtest/gtest.h>

#include <cmath>

namespace granulock::db {
namespace {

model::SystemConfig TransferConfig() {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.dbsize = 200;  // accounts
  cfg.ltot = 20;
  cfg.ntrans = 10;
  cfg.npros = 4;
  cfg.maxtransize = 2;  // informational; the engine fixes size at 2
  cfg.tmax = 1500.0;
  return cfg;
}

TransferSimulator::Report MustRun(const model::SystemConfig& cfg,
                                  uint64_t seed,
                                  TransferSimulator::Options options = {}) {
  auto result = TransferSimulator::RunOnce(cfg, seed, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value_or(TransferSimulator::Report{});
}

TEST(TransferSimulatorTest, CompletesTransfers) {
  const auto report = MustRun(TransferConfig(), 1);
  EXPECT_GT(report.metrics.totcom, 0);
  EXPECT_GT(report.metrics.throughput, 0.0);
  EXPECT_GT(report.writes_applied, 0);
}

TEST(TransferSimulatorTest, LockingConservesMoney) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto report = MustRun(TransferConfig(), seed);
    EXPECT_TRUE(report.conserved) << "seed " << seed << ": "
                                  << report.initial_total << " -> "
                                  << report.final_total;
  }
}

class TransferGranularityTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(TransferGranularityTest, LockingConservesMoneyAtEveryGranularity) {
  model::SystemConfig cfg = TransferConfig();
  cfg.ltot = GetParam();
  const auto report = MustRun(cfg, 7);
  EXPECT_TRUE(report.conserved)
      << report.initial_total << " -> " << report.final_total;
  EXPECT_GT(report.metrics.totcom, 0);
}

INSTANTIATE_TEST_SUITE_P(Ltot, TransferGranularityTest,
                         ::testing::Values<int64_t>(1, 2, 10, 50, 200));

TEST(TransferSimulatorTest, NoLockingLosesUpdatesUnderContention) {
  // Few accounts, many concurrent transfers: unprotected read-then-write
  // windows overlap constantly, so money is (deterministically, given the
  // seed) not conserved.
  model::SystemConfig cfg = TransferConfig();
  cfg.dbsize = 5;
  cfg.ltot = 5;
  cfg.ntrans = 20;
  TransferSimulator::Options options;
  options.concurrency_control =
      TransferSimulator::ConcurrencyControl::kNoLocking;
  const auto report = MustRun(cfg, 1, options);
  EXPECT_FALSE(report.conserved)
      << "expected lost updates: " << report.initial_total << " -> "
      << report.final_total;
  EXPECT_GT(report.metrics.totcom, 0);
  EXPECT_EQ(report.metrics.lock_requests, 0);
}

TEST(TransferSimulatorTest, NoLockingIsFasterButWrong) {
  model::SystemConfig cfg = TransferConfig();
  cfg.dbsize = 20;
  cfg.ltot = 1;  // whole-database lock: locking serializes hard
  cfg.ntrans = 20;
  TransferSimulator::Options nolock;
  nolock.concurrency_control =
      TransferSimulator::ConcurrencyControl::kNoLocking;
  const auto locked = MustRun(cfg, 1);
  const auto unlocked = MustRun(cfg, 1, nolock);
  EXPECT_GT(unlocked.metrics.throughput, locked.metrics.throughput);
  EXPECT_TRUE(locked.conserved);
  EXPECT_FALSE(unlocked.conserved);
}

TEST(TransferSimulatorTest, FineGranularityHelpsSmallTransactions) {
  // Transfers touch 2 of 200 accounts: the paper's small-random-access
  // case, where fine granularity wins.
  model::SystemConfig cfg = TransferConfig();
  cfg.ntrans = 20;
  cfg.ltot = 1;
  const double serial = MustRun(cfg, 3).metrics.throughput;
  cfg.ltot = 200;
  const double fine = MustRun(cfg, 3).metrics.throughput;
  EXPECT_GT(fine, serial);
}

TEST(TransferSimulatorTest, HotSpotIncreasesContention) {
  model::SystemConfig cfg = TransferConfig();
  cfg.ntrans = 20;
  cfg.ltot = 200;
  TransferSimulator::Options uniform;
  TransferSimulator::Options hot;
  hot.hot_fraction = 1.0;  // every transfer debits account 0
  const auto r_uniform = MustRun(cfg, 5, uniform);
  const auto r_hot = MustRun(cfg, 5, hot);
  EXPECT_GT(r_hot.metrics.denial_rate, r_uniform.metrics.denial_rate);
  EXPECT_LT(r_hot.metrics.throughput, r_uniform.metrics.throughput);
  EXPECT_TRUE(r_hot.conserved);
}

TEST(TransferSimulatorTest, ZipfSkewIncreasesContention) {
  model::SystemConfig cfg = TransferConfig();
  cfg.ntrans = 20;
  cfg.ltot = 200;
  TransferSimulator::Options uniform;
  TransferSimulator::Options skewed;
  skewed.zipf_theta = 0.99;
  const auto r_uniform = MustRun(cfg, 5, uniform);
  const auto r_skewed = MustRun(cfg, 5, skewed);
  EXPECT_GT(r_skewed.metrics.denial_rate, r_uniform.metrics.denial_rate);
  EXPECT_TRUE(r_skewed.conserved);
}

TEST(TransferSimulatorTest, InvalidZipfThetaRejected) {
  TransferSimulator::Options options;
  for (const double theta : {1.0, std::nan("")}) {
    options.zipf_theta = theta;
    auto result = TransferSimulator::RunOnce(TransferConfig(), 1, options);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(TransferSimulatorTest, WriteCountMatchesCompletions) {
  const auto report = MustRun(TransferConfig(), 9);
  // Each completed transfer writes exactly two records; transfers still
  // in flight at tmax may have written at most two more each.
  EXPECT_GE(report.writes_applied, 2 * report.metrics.totcom);
  EXPECT_LE(report.writes_applied,
            2 * report.metrics.totcom + 2 * TransferConfig().ntrans);
}

TEST(TransferSimulatorTest, ThinkTimeDelaysReplacements) {
  // A terminal thinks between a completion and its next transfer, as in
  // the other engines, so fewer transfers complete; money is conserved.
  model::SystemConfig cfg = TransferConfig();
  const auto eager = MustRun(cfg, 5);
  cfg.think_time = 50.0;
  const auto thinking = MustRun(cfg, 5);
  EXPECT_GT(thinking.metrics.totcom, 0);
  EXPECT_LT(thinking.metrics.totcom, eager.metrics.totcom);
  EXPECT_TRUE(thinking.conserved);
}

TEST(TransferSimulatorTest, DeterministicForSeed) {
  const auto a = MustRun(TransferConfig(), 11);
  const auto b = MustRun(TransferConfig(), 11);
  EXPECT_EQ(a.metrics.totcom, b.metrics.totcom);
  EXPECT_EQ(a.final_total, b.final_total);
}

TEST(TransferSimulatorTest, RejectsTinyDatabases) {
  model::SystemConfig cfg = TransferConfig();
  cfg.dbsize = 1;
  cfg.ltot = 1;
  cfg.maxtransize = 1;
  auto result = TransferSimulator::RunOnce(cfg, 1);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TransferSimulatorTest, RejectsBadHotFraction) {
  TransferSimulator::Options options;
  for (const double fraction : {2.0, std::nan("")}) {
    options.hot_fraction = fraction;
    auto result = TransferSimulator::RunOnce(TransferConfig(), 1, options);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(TransferSimulatorTest, RunTwiceFails) {
  TransferSimulator simulator(TransferConfig(), 1);
  EXPECT_TRUE(simulator.Run().ok());
  EXPECT_EQ(simulator.Run().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(TransferSimulatorTest, InvariantMetricsHold) {
  const auto report = MustRun(TransferConfig(), 13);
  const core::SimulationMetrics& m = report.metrics;
  EXPECT_GE(m.totcpus, m.lockcpus - 1e-9);
  EXPECT_LE(m.totcpus, m.measured_time + 1e-6);
  EXPECT_LE(m.cpu_utilization, 1.0 + 1e-9);
  EXPECT_LE(m.io_utilization, 1.0 + 1e-9);
  EXPECT_LE(m.lock_denials, m.lock_requests);
}

}  // namespace
}  // namespace granulock::db
