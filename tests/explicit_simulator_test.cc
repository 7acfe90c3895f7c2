#include "db/explicit_simulator.h"

#include <gtest/gtest.h>

#include <cmath>

namespace granulock::db {
namespace {

model::SystemConfig QuickConfig() {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.tmax = 2000.0;
  return cfg;
}

core::SimulationMetrics MustRun(const model::SystemConfig& cfg,
                                const workload::WorkloadSpec& spec,
                                uint64_t seed = 1,
                                ExplicitSimulator::Options options = {}) {
  auto result = ExplicitSimulator::RunOnce(cfg, spec, seed, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value_or(core::SimulationMetrics{});
}

TEST(ExplicitSimulatorTest, CompletesTransactions) {
  const model::SystemConfig cfg = QuickConfig();
  const auto m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_GT(m.totcom, 0);
  EXPECT_GT(m.throughput, 0.0);
  EXPECT_GT(m.response_time, 0.0);
}

TEST(ExplicitSimulatorTest, DeterministicForSeed) {
  const model::SystemConfig cfg = QuickConfig();
  const auto spec = workload::WorkloadSpec::Base(cfg);
  const auto a = MustRun(cfg, spec, 5);
  const auto b = MustRun(cfg, spec, 5);
  EXPECT_EQ(a.totcom, b.totcom);
  EXPECT_DOUBLE_EQ(a.totcpus, b.totcpus);
}

TEST(ExplicitSimulatorTest, SingleLockSerializes) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 1;
  const auto m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_LE(m.avg_active, 1.0 + 1e-9);
  EXPECT_GT(m.lock_denials, 0);
}

TEST(ExplicitSimulatorTest, BusyTimeConservation) {
  const model::SystemConfig cfg = QuickConfig();
  const auto m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_GE(m.totcpus, m.lockcpus - 1e-9);
  EXPECT_GE(m.totios, m.lockios - 1e-9);
  EXPECT_LE(m.cpu_utilization, 1.0 + 1e-9);
  EXPECT_LE(m.io_utilization, 1.0 + 1e-9);
}

TEST(ExplicitSimulatorTest, AllReadersNeverConflict) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 10;  // coarse enough that writers WOULD conflict
  ExplicitSimulator::Options options;
  options.read_fraction = 1.0;
  const auto m = MustRun(cfg, workload::WorkloadSpec::Base(cfg), 1, options);
  EXPECT_EQ(m.lock_denials, 0);
  EXPECT_GT(m.totcom, 0);
}

TEST(ExplicitSimulatorTest, ReadersImproveConcurrencyOverWriters) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 10;
  const auto spec = workload::WorkloadSpec::Base(cfg);
  ExplicitSimulator::Options writers;  // read_fraction = 0
  ExplicitSimulator::Options readers;
  readers.read_fraction = 1.0;
  const auto mw = MustRun(cfg, spec, 1, writers);
  const auto mr = MustRun(cfg, spec, 1, readers);
  EXPECT_GT(mr.avg_active, mw.avg_active);
}

TEST(ExplicitSimulatorTest, InvalidReadFractionRejected) {
  const model::SystemConfig cfg = QuickConfig();
  ExplicitSimulator::Options options;
  for (const double fraction : {1.5, std::nan("")}) {
    options.read_fraction = fraction;
    auto result = ExplicitSimulator::RunOnce(
        cfg, workload::WorkloadSpec::Base(cfg), 1, options);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ExplicitSimulatorTest, NegativeCoarseThresholdRejected) {
  const model::SystemConfig cfg = QuickConfig();
  ExplicitSimulator::Options options;
  options.coarse_threshold = -1;
  auto result = ExplicitSimulator::RunOnce(
      cfg, workload::WorkloadSpec::Base(cfg), 1, options);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExplicitSimulatorTest, RunTwiceFails) {
  const model::SystemConfig cfg = QuickConfig();
  ExplicitSimulator simulator(cfg, workload::WorkloadSpec::Base(cfg), 1);
  EXPECT_TRUE(simulator.Run().ok());
  EXPECT_EQ(simulator.Run().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ExplicitSimulatorHierarchicalTest, RunsWithCoarseThreshold) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 100;
  ExplicitSimulator::Options options;
  options.strategy = ExplicitSimulator::LockingStrategy::kHierarchical;
  options.coarse_threshold = 100;  // large txns take the whole database
  const auto m = MustRun(cfg, workload::WorkloadSpec::Base(cfg), 1, options);
  EXPECT_GT(m.totcom, 0);
}

TEST(ExplicitSimulatorHierarchicalTest, ZeroThresholdKeepsEveryoneFine) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 100;
  ExplicitSimulator::Options options;
  options.strategy = ExplicitSimulator::LockingStrategy::kHierarchical;
  options.coarse_threshold = 0;
  const auto m = MustRun(cfg, workload::WorkloadSpec::Base(cfg), 1, options);
  EXPECT_GT(m.totcom, 0);
}

TEST(ExplicitSimulatorHierarchicalTest,
     CoarseLocksReduceOverheadForLargeTransactions) {
  // All transactions large and coarse-locked: lock cost per attempt is a
  // single lock, so total lock overhead is far below the flat strategy's.
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 1000;
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.sizes = std::make_shared<workload::ConstantSizeDistribution>(500);

  ExplicitSimulator::Options flat;
  ExplicitSimulator::Options coarse;
  coarse.strategy = ExplicitSimulator::LockingStrategy::kHierarchical;
  coarse.coarse_threshold = 1;  // everyone is "large"
  const auto mf = MustRun(cfg, spec, 1, flat);
  const auto mc = MustRun(cfg, spec, 1, coarse);
  EXPECT_LT(mc.lockios, mf.lockios * 0.2);
}

TEST(ExplicitSimulatorHierarchicalTest, MultiFileHierarchyRuns) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 100;
  ExplicitSimulator::Options options;
  options.strategy = ExplicitSimulator::LockingStrategy::kHierarchical;
  options.num_files = 10;
  options.coarse_threshold = 250;
  const auto m = MustRun(cfg, workload::WorkloadSpec::Base(cfg), 1, options);
  EXPECT_GT(m.totcom, 0);
}

TEST(ExplicitSimulatorHierarchicalTest, EscalationReducesLockCost) {
  // Large sequential transactions touching many granules of one file:
  // escalation collapses them to one file lock, slashing lock overhead.
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 1000;
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.sizes = std::make_shared<workload::ConstantSizeDistribution>(400);

  ExplicitSimulator::Options plain;
  plain.strategy = ExplicitSimulator::LockingStrategy::kHierarchical;
  plain.num_files = 5;
  ExplicitSimulator::Options escalating = plain;
  escalating.escalation_threshold = 10;
  const auto mp = MustRun(cfg, spec, 1, plain);
  const auto me = MustRun(cfg, spec, 1, escalating);
  EXPECT_LT(me.lockios_sum, 0.3 * mp.lockios_sum);
  EXPECT_GT(me.totcom, 0);
}

TEST(ExplicitSimulatorHierarchicalTest, InvalidFileCountRejected) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 10;
  ExplicitSimulator::Options options;
  options.strategy = ExplicitSimulator::LockingStrategy::kHierarchical;
  options.num_files = 20;  // more files than granules
  auto result = ExplicitSimulator::RunOnce(
      cfg, workload::WorkloadSpec::Base(cfg), 1, options);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExplicitSimulatorTest, WorstPlacementRuns) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 100;
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.placement = model::Placement::kWorst;
  const auto m = MustRun(cfg, spec);
  EXPECT_GT(m.totcom, 0);
}

TEST(ExplicitSimulatorTest, RandomPlacementRuns) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 100;
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.placement = model::Placement::kRandom;
  const auto m = MustRun(cfg, spec);
  EXPECT_GT(m.totcom, 0);
}

}  // namespace
}  // namespace granulock::db
