#include "db/incremental_simulator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/granularity_simulator.h"

namespace granulock::db {
namespace {

model::SystemConfig QuickConfig() {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.tmax = 1500.0;
  cfg.maxtransize = 100;  // keep stage counts small for test speed
  return cfg;
}

core::SimulationMetrics MustRun(const model::SystemConfig& cfg,
                                const workload::WorkloadSpec& spec,
                                uint64_t seed = 1,
                                IncrementalSimulator::Options options = {}) {
  auto result = IncrementalSimulator::RunOnce(cfg, spec, seed, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value_or(core::SimulationMetrics{});
}

TEST(IncrementalSimulatorTest, CompletesTransactions) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 100;
  const auto m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_GT(m.totcom, 0);
  EXPECT_GT(m.throughput, 0.0);
  EXPECT_GT(m.response_time, 0.0);
}

TEST(IncrementalSimulatorTest, DeterministicForSeed) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 50;
  const auto spec = workload::WorkloadSpec::Base(cfg);
  const auto a = MustRun(cfg, spec, 9);
  const auto b = MustRun(cfg, spec, 9);
  EXPECT_EQ(a.totcom, b.totcom);
  EXPECT_DOUBLE_EQ(a.totcpus_sum, b.totcpus_sum);
  EXPECT_EQ(a.deadlock_aborts, b.deadlock_aborts);
}

TEST(IncrementalSimulatorTest, BusyTimeInvariantsHold) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 100;
  const auto m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_GE(m.totcpus, m.lockcpus - 1e-9);
  EXPECT_GE(m.totios, m.lockios - 1e-9);
  EXPECT_LE(m.totcpus, m.measured_time + 1e-6);
  EXPECT_LE(m.cpu_utilization, 1.0 + 1e-9);
  EXPECT_LE(m.io_utilization, 1.0 + 1e-9);
  EXPECT_LE(m.lock_denials, m.lock_requests);
}

TEST(IncrementalSimulatorTest, DeadlocksOccurAndAreResolved) {
  // Worst placement + contention: transactions lock scattered granules in
  // shuffled order while holding earlier ones — deadlocks are guaranteed
  // at this contention level, and the system must keep completing work.
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 20;
  cfg.ntrans = 20;
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.placement = model::Placement::kWorst;
  const auto m = MustRun(cfg, spec, 3);
  EXPECT_GT(m.deadlock_aborts, 0);
  EXPECT_GT(m.totcom, 0);
}

TEST(IncrementalSimulatorTest, SingleLockSystemCannotDeadlock) {
  // With one granule per transaction (ltot = 1 means everyone needs the
  // same single lock), a transaction never waits while holding a lock.
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 1;
  const auto m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_EQ(m.deadlock_aborts, 0);
  EXPECT_GT(m.totcom, 0);
}

TEST(IncrementalSimulatorTest, AllReadersNeverWaitOrDeadlock) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 10;
  IncrementalSimulator::Options options;
  options.read_fraction = 1.0;
  const auto m = MustRun(cfg, workload::WorkloadSpec::Base(cfg), 1, options);
  EXPECT_EQ(m.lock_denials, 0);
  EXPECT_EQ(m.deadlock_aborts, 0);
  EXPECT_GT(m.totcom, 0);
}

TEST(IncrementalSimulatorTest, InvalidReadFractionRejected) {
  const model::SystemConfig cfg = QuickConfig();
  const auto spec = workload::WorkloadSpec::Base(cfg);
  for (const double fraction : {-0.5, std::nan("")}) {
    IncrementalSimulator::Options options;
    options.read_fraction = fraction;
    EXPECT_EQ(IncrementalSimulator::RunOnce(cfg, spec, 1, options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  for (const double delay : {0.0, std::nan("")}) {
    IncrementalSimulator::Options options;
    options.restart_delay = delay;
    EXPECT_EQ(IncrementalSimulator::RunOnce(cfg, spec, 1, options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(IncrementalSimulatorTest, RunTwiceFails) {
  const model::SystemConfig cfg = QuickConfig();
  IncrementalSimulator simulator(cfg, workload::WorkloadSpec::Base(cfg), 1);
  EXPECT_TRUE(simulator.Run().ok());
  EXPECT_EQ(simulator.Run().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(IncrementalSimulatorTest, PopulationStaysBounded) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 50;
  const auto m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_LE(m.avg_active + m.avg_blocked,
            static_cast<double>(cfg.ntrans) + 1e-6);
}

TEST(IncrementalSimulatorTest,
     ClaimAsNeededPreservesConservativeConclusions) {
  // The paper's footnote-1 claim, re-verified: the incremental protocol
  // also shows moderate granularity beating both extremes.
  model::SystemConfig cfg = QuickConfig();
  cfg.tmax = 2500.0;
  const auto spec = workload::WorkloadSpec::Base(cfg);
  auto tp = [&](int64_t ltot) {
    model::SystemConfig c = cfg;
    c.ltot = ltot;
    return MustRun(c, spec, 42).throughput;
  };
  const double coarse = tp(1);
  const double mid = tp(20);
  const double fine = tp(5000);
  EXPECT_GT(mid, coarse);
  EXPECT_GT(mid, fine);
}

TEST(IncrementalSimulatorTest, UniprocessorRuns) {
  model::SystemConfig cfg = QuickConfig();
  cfg.npros = 1;
  cfg.ltot = 20;
  const auto m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_GT(m.totcom, 0);
}

}  // namespace
}  // namespace granulock::db
