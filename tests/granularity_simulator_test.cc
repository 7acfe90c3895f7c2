#include "core/granularity_simulator.h"

#include <gtest/gtest.h>

#include <cmath>

namespace granulock::core {
namespace {

model::SystemConfig QuickConfig() {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.tmax = 2000.0;
  return cfg;
}

SimulationMetrics MustRun(const model::SystemConfig& cfg,
                          const workload::WorkloadSpec& spec,
                          uint64_t seed = 1) {
  Result<SimulationMetrics> result =
      GranularitySimulator::RunOnce(cfg, spec, seed);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value_or(SimulationMetrics{});
}

TEST(GranularitySimulatorTest, CompletesTransactions) {
  const model::SystemConfig cfg = QuickConfig();
  const SimulationMetrics m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_GT(m.totcom, 0);
  EXPECT_GT(m.throughput, 0.0);
  EXPECT_GT(m.response_time, 0.0);
  EXPECT_DOUBLE_EQ(m.measured_time, cfg.tmax);
}

TEST(GranularitySimulatorTest, DeterministicForSeed) {
  const model::SystemConfig cfg = QuickConfig();
  const auto spec = workload::WorkloadSpec::Base(cfg);
  const SimulationMetrics a = MustRun(cfg, spec, 7);
  const SimulationMetrics b = MustRun(cfg, spec, 7);
  EXPECT_EQ(a.totcom, b.totcom);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  EXPECT_DOUBLE_EQ(a.response_time, b.response_time);
  EXPECT_DOUBLE_EQ(a.totcpus, b.totcpus);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(GranularitySimulatorTest, DifferentSeedsDiffer) {
  const model::SystemConfig cfg = QuickConfig();
  const auto spec = workload::WorkloadSpec::Base(cfg);
  const SimulationMetrics a = MustRun(cfg, spec, 1);
  const SimulationMetrics b = MustRun(cfg, spec, 2);
  EXPECT_NE(a.totcpus, b.totcpus);
}

TEST(GranularitySimulatorTest, SingleLockSerializesExecution) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 1;
  const SimulationMetrics m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  // With one lock for the whole database, at most one transaction can be
  // active at a time.
  EXPECT_LE(m.avg_active, 1.0 + 1e-9);
  EXPECT_GT(m.totcom, 0);
  // Many requests get denied while one transaction runs.
  EXPECT_GT(m.lock_denials, 0);
}

TEST(GranularitySimulatorTest, BusyTimeConservation) {
  const model::SystemConfig cfg = QuickConfig();
  const SimulationMetrics m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_GE(m.totcpus, m.lockcpus - 1e-9);
  EXPECT_GE(m.totios, m.lockios - 1e-9);
  EXPECT_GE(m.totcpus_sum, m.lockcpus_sum - 1e-9);
  EXPECT_GE(m.totios_sum, m.lockios_sum - 1e-9);
  const double npros = static_cast<double>(cfg.npros);
  EXPECT_NEAR(m.usefulcpus, (m.totcpus - m.lockcpus) / npros, 1e-9);
  EXPECT_NEAR(m.usefulios, (m.totios - m.lockios) / npros, 1e-9);
  // Union (wall-clock) busy time is bounded by the window; the sum by
  // npros windows; and the union never exceeds the sum.
  EXPECT_LE(m.totcpus, m.measured_time + 1e-6);
  EXPECT_LE(m.totios, m.measured_time + 1e-6);
  EXPECT_LE(m.totcpus, m.totcpus_sum + 1e-6);
  EXPECT_LE(m.totios, m.totios_sum + 1e-6);
  // No resource can be more than 100% utilized.
  EXPECT_LE(m.cpu_utilization, 1.0 + 1e-9);
  EXPECT_LE(m.io_utilization, 1.0 + 1e-9);
}

TEST(GranularitySimulatorTest, UsefulWorkMatchesCompletedService) {
  // Useful I/O per processor ~ throughput * E[NU] * iotime / npros; a
  // loose two-sided sanity band (in-flight work and size variance blur it).
  const model::SystemConfig cfg = QuickConfig();
  const SimulationMetrics m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  const double mean_nu = (static_cast<double>(cfg.maxtransize) + 1.0) / 2.0;
  const double expected_io_total =
      static_cast<double>(m.totcom) * mean_nu * cfg.iotime;
  const double measured_io_total = m.totios_sum - m.lockios_sum;
  EXPECT_GT(measured_io_total, 0.5 * expected_io_total);
  EXPECT_LT(measured_io_total, 1.5 * expected_io_total);
}

TEST(GranularitySimulatorTest, ZeroLockCostMeansNoLockBusyTime) {
  model::SystemConfig cfg = QuickConfig();
  cfg.lcputime = 0.0;
  cfg.liotime = 0.0;
  const SimulationMetrics m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_DOUBLE_EQ(m.lockcpus, 0.0);
  EXPECT_DOUBLE_EQ(m.lockios, 0.0);
  EXPECT_DOUBLE_EQ(m.lockcpus_sum, 0.0);
  EXPECT_DOUBLE_EQ(m.lockios_sum, 0.0);
  EXPECT_GT(m.totcom, 0);
}

TEST(GranularitySimulatorTest, MemoryResidentLockTableHasNoLockIo) {
  model::SystemConfig cfg = QuickConfig();
  cfg.liotime = 0.0;  // §3.3's in-memory lock table
  const SimulationMetrics m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_DOUBLE_EQ(m.lockios, 0.0);
  EXPECT_GT(m.lockcpus, 0.0);
}

TEST(GranularitySimulatorTest, MoreProcessorsMoreThroughput) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 100;
  cfg.npros = 1;
  const double tp1 =
      MustRun(cfg, workload::WorkloadSpec::Base(cfg)).throughput;
  cfg.npros = 10;
  const double tp10 =
      MustRun(cfg, workload::WorkloadSpec::Base(cfg)).throughput;
  EXPECT_GT(tp10, tp1);
}

TEST(GranularitySimulatorTest, ResponseTimeAboveMinimalServiceTime) {
  const model::SystemConfig cfg = QuickConfig();
  const SimulationMetrics m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  // Even with perfect parallelism, a mean transaction needs at least its
  // own (io+cpu)/npros service time.
  const double mean_nu = (static_cast<double>(cfg.maxtransize) + 1.0) / 2.0;
  const double min_service =
      mean_nu * (cfg.iotime + cfg.cputime) / static_cast<double>(cfg.npros);
  EXPECT_GT(m.response_time, 0.5 * min_service);
}

TEST(GranularitySimulatorTest, DenialsNeverExceedRequests) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 5;
  const SimulationMetrics m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_LE(m.lock_denials, m.lock_requests);
  EXPECT_GE(m.denial_rate, 0.0);
  EXPECT_LE(m.denial_rate, 1.0);
}

TEST(GranularitySimulatorTest, ThroughputEqualsCompletionsOverWindow) {
  const model::SystemConfig cfg = QuickConfig();
  const SimulationMetrics m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_NEAR(m.throughput,
              static_cast<double>(m.totcom) / m.measured_time, 1e-12);
}

TEST(GranularitySimulatorTest, WarmupShrinksMeasurementWindow) {
  model::SystemConfig cfg = QuickConfig();
  cfg.warmup = 500.0;
  const SimulationMetrics m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_DOUBLE_EQ(m.measured_time, cfg.tmax - cfg.warmup);
  EXPECT_GT(m.totcom, 0);
  // Busy time cannot exceed the post-warmup window.
  EXPECT_LE(m.totcpus_sum,
            static_cast<double>(cfg.npros) * m.measured_time + 1e-6);
  EXPECT_LE(m.totcpus, m.measured_time + 1e-6);
}

TEST(GranularitySimulatorTest, RunTwiceFails) {
  const model::SystemConfig cfg = QuickConfig();
  GranularitySimulator simulator(cfg, workload::WorkloadSpec::Base(cfg), 1);
  EXPECT_TRUE(simulator.Run().ok());
  EXPECT_EQ(simulator.Run().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(GranularitySimulatorTest, InvalidConfigIsRejected) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 0;
  auto result =
      GranularitySimulator::RunOnce(cfg, workload::WorkloadSpec::Base(cfg), 1);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(GranularitySimulatorTest, InvalidWorkloadIsRejected) {
  const model::SystemConfig cfg = QuickConfig();
  workload::WorkloadSpec spec;  // missing size distribution
  auto result = GranularitySimulator::RunOnce(cfg, spec, 1);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(GranularitySimulatorTest, PipelinedLockManagerAlsoRuns) {
  const model::SystemConfig cfg = QuickConfig();
  GranularitySimulator::Options options;
  options.serialize_lock_manager = false;
  auto result = GranularitySimulator::RunOnce(
      cfg, workload::WorkloadSpec::Base(cfg), 1, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->totcom, 0);
}

TEST(GranularitySimulatorTest, HeadRequeuePolicyAlsoRuns) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 10;  // enough contention that the policy actually engages
  GranularitySimulator::Options options;
  options.requeue_blocked_at_tail = false;
  auto result = GranularitySimulator::RunOnce(
      cfg, workload::WorkloadSpec::Base(cfg), 1, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->totcom, 0);
}

TEST(GranularitySimulatorTest, RandomPartitioningRuns) {
  const model::SystemConfig cfg = QuickConfig();
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.partitioning = workload::PartitioningMethod::kRandom;
  const SimulationMetrics m = MustRun(cfg, spec);
  EXPECT_GT(m.totcom, 0);
}

TEST(GranularitySimulatorTest, UniprocessorRuns) {
  model::SystemConfig cfg = QuickConfig();
  cfg.npros = 1;  // the Ries–Stonebraker baseline case
  const SimulationMetrics m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_GT(m.totcom, 0);
  EXPECT_LE(m.cpu_utilization, 1.0 + 1e-9);
}

TEST(GranularitySimulatorTest, ClosedSystemBoundsActivePopulation) {
  const model::SystemConfig cfg = QuickConfig();
  const SimulationMetrics m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  // Never more live transactions than terminals.
  EXPECT_LE(m.avg_active + m.avg_blocked + m.avg_pending,
            static_cast<double>(cfg.ntrans) + 1e-6);
}

TEST(GranularitySimulatorTest, ThinkTimeReducesOfferedLoad) {
  // With a large terminal think time most of each terminal's cycle is
  // spent thinking, so throughput drops well below the zero-think-time
  // system's.
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 100;
  const double busy =
      MustRun(cfg, workload::WorkloadSpec::Base(cfg)).throughput;
  cfg.think_time = 200.0;
  const SimulationMetrics m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_GT(m.totcom, 0);
  EXPECT_LT(m.throughput, 0.8 * busy);
  // Think time also drains the queues: fewer transactions in the system.
  EXPECT_LT(m.avg_active + m.avg_blocked + m.avg_pending,
            static_cast<double>(cfg.ntrans));
}

TEST(GranularitySimulatorTest, NegativeThinkTimeRejected) {
  model::SystemConfig cfg = QuickConfig();
  cfg.think_time = -1.0;
  auto result =
      GranularitySimulator::RunOnce(cfg, workload::WorkloadSpec::Base(cfg), 1);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(GranularitySimulatorTest, AdmissionCapBoundsActiveTransactions) {
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 500;
  GranularitySimulator::Options options;
  options.max_active = 3;
  auto result = GranularitySimulator::RunOnce(
      cfg, workload::WorkloadSpec::Base(cfg), 1, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->avg_active, 3.0 + 1e-9);
  EXPECT_GT(result->totcom, 0);
}

TEST(GranularitySimulatorTest, AdmissionCapHelpsUnderHeavyLoad) {
  // The Figure 12 pathology in miniature: fine granularity + many
  // transactions; a small MPL cap must beat the uncapped system.
  model::SystemConfig cfg = QuickConfig();
  cfg.ntrans = 100;
  cfg.npros = 10;
  cfg.ltot = 2000;
  const auto spec = workload::WorkloadSpec::Base(cfg);
  GranularitySimulator::Options uncapped;
  GranularitySimulator::Options capped;
  capped.max_active = 5;
  auto r_uncapped = GranularitySimulator::RunOnce(cfg, spec, 1, uncapped);
  auto r_capped = GranularitySimulator::RunOnce(cfg, spec, 1, capped);
  ASSERT_TRUE(r_uncapped.ok() && r_capped.ok());
  EXPECT_GT(r_capped->throughput, 1.5 * r_uncapped->throughput);
}

TEST(GranularitySimulatorTest, AdaptiveAdmissionRecoversHeavyLoad) {
  // Heavy load + fine granularity: the adaptive controller should find a
  // tight cap on its own and recover most of the best static cap's
  // throughput, without being told the workload.
  model::SystemConfig cfg = QuickConfig();
  cfg.ntrans = 100;
  cfg.npros = 10;
  cfg.ltot = 2000;
  const auto spec = workload::WorkloadSpec::Base(cfg);
  GranularitySimulator::Options uncapped;
  GranularitySimulator::Options adaptive;
  adaptive.adaptive_admission = true;
  auto r_uncapped = GranularitySimulator::RunOnce(cfg, spec, 1, uncapped);
  auto r_adaptive = GranularitySimulator::RunOnce(cfg, spec, 1, adaptive);
  ASSERT_TRUE(r_uncapped.ok() && r_adaptive.ok());
  EXPECT_GT(r_adaptive->throughput, 1.5 * r_uncapped->throughput);
}

TEST(GranularitySimulatorTest, AdaptiveAdmissionHarmlessWhenUncontended) {
  // Light load at the optimum: the controller should stay out of the way.
  model::SystemConfig cfg = QuickConfig();
  cfg.ltot = 50;
  const auto spec = workload::WorkloadSpec::Base(cfg);
  GranularitySimulator::Options adaptive;
  adaptive.adaptive_admission = true;
  auto plain = GranularitySimulator::RunOnce(cfg, spec, 1);
  auto tuned = GranularitySimulator::RunOnce(cfg, spec, 1, adaptive);
  ASSERT_TRUE(plain.ok() && tuned.ok());
  EXPECT_GT(tuned->throughput, 0.8 * plain->throughput);
}

TEST(GranularitySimulatorTest, AdaptiveAdmissionValidatesParameters) {
  const model::SystemConfig cfg = QuickConfig();
  const auto spec = workload::WorkloadSpec::Base(cfg);
  GranularitySimulator::Options options;
  options.adaptive_admission = true;
  options.adaptation_interval = 0.0;
  EXPECT_EQ(GranularitySimulator::RunOnce(cfg, spec, 1, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  options.adaptation_interval = 100.0;
  for (const double rate : {1.5, std::nan("")}) {
    options.target_denial_rate = rate;
    EXPECT_EQ(GranularitySimulator::RunOnce(cfg, spec, 1, options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  options.target_denial_rate = 0.3;
  options.adaptation_interval = std::nan("");
  EXPECT_EQ(GranularitySimulator::RunOnce(cfg, spec, 1, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(GranularitySimulatorTest, NegativeAdmissionCapRejected) {
  model::SystemConfig cfg = QuickConfig();
  GranularitySimulator::Options options;
  options.max_active = -1;
  auto result = GranularitySimulator::RunOnce(
      cfg, workload::WorkloadSpec::Base(cfg), 1, options);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(GranularitySimulatorTest, ResponsePercentilesAreOrdered) {
  const model::SystemConfig cfg = QuickConfig();
  const SimulationMetrics m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_GT(m.response_p50, 0.0);
  EXPECT_LE(m.response_p50, m.response_p95);
  EXPECT_LE(m.response_p95, m.response_p99);
  // The mean lies inside the distribution's support.
  EXPECT_LT(m.response_p50, m.response_p99 + 1e-9);
  EXPECT_GT(m.response_p99, m.response_time * 0.5);
}

TEST(GranularitySimulatorTest, MetricsToStringMentionsThroughput) {
  const model::SystemConfig cfg = QuickConfig();
  const SimulationMetrics m = MustRun(cfg, workload::WorkloadSpec::Base(cfg));
  EXPECT_NE(m.ToString().find("throughput"), std::string::npos);
}

}  // namespace
}  // namespace granulock::core
