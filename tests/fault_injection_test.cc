#include "core/fault.h"

#include <gtest/gtest.h>

#include <string>

#include "core/checkpoint.h"
#include "core/experiment.h"
#include "core/granularity_simulator.h"
#include "db/explicit_simulator.h"
#include "db/incremental_simulator.h"
#include "db/transfer_simulator.h"
#include "obs/registry.h"
#include "sim/invariants.h"
#include "util/status.h"
#include "workload/workload.h"

namespace granulock {
namespace {

using core::CellKey;
using core::CellOutcome;
using core::CellPolicy;
using core::CheckpointJournal;
using core::RunCell;
using core::SimulationMetrics;
using fault::ArmSpec;
using fault::InjectionPoint;
using fault::Injector;

/// Every test arms the process-global injector; make sure no state leaks
/// between tests regardless of how they exit.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Injector::Global().DisarmAll();
    Injector::DisarmShortWriteHook();
  }
  void TearDown() override {
    Injector::Global().DisarmAll();
    Injector::DisarmShortWriteHook();
  }
};

/// A small but real simulation config (fast enough to run many times).
model::SystemConfig SmallConfig() {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.tmax = 300.0;
  cfg.ltot = 100;
  return cfg;
}

/// The four engines; every one must honour the cell watchdog.
enum class Engine { kProbabilistic, kExplicit, kIncremental, kTransfer };
constexpr Engine kAllEngines[] = {Engine::kProbabilistic, Engine::kExplicit,
                                  Engine::kIncremental, Engine::kTransfer};

const char* EngineName(Engine engine) {
  switch (engine) {
    case Engine::kProbabilistic:
      return "probabilistic";
    case Engine::kExplicit:
      return "explicit";
    case Engine::kIncremental:
      return "incremental";
    case Engine::kTransfer:
      return "transfer";
  }
  return "?";
}

/// A cell body running `engine` with the cell's watchdog attached.
core::CellBody SimBody(Engine engine, const model::SystemConfig& cfg,
                       const workload::WorkloadSpec& spec, uint64_t seed) {
  return [engine, &cfg, &spec,
          seed](const fault::CellWatchdog* wd) -> Result<SimulationMetrics> {
    switch (engine) {
      case Engine::kProbabilistic: {
        core::GranularitySimulator::Options options;
        options.watchdog = wd;
        return core::GranularitySimulator::RunOnce(cfg, spec, seed, options);
      }
      case Engine::kExplicit: {
        db::ExplicitSimulator::Options options;
        options.watchdog = wd;
        return db::ExplicitSimulator::RunOnce(cfg, spec, seed, options);
      }
      case Engine::kIncremental: {
        db::IncrementalSimulator::Options options;
        options.watchdog = wd;
        return db::IncrementalSimulator::RunOnce(cfg, spec, seed, options);
      }
      case Engine::kTransfer: {
        db::TransferSimulator::Options options;
        options.watchdog = wd;
        auto report = db::TransferSimulator::RunOnce(cfg, seed, options);
        if (!report.ok()) return report.status();
        return report->metrics;
      }
    }
    return Status::Internal("unknown engine");
  };
}

/// Bit-exact metric comparison via the journal's round-trip encoding.
std::string Encoded(const SimulationMetrics& m) {
  return CheckpointJournal::EncodeRecord(CellKey{0, 0, 0}, m);
}

TEST_F(FaultInjectionTest, PointNamesAreStable) {
  EXPECT_STREQ(InjectionPointName(InjectionPoint::kCellThrow), "cell_throw");
  EXPECT_STREQ(InjectionPointName(InjectionPoint::kCellTimeout),
               "cell_timeout");
  EXPECT_STREQ(InjectionPointName(InjectionPoint::kCellAuditFail),
               "cell_audit_fail");
  EXPECT_STREQ(InjectionPointName(InjectionPoint::kWriteShortWrite),
               "write_short_write");
  EXPECT_STREQ(InjectionPointName(InjectionPoint::kSignalMidSweep),
               "signal_mid_sweep");
  EXPECT_STREQ(InjectionPointName(InjectionPoint::kPolicyVictimFlip),
               "policy_victim_flip");
}

TEST_F(FaultInjectionTest, InertUnlessArmed) {
  Injector& injector = Injector::Global();
  EXPECT_FALSE(injector.armed());
  EXPECT_FALSE(injector.ShouldFire(InjectionPoint::kCellThrow, 1));
  // Unarmed evaluations are not even counted (the inert fast path).
  EXPECT_EQ(injector.hits(InjectionPoint::kCellThrow), 0u);
}

TEST_F(FaultInjectionTest, FiresAtHitOrdinalWithBoundedFires) {
  Injector& injector = Injector::Global();
  ArmSpec spec;
  spec.fire_at_hit = 2;
  spec.max_fires = 2;
  injector.Arm(InjectionPoint::kCellThrow, spec);
  EXPECT_FALSE(injector.ShouldFire(InjectionPoint::kCellThrow, 0));  // hit 0
  EXPECT_FALSE(injector.ShouldFire(InjectionPoint::kCellThrow, 0));  // hit 1
  EXPECT_TRUE(injector.ShouldFire(InjectionPoint::kCellThrow, 0));   // hit 2
  EXPECT_TRUE(injector.ShouldFire(InjectionPoint::kCellThrow, 0));   // hit 3
  EXPECT_FALSE(injector.ShouldFire(InjectionPoint::kCellThrow, 0));  // spent
  EXPECT_EQ(injector.hits(InjectionPoint::kCellThrow), 5u);
  EXPECT_EQ(injector.fires(InjectionPoint::kCellThrow), 2u);
}

TEST_F(FaultInjectionTest, ZeroMaxFiresMeansUnlimited) {
  ArmSpec spec;
  spec.max_fires = 0;
  Injector::Global().Arm(InjectionPoint::kCellThrow, spec);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(Injector::Global().ShouldFire(InjectionPoint::kCellThrow, 0));
  }
}

TEST_F(FaultInjectionTest, KeyAddressingMatchesOnlyThatKey) {
  ArmSpec spec;
  spec.key = 77;
  spec.max_fires = 0;
  Injector::Global().Arm(InjectionPoint::kCellThrow, spec);
  EXPECT_FALSE(Injector::Global().ShouldFire(InjectionPoint::kCellThrow, 76));
  EXPECT_TRUE(Injector::Global().ShouldFire(InjectionPoint::kCellThrow, 77));
  // Non-matching keys are not counted as hits.
  EXPECT_EQ(Injector::Global().hits(InjectionPoint::kCellThrow), 1u);
}

TEST_F(FaultInjectionTest, ArmFromFlagParsesTheFullGrammar) {
  Injector& injector = Injector::Global();
  ASSERT_TRUE(injector.ArmFromFlag("cell_throw@3").ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(injector.ShouldFire(InjectionPoint::kCellThrow, 0));
  }
  EXPECT_TRUE(injector.ShouldFire(InjectionPoint::kCellThrow, 0));

  ASSERT_TRUE(injector.ArmFromFlag("cell_timeout@0x2").ok());
  EXPECT_TRUE(injector.ShouldFire(InjectionPoint::kCellTimeout, 0));
  EXPECT_TRUE(injector.ShouldFire(InjectionPoint::kCellTimeout, 0));
  EXPECT_FALSE(injector.ShouldFire(InjectionPoint::kCellTimeout, 0));

  ASSERT_TRUE(injector.ArmFromFlag("cell_audit_fail@0:key=42").ok());
  EXPECT_FALSE(
      injector.ShouldFire(InjectionPoint::kCellAuditFail, 41));
  EXPECT_TRUE(injector.ShouldFire(InjectionPoint::kCellAuditFail, 42));
}

TEST_F(FaultInjectionTest, ArmFromFlagRejectsBadSpecsWithHints) {
  Injector& injector = Injector::Global();
  const Status no_at = injector.ArmFromFlag("cell_throw");
  EXPECT_EQ(no_at.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_at.ToString().find("<point>@<hit>"), std::string::npos);

  const Status unknown = injector.ArmFromFlag("bogus_point@1");
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  // The error lists the valid points so the user can fix the spelling.
  EXPECT_NE(unknown.ToString().find("cell_throw"), std::string::npos);

  EXPECT_FALSE(injector.ArmFromFlag("cell_throw@nope").ok());
  EXPECT_FALSE(injector.ArmFromFlag("cell_throw@1xbad").ok());
  EXPECT_FALSE(injector.ArmFromFlag("cell_throw@1:key=abc").ok());
}

TEST_F(FaultInjectionTest, InjectedThrowRetriesWithSameSeedBitIdentically) {
  const model::SystemConfig cfg = SmallConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  const uint64_t seed = 12345;

  // Clean reference run.
  const CellOutcome clean =
      RunCell(CellPolicy{}, CellKey{0, 0, 0}, seed,
              SimBody(Engine::kProbabilistic, cfg, spec, seed));
  ASSERT_TRUE(clean.result.ok());
  EXPECT_EQ(clean.attempts, 1);

  // First attempt throws; the retry must reproduce the clean metrics
  // exactly (same derived seed, deterministic engine).
  ASSERT_TRUE(Injector::Global().ArmFromFlag("cell_throw@0").ok());
  CellPolicy retry_policy;
  retry_policy.max_cell_retries = 1;
  const CellOutcome retried =
      RunCell(retry_policy, CellKey{0, 0, 0}, seed,
              SimBody(Engine::kProbabilistic, cfg, spec, seed));
  ASSERT_TRUE(retried.result.ok()) << retried.result.status();
  EXPECT_EQ(retried.attempts, 2);
  EXPECT_EQ(Encoded(*retried.result), Encoded(*clean.result));
}

TEST_F(FaultInjectionTest, PolicyVictimFlipIsContainedAndRetryRecovers) {
  // `policy_victim_flip` corrupts one contention-policy victim decision
  // inside the incremental engine (the victim id becomes 0, which is
  // never assigned). The engine must reject it loudly, RunCell must
  // contain the throw, and a same-seed retry — the single armed fire now
  // spent — must reproduce the clean run bit for bit.
  model::SystemConfig cfg = SmallConfig();
  cfg.ltot = 20;
  cfg.ntrans = 20;  // contended enough that deadlock victims are chosen
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.placement = model::Placement::kWorst;
  const uint64_t seed = 3;
  const core::CellBody body = [&cfg, &spec,
                               seed](const fault::CellWatchdog*) {
    return db::IncrementalSimulator::RunOnce(cfg, spec, seed);
  };

  const CellOutcome clean = RunCell(CellPolicy{}, CellKey{0, 0, 0}, seed, body);
  ASSERT_TRUE(clean.result.ok()) << clean.result.status();
  // The fault only fires on a victim decision; make sure the workload
  // actually produces them.
  ASSERT_GT(clean.result->deadlock_aborts, 0);

  // Contained: the corrupted decision surfaces as a failed cell, not a
  // crash or silently wrong metrics.
  ASSERT_TRUE(Injector::Global().ArmFromFlag("policy_victim_flip@0").ok());
  const CellOutcome faulted =
      RunCell(CellPolicy{}, CellKey{0, 0, 0}, seed, body);
  EXPECT_FALSE(faulted.result.ok());
  EXPECT_EQ(faulted.result.status().code(), StatusCode::kInternal);
  EXPECT_NE(faulted.result.status().ToString().find("does not exist"),
            std::string::npos);

  // Recovered: with one retry the second attempt runs fault-free and the
  // metrics round-trip bit-identically to the clean reference.
  ASSERT_TRUE(Injector::Global().ArmFromFlag("policy_victim_flip@0").ok());
  CellPolicy retry_policy;
  retry_policy.max_cell_retries = 1;
  const CellOutcome retried =
      RunCell(retry_policy, CellKey{0, 0, 0}, seed, body);
  ASSERT_TRUE(retried.result.ok()) << retried.result.status();
  EXPECT_EQ(retried.attempts, 2);
  EXPECT_EQ(Encoded(*retried.result), Encoded(*clean.result));
}

TEST_F(FaultInjectionTest, ExhaustedRetriesReportTheLastAttempt) {
  const model::SystemConfig cfg = SmallConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  ASSERT_TRUE(Injector::Global().ArmFromFlag("cell_throw@0x0").ok());
  CellPolicy policy;
  policy.max_cell_retries = 2;
  const CellOutcome out =
      RunCell(policy, CellKey{0, 0, 0}, 7,
              SimBody(Engine::kProbabilistic, cfg, spec, 7));
  EXPECT_FALSE(out.result.ok());
  EXPECT_EQ(out.attempts, 3);
  EXPECT_EQ(out.result.status().code(), StatusCode::kInternal);
  EXPECT_NE(out.result.status().ToString().find("cell_throw"),
            std::string::npos);
}

TEST_F(FaultInjectionTest, InjectedTimeoutBecomesDeadlineExceeded) {
  const model::SystemConfig cfg = SmallConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  for (Engine engine : kAllEngines) {
    SCOPED_TRACE(EngineName(engine));
    Injector::Global().DisarmAll();
    ASSERT_TRUE(Injector::Global().ArmFromFlag("cell_timeout@0").ok());
    const CellOutcome out = RunCell(CellPolicy{}, CellKey{0, 0, 0}, 9,
                                    SimBody(engine, cfg, spec, 9));
    EXPECT_FALSE(out.result.ok());
    EXPECT_TRUE(out.timed_out);
    EXPECT_EQ(out.result.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST_F(FaultInjectionTest, RealWallDeadlineBecomesDeadlineExceeded) {
  const model::SystemConfig cfg = SmallConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  CellPolicy policy;
  policy.cell_timeout_s = 1e-9;  // expires before the first watchdog poll
  for (Engine engine : kAllEngines) {
    SCOPED_TRACE(EngineName(engine));
    const CellOutcome out = RunCell(policy, CellKey{0, 0, 0}, 11,
                                    SimBody(engine, cfg, spec, 11));
    EXPECT_FALSE(out.result.ok());
    EXPECT_TRUE(out.timed_out);
    EXPECT_EQ(out.result.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(out.result.status().ToString().find("cell_timeout_s"),
              std::string::npos);
  }
}

TEST_F(FaultInjectionTest, WatchdogDoesNotPerturbSimulatedResults) {
  const model::SystemConfig cfg = SmallConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  // A generous deadline arms the watchdog observer chain but never fires;
  // the metrics must be bit-identical to the unwatched run.
  CellPolicy policy;
  policy.cell_timeout_s = 3600.0;
  for (Engine engine : kAllEngines) {
    SCOPED_TRACE(EngineName(engine));
    const CellOutcome clean = RunCell(CellPolicy{}, CellKey{0, 0, 0}, 5,
                                      SimBody(engine, cfg, spec, 5));
    ASSERT_TRUE(clean.result.ok());
    const CellOutcome watched =
        RunCell(policy, CellKey{0, 0, 0}, 5, SimBody(engine, cfg, spec, 5));
    ASSERT_TRUE(watched.result.ok());
    EXPECT_EQ(Encoded(*watched.result), Encoded(*clean.result));
  }
}

TEST_F(FaultInjectionTest, AuditFailureIsContainedWithMessage) {
  const model::SystemConfig cfg = SmallConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  ASSERT_TRUE(Injector::Global().ArmFromFlag("cell_audit_fail@0").ok());
  const CellOutcome out =
      RunCell(CellPolicy{}, CellKey{0, 0, 0}, 3,
              SimBody(Engine::kProbabilistic, cfg, spec, 3));
  EXPECT_FALSE(out.result.ok());
  EXPECT_EQ(out.result.status().code(), StatusCode::kInternal);
  const std::string text = out.result.status().ToString();
  EXPECT_NE(text.find("invariant failure"), std::string::npos) << text;
  EXPECT_NE(text.find("cell_audit_fail"), std::string::npos) << text;
}

TEST_F(FaultInjectionTest, ScopedFailureCaptureRecordsTheMessage) {
  sim::invariants::ScopedFailureCapture capture;
  sim::invariants::Fail(__FILE__, __LINE__, "synthetic violation for test");
  EXPECT_EQ(capture.count(), 1);
  EXPECT_NE(capture.last_message().find("synthetic violation for test"),
            std::string::npos);
}

TEST_F(FaultInjectionTest, AllowPartialSweepRecordsFailureAndContinues) {
  const model::SystemConfig cfg = SmallConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  const std::vector<int64_t> lock_counts = {1, 10, 100};

  // Fail the second cell (point 1) once; everything else succeeds.
  ASSERT_TRUE(Injector::Global().ArmFromFlag("cell_audit_fail@1").ok());
  core::RunReport report;
  CellPolicy policy;
  policy.allow_partial = true;
  policy.report = &report;
  const auto sweep =
      core::SweepLockCounts(cfg, spec, lock_counts, 42, 1,
                            core::GranularitySimulator::Options{}, nullptr,
                            policy);
  Injector::Global().DisarmAll();
  ASSERT_TRUE(sweep.ok()) << sweep.status();
  // The failed point is omitted; the survivors match a clean sweep.
  ASSERT_EQ(sweep->size(), 2u);
  EXPECT_EQ((*sweep)[0].ltot, 1);
  EXPECT_EQ((*sweep)[1].ltot, 100);

  ASSERT_EQ(report.failures.size(), 1u);
  const core::CellFailure& failure = report.failures[0];
  EXPECT_EQ(failure.point, 1);
  EXPECT_EQ(failure.value, 10);
  // The invariant text survives the whole funnel: Fail -> AuditFailure ->
  // Status -> CellFailure.
  EXPECT_NE(failure.status.ToString().find("cell_audit_fail"),
            std::string::npos);
  EXPECT_EQ(report.cells_completed, 2);

  obs::MetricsRegistry registry;
  core::PublishCellStats(report, &registry);
  EXPECT_EQ(registry.GetCounter("cells/completed")->value(), 2);
  EXPECT_EQ(registry.GetCounter("cells/failed")->value(), 1);
  EXPECT_EQ(registry.GetCounter("cells/retried")->value(), 0);
}

TEST_F(FaultInjectionTest, FailFastSweepReturnsLowestIndexFailure) {
  const model::SystemConfig cfg = SmallConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  ASSERT_TRUE(Injector::Global().ArmFromFlag("cell_throw@1x0").ok());
  const auto sweep = core::SweepLockCounts(cfg, spec, {1, 10, 100}, 42, 1);
  Injector::Global().DisarmAll();
  ASSERT_FALSE(sweep.ok());
  EXPECT_EQ(sweep.status().code(), StatusCode::kInternal);
  EXPECT_NE(sweep.status().ToString().find("cell_throw"), std::string::npos);
}

TEST_F(FaultInjectionTest, InterruptFlagCancelsBeforeCellStarts) {
  const model::SystemConfig cfg = SmallConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  std::atomic<bool> interrupt{true};
  CellPolicy policy;
  policy.interrupt = &interrupt;
  const CellOutcome out =
      RunCell(policy, CellKey{0, 0, 0}, 1,
              SimBody(Engine::kProbabilistic, cfg, spec, 1));
  EXPECT_FALSE(out.result.ok());
  EXPECT_EQ(out.result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(out.attempts, 0);
}

TEST_F(FaultInjectionTest, InterruptMidCellCancelsEveryEngine) {
  const model::SystemConfig cfg = SmallConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  for (Engine engine : kAllEngines) {
    SCOPED_TRACE(EngineName(engine));
    // The interrupt arrives after the cell started: only the engine's
    // watchdog poll can see it.
    std::atomic<bool> interrupt{false};
    CellPolicy policy;
    policy.interrupt = &interrupt;
    const core::CellBody run = SimBody(engine, cfg, spec, 1);
    const CellOutcome out = RunCell(
        policy, CellKey{0, 0, 0}, 1,
        [&](const fault::CellWatchdog* wd) -> Result<SimulationMetrics> {
          interrupt = true;
          return run(wd);
        });
    EXPECT_FALSE(out.result.ok());
    EXPECT_EQ(out.result.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(out.attempts, 1);
  }
}

TEST_F(FaultInjectionTest, RetriedFlakyCellCountsRetriesInReport) {
  const model::SystemConfig cfg = SmallConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  // Exactly one injected failure: attempt 1 throws, attempt 2 succeeds.
  ASSERT_TRUE(Injector::Global().ArmFromFlag("cell_throw@0x1").ok());
  core::RunReport report;
  CellPolicy policy;
  policy.max_cell_retries = 1;
  policy.report = &report;
  const auto reps = core::RunReplicated(
      cfg, spec, 42, 2, core::GranularitySimulator::Options{}, nullptr,
      policy);
  Injector::Global().DisarmAll();
  ASSERT_TRUE(reps.ok()) << reps.status();
  EXPECT_EQ(reps->replications, 2);
  EXPECT_EQ(report.cells_completed, 2);
  EXPECT_EQ(report.cell_retries, 1);
  EXPECT_TRUE(report.failures.empty());

  // The flaky-but-retried run aggregates bit-identically to a clean run.
  const auto clean = core::RunReplicated(cfg, spec, 42, 2);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(Encoded(reps->mean), Encoded(clean->mean));
}

}  // namespace
}  // namespace granulock
