// Property-based suites: parameterized sweeps over the configuration space
// asserting invariants that must hold at EVERY point, not just the paper's
// corner cases.

#include <gtest/gtest.h>

#include <tuple>

#include "core/granularity_simulator.h"
#include "db/explicit_simulator.h"
#include "db/granule_selector.h"
#include "model/conflict.h"
#include "model/placement.h"
#include "workload/workload.h"

namespace granulock {
namespace {

// ---------------------------------------------------------------------
// Placement math: for every (ltot, nu) the lock-demand envelope holds.
// ---------------------------------------------------------------------

class PlacementPropertyTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(PlacementPropertyTest, DemandEnvelopeHolds) {
  const auto [ltot, nu] = GetParam();
  constexpr int64_t kDbsize = 5000;
  const int64_t best = model::BestPlacementLocks(kDbsize, ltot, nu);
  const int64_t worst = model::WorstPlacementLocks(ltot, nu);
  const double yao = model::YaoExpectedGranules(kDbsize, ltot, nu);
  EXPECT_GE(best, 1);
  EXPECT_LE(best, worst);
  EXPECT_LE(worst, ltot);
  EXPECT_GE(yao, 1.0 - 1e-9);
  EXPECT_LE(yao, static_cast<double>(worst) + 1e-9);
  for (model::Placement p : {model::Placement::kBest,
                             model::Placement::kRandom,
                             model::Placement::kWorst}) {
    const model::LockDemand d = model::LocksRequired(p, kDbsize, ltot, nu);
    EXPECT_GE(d.locks, 1);
    EXPECT_LE(d.locks, ltot);
    EXPECT_GE(d.expected_locks, 1.0 - 1e-9);
    EXPECT_LE(d.expected_locks, static_cast<double>(ltot) + 1e-9);
  }
}

TEST_P(PlacementPropertyTest, ConcreteSelectionMatchesAnalyticCount) {
  const auto [ltot, nu] = GetParam();
  constexpr int64_t kDbsize = 5000;
  Rng rng(static_cast<uint64_t>(ltot * 7919 + nu));
  // Best and worst have deterministic sizes; random is bounded.
  const auto best =
      db::SelectGranules(model::Placement::kBest, kDbsize, ltot, nu, rng);
  EXPECT_EQ(static_cast<int64_t>(best.size()),
            model::BestPlacementLocks(kDbsize, ltot, nu));
  const auto worst =
      db::SelectGranules(model::Placement::kWorst, kDbsize, ltot, nu, rng);
  EXPECT_EQ(static_cast<int64_t>(worst.size()),
            model::WorstPlacementLocks(ltot, nu));
  const auto random =
      db::SelectGranules(model::Placement::kRandom, kDbsize, ltot, nu, rng);
  EXPECT_GE(static_cast<int64_t>(random.size()), 1);
  EXPECT_LE(static_cast<int64_t>(random.size()),
            model::WorstPlacementLocks(ltot, nu));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlacementPropertyTest,
    ::testing::Combine(::testing::Values<int64_t>(1, 3, 10, 100, 999, 5000),
                       ::testing::Values<int64_t>(1, 2, 25, 250, 2500, 5000)),
    [](const ::testing::TestParamInfo<std::tuple<int64_t, int64_t>>& info) {
      return "ltot" + std::to_string(std::get<0>(info.param)) + "_nu" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Conflict model: empirical blocking frequency matches the analytic
// probability for arbitrary holdings.
// ---------------------------------------------------------------------

class ConflictPropertyTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(ConflictPropertyTest, EmpiricalMatchesAnalytic) {
  const int64_t ltot = GetParam();
  model::ConflictModel conflict(ltot);
  Rng rng(99);
  // Three random holdings summing to at most ltot.
  std::vector<int64_t> holdings;
  int64_t budget = ltot;
  for (int i = 0; i < 3 && budget > 0; ++i) {
    const int64_t h = rng.UniformInt(0, budget / 2);
    holdings.push_back(h);
    budget -= h;
  }
  const double analytic = conflict.BlockProbability(holdings);
  int blocked = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    if (conflict.DrawBlocker(holdings, rng) >= 0) ++blocked;
  }
  EXPECT_NEAR(static_cast<double>(blocked) / n, analytic, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Ltot, ConflictPropertyTest,
                         ::testing::Values<int64_t>(1, 2, 10, 100, 5000));

// ---------------------------------------------------------------------
// The probabilistic simulator: structural invariants at every corner of a
// (npros x ltot x placement x partitioning) grid.
// ---------------------------------------------------------------------

struct SimCase {
  int64_t npros;
  int64_t ltot;
  model::Placement placement;
  workload::PartitioningMethod partitioning;
};

std::string SimCaseName(const ::testing::TestParamInfo<SimCase>& info) {
  return "npros" + std::to_string(info.param.npros) + "_ltot" +
         std::to_string(info.param.ltot) + "_" +
         model::PlacementToString(info.param.placement) + "_" +
         workload::PartitioningToString(info.param.partitioning);
}

class SimulatorPropertyTest : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimulatorPropertyTest, InvariantsHold) {
  const SimCase& param = GetParam();
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.tmax = 600.0;
  cfg.npros = param.npros;
  cfg.ltot = param.ltot;
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.placement = param.placement;
  spec.partitioning = param.partitioning;

  auto result = core::GranularitySimulator::RunOnce(cfg, spec, 1234);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const core::SimulationMetrics& m = *result;

  const double npros = static_cast<double>(cfg.npros);
  // Busy-time accounting closes.
  EXPECT_GE(m.totcpus, m.lockcpus - 1e-9);
  EXPECT_GE(m.totios, m.lockios - 1e-9);
  EXPECT_NEAR(m.usefulcpus, (m.totcpus - m.lockcpus) / npros, 1e-9);
  EXPECT_NEAR(m.usefulios, (m.totios - m.lockios) / npros, 1e-9);
  EXPECT_GE(m.totcpus_sum, m.lockcpus_sum - 1e-9);
  EXPECT_LE(m.totcpus, m.measured_time + 1e-6);
  EXPECT_LE(m.totios, m.measured_time + 1e-6);
  EXPECT_LE(m.totcpus, m.totcpus_sum + 1e-6);
  EXPECT_LE(m.totios, m.totios_sum + 1e-6);
  // No over-utilization.
  EXPECT_LE(m.cpu_utilization, 1.0 + 1e-9);
  EXPECT_LE(m.io_utilization, 1.0 + 1e-9);
  EXPECT_GE(m.cpu_utilization, 0.0);
  EXPECT_GE(m.io_utilization, 0.0);
  // Counting identities.
  EXPECT_LE(m.lock_denials, m.lock_requests);
  EXPECT_NEAR(m.throughput,
              static_cast<double>(m.totcom) / m.measured_time, 1e-12);
  // Closed population.
  EXPECT_LE(m.avg_active + m.avg_blocked + m.avg_pending,
            static_cast<double>(cfg.ntrans) + 1e-6);
  EXPECT_GE(m.avg_active, 0.0);
  // Progress: every corner of this grid completes work in 600 units.
  EXPECT_GT(m.totcom, 0);
  // Response times are non-negative and finite.
  EXPECT_GE(m.response_time, 0.0);
  EXPECT_LT(m.response_time, cfg.tmax);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimulatorPropertyTest,
    ::testing::Values(
        SimCase{1, 1, model::Placement::kBest,
                workload::PartitioningMethod::kHorizontal},
        SimCase{1, 5000, model::Placement::kBest,
                workload::PartitioningMethod::kHorizontal},
        SimCase{2, 10, model::Placement::kRandom,
                workload::PartitioningMethod::kHorizontal},
        SimCase{5, 100, model::Placement::kWorst,
                workload::PartitioningMethod::kHorizontal},
        SimCase{10, 100, model::Placement::kBest,
                workload::PartitioningMethod::kRandom},
        SimCase{10, 1000, model::Placement::kRandom,
                workload::PartitioningMethod::kRandom},
        SimCase{30, 1, model::Placement::kWorst,
                workload::PartitioningMethod::kRandom},
        SimCase{30, 5000, model::Placement::kRandom,
                workload::PartitioningMethod::kHorizontal},
        SimCase{20, 200, model::Placement::kBest,
                workload::PartitioningMethod::kHorizontal},
        SimCase{7, 50, model::Placement::kWorst,
                workload::PartitioningMethod::kRandom}),
    SimCaseName);

// ---------------------------------------------------------------------
// The explicit simulator: same invariants, real lock table.
// ---------------------------------------------------------------------

class ExplicitPropertyTest : public ::testing::TestWithParam<SimCase> {};

TEST_P(ExplicitPropertyTest, InvariantsHold) {
  const SimCase& param = GetParam();
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.tmax = 600.0;
  cfg.npros = param.npros;
  cfg.ltot = param.ltot;
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.placement = param.placement;
  spec.partitioning = param.partitioning;

  auto result = db::ExplicitSimulator::RunOnce(cfg, spec, 1234);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const core::SimulationMetrics& m = *result;
  EXPECT_GE(m.totcpus, m.lockcpus - 1e-9);
  EXPECT_LE(m.cpu_utilization, 1.0 + 1e-9);
  EXPECT_LE(m.io_utilization, 1.0 + 1e-9);
  EXPECT_LE(m.lock_denials, m.lock_requests);
  EXPECT_LE(m.avg_active + m.avg_blocked + m.avg_pending,
            static_cast<double>(cfg.ntrans) + 1e-6);
  EXPECT_GT(m.totcom, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ExplicitPropertyTest,
    ::testing::Values(
        SimCase{1, 1, model::Placement::kBest,
                workload::PartitioningMethod::kHorizontal},
        SimCase{5, 100, model::Placement::kRandom,
                workload::PartitioningMethod::kHorizontal},
        SimCase{10, 1000, model::Placement::kWorst,
                workload::PartitioningMethod::kRandom},
        SimCase{30, 5000, model::Placement::kRandom,
                workload::PartitioningMethod::kHorizontal},
        SimCase{2, 10, model::Placement::kBest,
                workload::PartitioningMethod::kRandom}),
    SimCaseName);

// ---------------------------------------------------------------------
// Lock table: randomized acquire/release sequences keep the table
// consistent (model-checked against a reference map).
// ---------------------------------------------------------------------

class LockTableFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LockTableFuzzTest, RandomizedSequencesStayConsistent) {
  constexpr int64_t kGranules = 50;
  lockmgr::LockTable table(kGranules);
  Rng rng(GetParam());
  // Reference model: granule -> exclusive holder (we only fuzz X locks).
  std::vector<int64_t> owner(kGranules, -1);
  std::vector<bool> txn_live(200, false);
  lockmgr::TxnId next_txn = 0;
  std::vector<std::vector<int64_t>> held(200);

  for (int step = 0; step < 2000; ++step) {
    if (next_txn < 200 && rng.Bernoulli(0.6)) {
      // Try to acquire a random set for a new transaction.
      const int64_t k = rng.UniformInt(1, 8);
      std::vector<int64_t> granules;
      rng.SampleWithoutReplacement(kGranules, k, &granules);
      std::vector<lockmgr::LockRequest> reqs;
      bool expect_conflict = false;
      for (int64_t g : granules) {
        reqs.push_back({g, lockmgr::LockMode::kX});
        if (owner[static_cast<size_t>(g)] >= 0) expect_conflict = true;
      }
      const auto blocker = table.TryAcquireAll(next_txn, reqs);
      ASSERT_EQ(blocker.has_value(), expect_conflict) << "step " << step;
      if (!blocker) {
        for (int64_t g : granules) {
          owner[static_cast<size_t>(g)] = static_cast<int64_t>(next_txn);
        }
        held[next_txn] = {granules.begin(), granules.end()};
        txn_live[next_txn] = true;
      }
      ++next_txn;
    } else {
      // Release a random live transaction.
      std::vector<lockmgr::TxnId> live;
      for (lockmgr::TxnId t = 0; t < next_txn && t < 200; ++t) {
        if (txn_live[t]) live.push_back(t);
      }
      if (live.empty()) continue;
      const lockmgr::TxnId victim = live[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
      table.ReleaseAll(victim);
      for (int64_t g : held[victim]) owner[static_cast<size_t>(g)] = -1;
      held[victim].clear();
      txn_live[victim] = false;
    }
    // Table-wide invariant: locked-granule count matches the reference.
    int64_t expected_locked = 0;
    for (int64_t g = 0; g < kGranules; ++g) {
      if (owner[static_cast<size_t>(g)] >= 0) ++expected_locked;
    }
    ASSERT_EQ(table.LockedGranules(), expected_locked) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockTableFuzzTest,
                         ::testing::Values<uint64_t>(1, 2, 3, 4, 5));

}  // namespace
}  // namespace granulock
