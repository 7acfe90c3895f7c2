#include "core/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "db/explicit_simulator.h"
#include "db/incremental_simulator.h"

namespace granulock::core {
namespace {

model::SystemConfig QuickConfig() {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.tmax = 1000.0;
  return cfg;
}

TEST(StandardLockSweepTest, CoversFullRangeForPaperDatabase) {
  const auto sweep = StandardLockSweep(5000);
  ASSERT_FALSE(sweep.empty());
  EXPECT_EQ(sweep.front(), 1);
  EXPECT_EQ(sweep.back(), 5000);
  EXPECT_TRUE(std::is_sorted(sweep.begin(), sweep.end()));
  EXPECT_NE(std::find(sweep.begin(), sweep.end(), 100), sweep.end());
  EXPECT_NE(std::find(sweep.begin(), sweep.end(), 200), sweep.end());
}

TEST(StandardLockSweepTest, ClipsToSmallDatabases) {
  const auto sweep = StandardLockSweep(30);
  EXPECT_EQ(sweep.front(), 1);
  EXPECT_EQ(sweep.back(), 30);  // dbsize itself is appended
  for (int64_t v : sweep) EXPECT_LE(v, 30);
}

TEST(StandardLockSweepTest, DegenerateSingleEntityDatabase) {
  const auto sweep = StandardLockSweep(1);
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep[0], 1);
}

TEST(RunReplicatedTest, RejectsBadReplicationCount) {
  const model::SystemConfig cfg = QuickConfig();
  auto result =
      RunReplicated(cfg, workload::WorkloadSpec::Base(cfg), 1, 0);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunReplicatedTest, SingleReplicationMatchesDirectRun) {
  const model::SystemConfig cfg = QuickConfig();
  const auto spec = workload::WorkloadSpec::Base(cfg);
  auto replicated = RunReplicated(cfg, spec, 99, 1);
  ASSERT_TRUE(replicated.ok());
  // The replication machinery derives the seed via Fork(0); re-derive it.
  Rng seeder(99);
  const uint64_t derived = seeder.Fork(0).NextUint64();
  auto direct = GranularitySimulator::RunOnce(cfg, spec, derived);
  ASSERT_TRUE(direct.ok());
  EXPECT_DOUBLE_EQ(replicated->mean.throughput, direct->throughput);
  EXPECT_EQ(replicated->replications, 1);
  EXPECT_DOUBLE_EQ(replicated->throughput_hw95, 0.0);  // n=1: no CI
}

TEST(RunReplicatedTest, MultipleReplicationsAverageAndBoundCi) {
  const model::SystemConfig cfg = QuickConfig();
  const auto spec = workload::WorkloadSpec::Base(cfg);
  auto result = RunReplicated(cfg, spec, 7, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->replications, 5);
  EXPECT_GT(result->mean.throughput, 0.0);
  EXPECT_GT(result->throughput_hw95, 0.0);
  // Replication noise on throughput should be small relative to the mean.
  EXPECT_LT(result->throughput_hw95, result->mean.throughput);
}

TEST(RunReplicatedTest, PropagatesSimulationErrors) {
  model::SystemConfig cfg = QuickConfig();
  cfg.npros = 0;
  auto result =
      RunReplicated(cfg, workload::WorkloadSpec::Base(cfg), 1, 2);
  EXPECT_FALSE(result.ok());
}

TEST(SweepLockCountsTest, ProducesOnePointPerLockCount) {
  const model::SystemConfig cfg = QuickConfig();
  const auto spec = workload::WorkloadSpec::Base(cfg);
  const std::vector<int64_t> counts{1, 100, 5000};
  auto sweep = SweepLockCounts(cfg, spec, counts, 3, 1);
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), 3u);
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ((*sweep)[i].ltot, counts[i]);
    EXPECT_GT((*sweep)[i].metrics.mean.totcom, 0);
  }
}

TEST(SweepLockCountsTest, ModerateGranularityBeatsExtremes) {
  // The paper's central result in miniature: at npros=10 the optimum lock
  // count lies strictly between 1 and dbsize.
  model::SystemConfig cfg = QuickConfig();
  cfg.tmax = 2000.0;
  const auto spec = workload::WorkloadSpec::Base(cfg);
  auto sweep = SweepLockCounts(cfg, spec, {1, 50, 5000}, 11, 2);
  ASSERT_TRUE(sweep.ok());
  const double tp_serial = (*sweep)[0].metrics.mean.throughput;
  const double tp_mid = (*sweep)[1].metrics.mean.throughput;
  const double tp_fine = (*sweep)[2].metrics.mean.throughput;
  EXPECT_GT(tp_mid, tp_serial);
  EXPECT_GT(tp_mid, tp_fine);
}

// --- RunGrid ---

/// A cheap synthetic cell: metrics derived from the seed and the point, or
/// a failure naming the cell when `fails`.
GridPoint FakePoint(int series, int point, int64_t value, bool fails) {
  return GridPoint{
      series, point, value,
      [=](uint64_t seed, const fault::CellWatchdog*)
          -> Result<SimulationMetrics> {
        if (fails) {
          return Status::Internal("cell s" + std::to_string(series) + "p" +
                                  std::to_string(point));
        }
        SimulationMetrics m;
        m.throughput = static_cast<double>(seed % 1000) + value;
        m.totcom = 1;
        return m;
      }};
}

/// Three series of three points; the cells of (series 1, point 2) and
/// (series 2, point 0) fail.
std::vector<GridPoint> ThreeSeriesGrid() {
  std::vector<GridPoint> grid;
  for (int s = 0; s < 3; ++s) {
    for (int p = 0; p < 3; ++p) {
      const bool fails = (s == 1 && p == 2) || (s == 2 && p == 0);
      grid.push_back(FakePoint(s, p, 10 * (p + 1), fails));
    }
  }
  return grid;
}

TEST(RunGridTest, FailFastPicksLowestIndexFailureAcrossSeries) {
  const std::vector<uint64_t> seeds = DeriveReplicationSeeds(5, 2);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ParallelRunner runner(threads);
    const GridResult result =
        RunGrid(ThreeSeriesGrid(), seeds, &runner, CellPolicy{});
    const CellFailure& f = result.first_failure;
    EXPECT_EQ(f.status.code(), StatusCode::kInternal);
    EXPECT_NE(f.status.message().find("cell s1p2"), std::string::npos)
        << f.status;
    EXPECT_EQ(f.series, 1);
    EXPECT_EQ(f.point, 2);
    EXPECT_EQ(f.value, 30);
    EXPECT_EQ(f.rep, 0);
    EXPECT_FALSE(result.interrupted);
  }
}

TEST(RunGridTest, FailureRecordsCarryTheirPointsCoordinates) {
  RunReport report;
  CellPolicy policy;
  policy.allow_partial = true;
  policy.report = &report;
  const GridResult result =
      RunGrid(ThreeSeriesGrid(), DeriveReplicationSeeds(5, 2), nullptr,
              policy);
  ASSERT_EQ(report.failures.size(), 4u);  // two failing points x two reps
  const int expected[][4] = {{1, 2, 30, 0}, {1, 2, 30, 1}, {2, 0, 10, 0},
                             {2, 0, 10, 1}};
  for (size_t i = 0; i < report.failures.size(); ++i) {
    const CellFailure& f = report.failures[i];
    EXPECT_EQ(f.series, expected[i][0]) << i;
    EXPECT_EQ(f.point, expected[i][1]) << i;
    EXPECT_EQ(f.value, expected[i][2]) << i;
    EXPECT_EQ(f.rep, expected[i][3]) << i;
  }
  EXPECT_EQ(report.cells_completed, 14);
  ASSERT_EQ(result.points.size(), 9u);
  EXPECT_EQ(result.points[5].replications, 0);  // (1, 2) is missing
  EXPECT_EQ(result.points[4].replications, 2);
}

std::string Encoded(const SimulationMetrics& m) {
  return CheckpointJournal::EncodeRecord(CellKey{}, m);
}

TEST(RunGridTest, EveryEngineMatchesDirectRunsBitForBit) {
  model::SystemConfig cfg = QuickConfig();
  cfg.tmax = 300.0;
  cfg.ltot = 50;
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  const std::vector<uint64_t> seeds = DeriveReplicationSeeds(17, 2);
  const std::vector<GridPoint> grid = {
      {0, 0, cfg.ltot, EngineCell<GranularitySimulator>(cfg, spec, {})},
      {1, 0, cfg.ltot, EngineCell<db::ExplicitSimulator>(cfg, spec, {})},
      {2, 0, cfg.ltot, EngineCell<db::IncrementalSimulator>(cfg, spec, {})}};
  // The expected merge of each point: its direct runs summed in
  // replication order, then averaged.
  std::vector<std::string> expected;
  for (int engine = 0; engine < 3; ++engine) {
    SimulationMetrics sum;
    for (uint64_t seed : seeds) {
      const Result<SimulationMetrics> direct =
          engine == 0   ? GranularitySimulator::RunOnce(cfg, spec, seed)
          : engine == 1 ? db::ExplicitSimulator::RunOnce(cfg, spec, seed)
                        : db::IncrementalSimulator::RunOnce(cfg, spec, seed);
      ASSERT_TRUE(direct.ok()) << direct.status();
      sum.Accumulate(*direct);
    }
    sum.FinalizeMeans(static_cast<int64_t>(seeds.size()));
    expected.push_back(Encoded(sum));
  }
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ParallelRunner runner(threads);
    const GridResult result = RunGrid(grid, seeds, &runner, CellPolicy{});
    ASSERT_TRUE(result.first_failure.status.ok())
        << result.first_failure.status;
    ASSERT_EQ(result.points.size(), 3u);
    for (size_t p = 0; p < 3; ++p) {
      EXPECT_EQ(result.points[p].replications, 2);
      EXPECT_EQ(Encoded(result.points[p].mean), expected[p]) << "point " << p;
    }
  }
}

TEST(StandardLockSweepTest, NoDuplicatesWhenDbsizeOnGrid) {
  const auto sweep = StandardLockSweep(100);
  EXPECT_EQ(std::count(sweep.begin(), sweep.end(), 100), 1);
  EXPECT_TRUE(std::adjacent_find(sweep.begin(), sweep.end()) == sweep.end());
}

TEST(MetricsAccumulateTest, EveryFieldParticipatesInAccumulation) {
  // Stamp every metric with a distinct nonzero value through the canonical
  // field list, then check each one accumulated. A field added to
  // `SimulationMetrics` but left out of `GRANULOCK_METRICS_FIELDS` fails
  // the sizeof static_assert in metrics.cc at compile time; a field whose
  // accumulation is mishandled fails here.
  SimulationMetrics a{};
  SimulationMetrics b{};
  double v = 1.0;
#define GRANULOCK_STAMP_FIELD(name, kind)            \
  a.name = static_cast<decltype(a.name)>(v);         \
  b.name = static_cast<decltype(b.name)>(100.0 + v); \
  v += 1.0;
  GRANULOCK_METRICS_FIELDS(GRANULOCK_STAMP_FIELD)
#undef GRANULOCK_STAMP_FIELD

  SimulationMetrics sum{};
  sum.Accumulate(a);
  sum.Accumulate(b);
  v = 1.0;
#define GRANULOCK_CHECK_FIELD(name, kind)                               \
  EXPECT_EQ(sum.name, static_cast<decltype(a.name)>(v) +                \
                          static_cast<decltype(a.name)>(100.0 + v))     \
      << "field not accumulated: " #name;                               \
  v += 1.0;
  GRANULOCK_METRICS_FIELDS(GRANULOCK_CHECK_FIELD)
#undef GRANULOCK_CHECK_FIELD
}

TEST(MetricsAccumulateTest, FinalizeMeansDividesMeansButKeepsSums) {
  SimulationMetrics m{};
  m.throughput = 10.0;       // kMeanDouble: divided by n
  m.totcom = 9;              // kMeanInt64: divided by n, truncated
  m.events_executed = 1000;  // kSumUint64: replication total, untouched
  m.FinalizeMeans(4);
  EXPECT_DOUBLE_EQ(m.throughput, 2.5);
  EXPECT_EQ(m.totcom, 2);  // int64 means truncate (historical behavior)
  EXPECT_EQ(m.events_executed, 1000u);
}

TEST(BestThroughputPointTest, FirstOfEqualMaximaWins) {
  std::vector<SweepPoint> sweep(2);
  sweep[0].ltot = 10;
  sweep[0].metrics.mean.throughput = 0.2;
  sweep[1].ltot = 20;
  sweep[1].metrics.mean.throughput = 0.2;
  EXPECT_EQ(BestThroughputPoint(sweep).ltot, 10);
}

TEST(BestThroughputPointTest, FindsMaximum) {
  std::vector<SweepPoint> sweep(3);
  sweep[0].ltot = 1;
  sweep[0].metrics.mean.throughput = 0.05;
  sweep[1].ltot = 100;
  sweep[1].metrics.mean.throughput = 0.2;
  sweep[2].ltot = 5000;
  sweep[2].metrics.mean.throughput = 0.1;
  EXPECT_EQ(BestThroughputPoint(sweep).ltot, 100);
}

}  // namespace
}  // namespace granulock::core
