// Contention-attribution profiler tests (src/obs/contention.*): the
// accounting units (wait crediting, mode-conflict matrix, chain depths,
// deterministic top-K, thrashing-boundary detection, DOT/JSON exports),
// plus the engine contract — attaching a `ContentionProfiler` to any of
// the four engines never perturbs `SimulationMetrics`, while the profiler
// itself observes real contention.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/granularity_simulator.h"
#include "core/metrics.h"
#include "db/explicit_simulator.h"
#include "db/incremental_simulator.h"
#include "db/transfer_simulator.h"
#include "lockmgr/lock_mode.h"
#include "model/config.h"
#include "obs/contention.h"
#include "obs/json_writer.h"
#include "obs/span_trace.h"
#include "workload/workload.h"

namespace granulock {
namespace {

using lockmgr::LockMode;
using obs::ContentionProfiler;

// Exact-equality comparison over the canonical metric field list: the
// profiler must not perturb the simulation at all, not merely stay close.
void ExpectBitIdentical(const core::SimulationMetrics& a,
                        const core::SimulationMetrics& b) {
#define GRANULOCK_EXPECT_FIELD_EQ(name, kind) \
  EXPECT_EQ(a.name, b.name) << "field: " #name;
  GRANULOCK_METRICS_FIELDS(GRANULOCK_EXPECT_FIELD_EQ)
#undef GRANULOCK_EXPECT_FIELD_EQ
}

// Small database, many transactions: real lock conflicts at every engine.
model::SystemConfig ContendedConfig() {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.ltot = 10;
  cfg.npros = 2;
  cfg.ntrans = 10;
  cfg.maxtransize = 40;
  cfg.tmax = 800.0;
  return cfg;
}

// --------------------------------------------------------------------
// Key naming.

TEST(ContentionKeyTest, NamesCoverTheHierarchy) {
  EXPECT_EQ(obs::ContentionKeyName(0), "g0");
  EXPECT_EQ(obs::ContentionKeyName(17), "g17");
  EXPECT_EQ(obs::ContentionKeyName(obs::kRootObjectKey), "root");
  EXPECT_EQ(obs::ContentionKeyName(obs::FileObjectKey(0)), "file0");
  EXPECT_EQ(obs::ContentionKeyName(obs::FileObjectKey(3)), "file3");
}

TEST(ContentionKeyTest, KeySpacesAreDisjoint) {
  // Granules are non-negative; root and files map below -1 and -2-f
  // respectively, so one ordered map can hold the whole hierarchy.
  EXPECT_LT(obs::kRootObjectKey, 0);
  EXPECT_LT(obs::FileObjectKey(0), obs::kRootObjectKey);
  EXPECT_NE(obs::FileObjectKey(0), obs::FileObjectKey(1));
}

// --------------------------------------------------------------------
// Thrashing-boundary detection.

TEST(ThrashingBoundaryTest, MonotoneCurveHasNoBoundary) {
  const auto b = obs::DetectThrashingBoundary({1, 10, 100, 1000},
                                              {1.0, 2.0, 3.0, 4.0});
  EXPECT_FALSE(b.found);
  EXPECT_DOUBLE_EQ(b.peak_x, 1000.0);
  EXPECT_DOUBLE_EQ(b.peak_y, 4.0);
  EXPECT_DOUBLE_EQ(b.collapse_fraction, 0.0);
}

TEST(ThrashingBoundaryTest, FindsTheFirstDrop) {
  // Classic granularity curve: rises to a peak, then collapses.
  const auto b = obs::DetectThrashingBoundary({1, 10, 100, 1000, 10000},
                                              {1.0, 4.0, 5.0, 2.0, 1.0});
  ASSERT_TRUE(b.found);
  EXPECT_DOUBLE_EQ(b.boundary_x, 1000.0);  // first x past the last rise
  EXPECT_DOUBLE_EQ(b.peak_x, 100.0);
  EXPECT_DOUBLE_EQ(b.peak_y, 5.0);
  EXPECT_DOUBLE_EQ(b.collapse_fraction, 1.0 - 1.0 / 5.0);
}

TEST(ThrashingBoundaryTest, ToleranceAbsorbsReplicationNoise) {
  // A 1% dip is noise under the default 2% tolerance, and must not be
  // declared a thrashing boundary.
  const auto noise = obs::DetectThrashingBoundary({1, 2, 3}, {5.0, 4.95, 5.1});
  EXPECT_FALSE(noise.found);
  const auto real_drop =
      obs::DetectThrashingBoundary({1, 2, 3}, {5.0, 4.0, 3.0});
  EXPECT_TRUE(real_drop.found);
  EXPECT_DOUBLE_EQ(real_drop.boundary_x, 2.0);
}

TEST(ThrashingBoundaryTest, EmptyAndSingletonCurves) {
  EXPECT_FALSE(obs::DetectThrashingBoundary({}, {}).found);
  const auto one = obs::DetectThrashingBoundary({7}, {3.0});
  EXPECT_FALSE(one.found);
  EXPECT_DOUBLE_EQ(one.peak_x, 7.0);
}

// --------------------------------------------------------------------
// Wait accounting.

TEST(ContentionProfilerTest, CreditsCompletedWaitsToTheBlockedKey) {
  ContentionProfiler prof;
  prof.BeginRun(10, /*imputed=*/false);
  prof.OnBlock(/*waiter=*/1, /*key=*/7, LockMode::kX, LockMode::kS,
               /*chain_depth=*/1, /*now=*/10.0);
  prof.OnUnblock(1, 25.0);
  EXPECT_EQ(prof.total_waits(), 1);
  EXPECT_DOUBLE_EQ(prof.total_wait_time(), 15.0);
  const auto top = prof.TopGranules();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].key, 7);
  EXPECT_EQ(top[0].waits, 1);
  EXPECT_DOUBLE_EQ(top[0].wait_time, 15.0);
}

TEST(ContentionProfilerTest, UnknownAndOpenWaitsStayUncredited) {
  ContentionProfiler prof;
  prof.OnUnblock(99, 5.0);  // never blocked: ignored
  EXPECT_DOUBLE_EQ(prof.total_wait_time(), 0.0);
  prof.OnBlock(1, 3, LockMode::kX, LockMode::kX, 1, 10.0);
  // No OnUnblock: the wait is counted but its time never credited.
  EXPECT_EQ(prof.total_waits(), 1);
  EXPECT_DOUBLE_EQ(prof.total_wait_time(), 0.0);
}

TEST(ContentionProfilerTest, ReblockReattributesTheWaiter) {
  ContentionProfiler prof;
  prof.OnBlock(1, 3, LockMode::kX, LockMode::kX, 1, 10.0);
  prof.OnBlock(1, 8, LockMode::kX, LockMode::kX, 1, 20.0);  // re-blocked
  prof.OnUnblock(1, 50.0);
  // The completed wait is credited to the latest key from its own start.
  const auto top = prof.TopGranules();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 8);
  EXPECT_DOUBLE_EQ(top[0].wait_time, 30.0);
  EXPECT_DOUBLE_EQ(top[1].wait_time, 0.0);
}

TEST(ContentionProfilerTest, ModeMatrixCountsRequestedVsHeld) {
  ContentionProfiler prof;
  prof.OnBlock(1, 0, LockMode::kX, LockMode::kS, 1, 0.0);
  prof.OnBlock(2, 0, LockMode::kX, LockMode::kS, 1, 0.0);
  prof.OnBlock(3, 1, LockMode::kIX, LockMode::kSIX, 1, 0.0);
  const auto& m = prof.mode_conflicts();
  EXPECT_EQ(m[static_cast<int>(LockMode::kX)][static_cast<int>(LockMode::kS)],
            2);
  EXPECT_EQ(
      m[static_cast<int>(LockMode::kIX)][static_cast<int>(LockMode::kSIX)],
      1);
  EXPECT_EQ(m[static_cast<int>(LockMode::kS)][static_cast<int>(LockMode::kX)],
            0);
}

TEST(ContentionProfilerTest, ChainDepthHistogramAndClamp) {
  ContentionProfiler prof;
  prof.OnBlock(1, 0, LockMode::kX, LockMode::kX, 1, 0.0);
  prof.OnBlock(2, 0, LockMode::kX, LockMode::kX, 3, 0.0);
  prof.OnBlock(3, 0, LockMode::kX, LockMode::kX, 0, 0.0);  // clamped to 1
  const auto& depths = prof.chain_depths();
  ASSERT_EQ(depths.size(), 2u);
  EXPECT_EQ(depths.at(1), 2);
  EXPECT_EQ(depths.at(3), 1);
  EXPECT_EQ(prof.max_chain_depth(), 3);
}

TEST(ContentionProfilerTest, TopGranulesAreADeterministicTotalOrder) {
  ContentionProfiler::Options options;
  options.top_k = 2;
  ContentionProfiler prof(options);
  // key 5: 2 waits, 30 time. key 3: 1 wait, 30 time. key 9: 1 wait, 5.
  prof.OnBlock(1, 5, LockMode::kX, LockMode::kX, 1, 0.0);
  prof.OnUnblock(1, 10.0);
  prof.OnBlock(1, 5, LockMode::kX, LockMode::kX, 1, 10.0);
  prof.OnUnblock(1, 30.0);
  prof.OnBlock(2, 3, LockMode::kX, LockMode::kX, 1, 0.0);
  prof.OnUnblock(2, 30.0);
  prof.OnBlock(4, 9, LockMode::kX, LockMode::kX, 1, 0.0);
  prof.OnUnblock(4, 5.0);
  const auto top = prof.TopGranules();
  ASSERT_EQ(top.size(), 2u);  // top_k truncation
  // Equal wait time: more waits wins; then lower key.
  EXPECT_EQ(top[0].key, 5);
  EXPECT_EQ(top[1].key, 3);
}

TEST(ContentionProfilerTest, GrantsMeasureTrafficSeparately) {
  ContentionProfiler prof;
  prof.OnGrant(4);
  prof.OnGrant(4, 2);
  prof.OnGrantTotal(10);
  EXPECT_EQ(prof.total_grants(), 13);
  const auto top = prof.TopGranules();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].grants, 3);
  EXPECT_EQ(top[0].waits, 0);
}

// --------------------------------------------------------------------
// Sampling, snapshots, and exports.

TEST(ContentionProfilerTest, SamplesSortDedupAndBoundSnapshots) {
  ContentionProfiler::Options options;
  options.max_snapshot_edges = 2;
  options.max_snapshots = 2;
  ContentionProfiler prof(options);
  // Unordered, duplicated edges: stored sorted and deduped.
  prof.OnSample(50.0, 0.5, 0.2, {{3, 1}, {2, 1}, {3, 1}, {4, 2}});
  ASSERT_EQ(prof.snapshots().size(), 1u);
  const auto& snap = prof.snapshots()[0];
  EXPECT_EQ(snap.total_edges, 3u);
  ASSERT_EQ(snap.edges.size(), 2u);  // truncated to max_snapshot_edges
  EXPECT_EQ(snap.edges[0], (std::pair<uint64_t, uint64_t>{2, 1}));
  EXPECT_EQ(snap.edges[1], (std::pair<uint64_t, uint64_t>{3, 1}));
  prof.OnSample(100.0, 0.5, 0.2, {});
  prof.OnSample(150.0, 0.5, 0.2, {{1, 2}});  // beyond max_snapshots
  EXPECT_EQ(prof.snapshots().size(), 2u);
  // The time series keeps sampling even after the snapshot cap.
  EXPECT_EQ(prof.series().Rows().size(), 3u);
  EXPECT_DOUBLE_EQ(prof.MeanBlockedFraction(), 0.5);
  EXPECT_DOUBLE_EQ(prof.MeanLockOccupancy(), 0.2);
}

TEST(ContentionProfilerTest, DotExportPicksTheDensestSnapshot) {
  ContentionProfiler prof;
  prof.OnSample(10.0, 0.1, 0.1, {{2, 1}});
  prof.OnSample(20.0, 0.4, 0.4, {{2, 1}, {3, 1}, {4, 3}});
  prof.OnSample(30.0, 0.2, 0.2, {{5, 4}});
  std::ostringstream os;
  prof.WriteDot(os);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph waits_for"), std::string::npos);
  EXPECT_NE(dot.find("simulated time 20"), std::string::npos);
  EXPECT_NE(dot.find("t2 -> t1;"), std::string::npos);
  EXPECT_NE(dot.find("t4 -> t3;"), std::string::npos);
  EXPECT_EQ(dot.find("t5 -> t4;"), std::string::npos);  // sparser snapshot
}

TEST(ContentionProfilerTest, DotExportOfNothingIsAnEmptyGraph) {
  ContentionProfiler prof;
  std::ostringstream os;
  prof.WriteDot(os);
  EXPECT_EQ(os.str(), "digraph waits_for {\n}\n");
}

TEST(ContentionProfilerTest, SnapshotsMirrorIntoSpanInstants) {
  obs::SpanRecorder spans;
  ContentionProfiler prof;
  prof.LinkSpans(&spans);
  prof.OnSample(50.0, 0.5, 0.5, {{2, 1}, {3, 1}});
  std::ostringstream os;
  spans.WriteChromeTrace(os);
  const std::string trace = os.str();
  ASSERT_TRUE(obs::ValidateJson(trace).ok());
  EXPECT_NE(trace.find("\"waits_for_edges\""), std::string::npos);
  EXPECT_NE(trace.find("\"contention\""), std::string::npos);
}

TEST(ContentionProfilerTest, JsonExportValidatesAndCarriesTheSections) {
  ContentionProfiler prof;
  prof.BeginRun(100, /*imputed=*/false);
  prof.OnBlock(1, 7, LockMode::kX, LockMode::kS, 2, 10.0);
  prof.OnUnblock(1, 25.0);
  prof.OnGrant(7);
  prof.OnSample(50.0, 0.25, 0.1, {{1, 2}});
  std::ostringstream os;
  prof.WriteJson(os);
  const std::string json = os.str();
  ASSERT_TRUE(obs::ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("\"num_granules\":100"), std::string::npos);
  EXPECT_NE(json.find("\"top_granules\""), std::string::npos);
  EXPECT_NE(json.find("\"g7\""), std::string::npos);
  EXPECT_NE(json.find("\"X|S\":1"), std::string::npos);
  EXPECT_NE(json.find("\"chain_depths\""), std::string::npos);
  EXPECT_NE(json.find("\"max_chain_depth\":2"), std::string::npos);
}

TEST(ContentionProfilerTest, ClearForgetsEverything) {
  ContentionProfiler prof;
  prof.BeginRun(10, true);
  prof.OnBlock(1, 3, LockMode::kX, LockMode::kX, 2, 0.0);
  prof.OnGrant(3);
  prof.OnSample(50.0, 1.0, 1.0, {{1, 2}});
  prof.Clear();
  EXPECT_EQ(prof.total_waits(), 0);
  EXPECT_EQ(prof.total_grants(), 0);
  EXPECT_EQ(prof.max_chain_depth(), 0);
  EXPECT_TRUE(prof.TopGranules().empty());
  EXPECT_TRUE(prof.snapshots().empty());
  EXPECT_EQ(prof.series().Rows().size(), 0u);
}

// --------------------------------------------------------------------
// Engine contract: profiling never perturbs results, yet observes real
// contention — per engine.

TEST(ContentionEngineTest, GranularityEngineUnperturbedAndImputed) {
  const model::SystemConfig cfg = ContendedConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);

  auto plain = core::GranularitySimulator::RunOnce(cfg, spec, 7);
  ASSERT_TRUE(plain.ok()) << plain.status();

  obs::ContentionProfiler prof;
  core::GranularitySimulator::Options options;
  options.obs.contention = &prof;
  auto profiled = core::GranularitySimulator::RunOnce(cfg, spec, 7, options);
  ASSERT_TRUE(profiled.ok()) << profiled.status();

  ExpectBitIdentical(*plain, *profiled);
  // The probabilistic engine has no lock table: attribution is imputed,
  // but waits/denials line up with the engine's own accounting.
  EXPECT_EQ(prof.total_waits(), profiled->lock_denials);
  EXPECT_GT(prof.total_waits(), 0);
  EXPECT_GT(prof.total_grants(), 0);
  EXPECT_GT(prof.series().Rows().size(), 0u);
}

TEST(ContentionEngineTest, ExplicitEngineUnperturbedWithRealAttribution) {
  const model::SystemConfig cfg = ContendedConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);

  auto plain = db::ExplicitSimulator::RunOnce(cfg, spec, 7);
  ASSERT_TRUE(plain.ok()) << plain.status();

  obs::ContentionProfiler prof;
  db::ExplicitSimulator::Options options;
  options.obs.contention = &prof;
  auto profiled = db::ExplicitSimulator::RunOnce(cfg, spec, 7, options);
  ASSERT_TRUE(profiled.ok()) << profiled.status();

  ExpectBitIdentical(*plain, *profiled);
  EXPECT_GT(prof.total_waits(), 0);
  EXPECT_GT(prof.total_grants(), 0);
  // Real lock-table attribution: hot keys are granule indices.
  const auto top = prof.TopGranules();
  ASSERT_FALSE(top.empty());
  EXPECT_GE(top[0].key, 0);
  EXPECT_LT(top[0].key, cfg.ltot);
  // Conservative locking cannot chain waiters.
  EXPECT_EQ(prof.max_chain_depth(), 1);
}

TEST(ContentionEngineTest, HierarchicalStrategyAttributesCoarseLevels) {
  model::SystemConfig cfg = ContendedConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);

  obs::ContentionProfiler prof;
  db::ExplicitSimulator::Options options;
  options.strategy = db::ExplicitSimulator::LockingStrategy::kHierarchical;
  options.coarse_threshold = 5;  // large transactions lock the root
  options.num_files = 2;
  options.obs.contention = &prof;
  auto profiled = db::ExplicitSimulator::RunOnce(cfg, spec, 7, options);
  ASSERT_TRUE(profiled.ok()) << profiled.status();

  // Grants land on every level of the hierarchy: with a coarse threshold
  // this low, some transaction locked the database root.
  bool saw_root = false;
  for (const auto& g : prof.TopGranules()) {
    if (g.key == obs::kRootObjectKey) saw_root = true;
  }
  EXPECT_TRUE(saw_root);
}

TEST(ContentionEngineTest, IncrementalEngineUnperturbedWithChains) {
  const model::SystemConfig cfg = ContendedConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);

  auto plain = db::IncrementalSimulator::RunOnce(cfg, spec, 7);
  ASSERT_TRUE(plain.ok()) << plain.status();

  obs::ContentionProfiler prof;
  db::IncrementalSimulator::Options options;
  options.obs.contention = &prof;
  auto profiled = db::IncrementalSimulator::RunOnce(cfg, spec, 7, options);
  ASSERT_TRUE(profiled.ok()) << profiled.status();

  ExpectBitIdentical(*plain, *profiled);
  EXPECT_GT(prof.total_waits(), 0);
  // Incremental 2PL queues waiters behind holders that may themselves
  // wait — chain depths are meaningful here (>= 1 by definition).
  EXPECT_GE(prof.max_chain_depth(), 1);
  EXPECT_FALSE(prof.chain_depths().empty());
}

TEST(ContentionEngineTest, TransferEngineUnperturbedAndConserved) {
  model::SystemConfig cfg = ContendedConfig();
  cfg.dbsize = 50;  // accounts
  cfg.ltot = 5;
  cfg.ntrans = 16;

  auto plain = db::TransferSimulator::RunOnce(cfg, 7);
  ASSERT_TRUE(plain.ok()) << plain.status();

  obs::ContentionProfiler prof;
  db::TransferSimulator::Options options;
  options.obs.contention = &prof;
  auto profiled = db::TransferSimulator::RunOnce(cfg, 7, options);
  ASSERT_TRUE(profiled.ok()) << profiled.status();

  ExpectBitIdentical(plain->metrics, profiled->metrics);
  EXPECT_TRUE(profiled->conserved);
  EXPECT_EQ(plain->final_total, profiled->final_total);
  EXPECT_GT(prof.total_waits(), 0);
  EXPECT_GT(prof.total_grants(), 0);
}

TEST(ContentionEngineTest, ProfilerOutputIsRunToRunByteStable) {
  const model::SystemConfig cfg = ContendedConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);

  std::string first;
  for (int run = 0; run < 2; ++run) {
    obs::ContentionProfiler prof;
    db::ExplicitSimulator::Options options;
    options.obs.contention = &prof;
    auto m = db::ExplicitSimulator::RunOnce(cfg, spec, 7, options);
    ASSERT_TRUE(m.ok()) << m.status();
    std::ostringstream json, dot, csv;
    prof.WriteJson(json);
    prof.WriteDot(dot);
    prof.series().WriteCsv(csv);
    const std::string bytes = json.str() + dot.str() + csv.str();
    if (run == 0) {
      first = bytes;
    } else {
      EXPECT_EQ(bytes, first);
    }
  }
}

}  // namespace
}  // namespace granulock
