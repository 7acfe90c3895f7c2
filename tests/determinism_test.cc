// Seed-determinism regression test: the same configuration and seed must
// produce bit-identical results, run to run — the property every replicated
// bench, confidence interval, and JSON-report diff in this repo relies on.
//
// Three layers are pinned down:
//  1. engine level: `GranularitySimulator::RunOnce` on the Figure 2
//     configuration twice with the same seed yields bit-identical
//     `SimulationMetrics` (every field compared with exact equality —
//     doubles included, since the runs must take the same code paths);
//  2. report level: `bench::RunFigure` + `bench::RenderJsonReport` yields
//     byte-identical JSON once `wall_seconds` (the only wall-clock-derived
//     field) is pinned;
//  3. across commits: a table of per-engine digests (EngineGoldenTest).

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "core/checkpoint.h"
#include "core/experiment.h"
#include "core/granularity_simulator.h"
#include "core/metrics.h"
#include "core/parallel_runner.h"
#include "db/explicit_simulator.h"
#include "db/incremental_simulator.h"
#include "db/transfer_simulator.h"
#include "model/config.h"
#include "sim/invariants.h"
#include "sim/trace.h"
#include "util/strings.h"
#include "workload/workload.h"

namespace granulock {
namespace {

// Exact-equality comparison of every SimulationMetrics field, generated
// from the canonical field list so a newly added metric is compared
// automatically. EXPECT_EQ on doubles is deliberate: determinism means
// bit-identical, not merely close.
void ExpectBitIdentical(const core::SimulationMetrics& a,
                        const core::SimulationMetrics& b) {
#define GRANULOCK_EXPECT_FIELD_EQ(name, kind) \
  EXPECT_EQ(a.name, b.name) << "field: " #name;
  GRANULOCK_METRICS_FIELDS(GRANULOCK_EXPECT_FIELD_EQ)
#undef GRANULOCK_EXPECT_FIELD_EQ
}

void ExpectBitIdentical(const core::ReplicatedMetrics& a,
                        const core::ReplicatedMetrics& b) {
  EXPECT_EQ(a.replications, b.replications);
  ExpectBitIdentical(a.mean, b.mean);
  EXPECT_EQ(a.throughput_hw95, b.throughput_hw95);
  EXPECT_EQ(a.response_hw95, b.response_hw95);
}

// The Figure 2 base point (Table 1 parameters), shortened so the test runs
// in well under a second while still executing tens of thousands of events.
model::SystemConfig Figure2Config() {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.tmax = 1000.0;
  return cfg;
}

TEST(DeterminismTest, SameSeedYieldsBitIdenticalMetrics) {
  const model::SystemConfig cfg = Figure2Config();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);

  const auto first = core::GranularitySimulator::RunOnce(cfg, spec, 42);
  const auto second = core::GranularitySimulator::RunOnce(cfg, spec, 42);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_GT(first->totcom, 0);  // the run actually did work
  ExpectBitIdentical(*first, *second);
}

TEST(DeterminismTest, DifferentSeedsYieldDifferentRuns) {
  const model::SystemConfig cfg = Figure2Config();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);

  const auto a = core::GranularitySimulator::RunOnce(cfg, spec, 42);
  const auto b = core::GranularitySimulator::RunOnce(cfg, spec, 43);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Guards against the determinism test passing vacuously because the
  // metrics are constants independent of the simulation.
  EXPECT_NE(a->events_executed, b->events_executed);
}

TEST(DeterminismTest, JsonReportBytesAreReproducible) {
  bench::BenchArgs args;
  args.seed = 42;
  args.reps = 2;
  args.tmax = 500.0;

  const model::SystemConfig cfg = Figure2Config();
  std::vector<bench::Series> series;
  series.push_back({"npros=10", cfg, workload::WorkloadSpec::Base(cfg), {}});

  bench::FigureData first =
      bench::RunFigure("fig02", series, args, {1, 20, 100});
  bench::FigureData second =
      bench::RunFigure("fig02", series, args, {1, 20, 100});

  // wall_seconds is engine self-profiling (wall clock), the one field that
  // legitimately differs between identical runs; pin it before comparing.
  first.wall_seconds = 0.0;
  second.wall_seconds = 0.0;

  const std::string report_a = bench::RenderJsonReport("fig02", first, args);
  const std::string report_b = bench::RenderJsonReport("fig02", second, args);
  EXPECT_FALSE(report_a.empty());
  EXPECT_EQ(report_a, report_b);  // byte-identical
}

// --- contention-profiler determinism ---
//
// --profile_contention re-runs surviving cells with a
// `obs::ContentionProfiler` attached. Two contracts: (1) profiling is
// invisible — every simulated metric in the report stays byte-identical
// with the profiler on or off; (2) the profiler's own output is
// deterministic — the contention section's bytes are stable across
// repeated same-seed runs and across any --threads value (the profiling
// pass always runs serially on the rep-0 seed).

TEST(ContentionDeterminismTest, ProfilerOnOrOffLeavesMetricsByteIdentical) {
  bench::BenchArgs args;
  args.seed = 42;
  args.reps = 2;
  args.tmax = 500.0;

  const model::SystemConfig cfg = Figure2Config();
  std::vector<bench::Series> series;
  series.push_back({"npros=10", cfg, workload::WorkloadSpec::Base(cfg), {}});

  bench::FigureData off =
      bench::RunFigure("fig02", series, args, {1, 20, 100});
  args.profile_contention = true;
  bench::FigureData on = bench::RunFigure("fig02", series, args, {1, 20, 100});

  // Cell-level: every replicated metric is bit-identical.
  ASSERT_EQ(on.values.size(), off.values.size());
  for (size_t s = 0; s < off.values.size(); ++s) {
    ASSERT_EQ(on.values[s].size(), off.values[s].size());
    for (size_t p = 0; p < off.values[s].size(); ++p) {
      ExpectBitIdentical(off.values[s][p], on.values[s][p]);
    }
  }
  ASSERT_EQ(on.contention.size(), 1u);  // the profile itself was collected
  EXPECT_EQ(on.contention[0].points.size(), 3u);

  // Report-level: with the contention section dropped (and the flag
  // normalized), the profiled report is byte-identical to the plain one.
  on.contention.clear();
  off.wall_seconds = 0.0;
  on.wall_seconds = 0.0;
  args.profile_contention = false;
  const std::string report_off = bench::RenderJsonReport("fig02", off, args);
  const std::string report_on = bench::RenderJsonReport("fig02", on, args);
  EXPECT_EQ(report_on, report_off);
}

TEST(ContentionDeterminismTest, ContentionBytesStableAcrossRunsAndThreads) {
  bench::BenchArgs args;
  args.seed = 42;
  args.reps = 2;
  args.tmax = 500.0;
  args.profile_contention = true;

  const model::SystemConfig cfg = Figure2Config();
  std::vector<bench::Series> series;
  series.push_back({"npros=10", cfg, workload::WorkloadSpec::Base(cfg), {}});

  // threads=1 twice (repeated same-seed run), then 2 and 8.
  std::string reference;
  for (int threads : {1, 1, 2, 8}) {
    args.threads = threads;
    args.resolved_threads = threads;
    bench::FigureData data =
        bench::RunFigure("fig02", series, args, {1, 20, 100});
    data.wall_seconds = 0.0;
    // Pin the thread count recorded in the report header so the bytes can
    // only differ if the results (or the contention section) differ.
    args.threads = 1;
    args.resolved_threads = 1;
    const std::string report = bench::RenderJsonReport("fig02", data, args);
    ASSERT_NE(report.find("\"contention\""), std::string::npos);
    if (reference.empty()) {
      reference = report;
    } else {
      EXPECT_EQ(report, reference) << "threads=" << threads;
    }
  }
}

// --- parallel execution determinism ---
//
// `ParallelRunner` must be invisible in the results: the same seed run
// serially, with 2 threads, or with 8 threads (more workers than this
// container has cores — exercises oversubscription) yields bit-identical
// `ReplicatedMetrics` and byte-identical JSON reports. This is the
// contract that lets `--threads` default to hardware concurrency without
// any bench output changing.

TEST(ParallelDeterminismTest, ReplicatedMetricsMatchSerialAtAnyThreadCount) {
  const model::SystemConfig cfg = Figure2Config();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  constexpr int kReps = 5;

  const auto serial = core::RunReplicated(cfg, spec, 42, kReps);
  ASSERT_TRUE(serial.ok());
  ASSERT_GT(serial->mean.totcom, 0);

  for (int threads : {2, 8}) {
    core::ParallelRunner runner(threads);
    const auto parallel =
        core::RunReplicated(cfg, spec, 42, kReps, {}, &runner);
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
    ExpectBitIdentical(*serial, *parallel);
  }
}

TEST(ParallelDeterminismTest, SweepMatchesSerialAtAnyThreadCount) {
  const model::SystemConfig cfg = Figure2Config();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  const std::vector<int64_t> lock_counts = {1, 20, 100};

  const auto serial =
      core::SweepLockCounts(cfg, spec, lock_counts, 42, /*replications=*/3);
  ASSERT_TRUE(serial.ok());

  for (int threads : {2, 8}) {
    core::ParallelRunner runner(threads);
    const auto parallel = core::SweepLockCounts(cfg, spec, lock_counts, 42,
                                                /*replications=*/3, {},
                                                &runner);
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
    ASSERT_EQ(parallel->size(), serial->size());
    for (size_t p = 0; p < serial->size(); ++p) {
      EXPECT_EQ((*parallel)[p].ltot, (*serial)[p].ltot);
      ExpectBitIdentical((*serial)[p].metrics, (*parallel)[p].metrics);
    }
  }
}

TEST(ParallelDeterminismTest, JsonReportBytesMatchSerial) {
  bench::BenchArgs args;
  args.seed = 42;
  args.reps = 3;
  args.tmax = 500.0;

  const model::SystemConfig cfg = Figure2Config();
  std::vector<bench::Series> series;
  series.push_back({"npros=10", cfg, workload::WorkloadSpec::Base(cfg), {}});

  std::string serial_report;
  for (int threads : {1, 2, 8}) {
    args.threads = threads;
    args.resolved_threads = threads;
    bench::FigureData data =
        bench::RunFigure("fig02", series, args, {1, 20, 100});
    data.wall_seconds = 0.0;  // the only wall-clock-derived report field
    const std::string report = bench::RenderJsonReport("fig02", data, args);
    ASSERT_FALSE(report.empty());
    if (threads == 1) {
      serial_report = report;
    } else {
      EXPECT_EQ(report, serial_report) << "threads=" << threads;
    }
  }
}

// --- cross-commit engine golden ---
//
// Every test above compares two runs of the same build. This one pins each
// engine's results across commits: a digest (FNV-1a over the checkpoint
// journal's round-trip encoding, which covers every `SimulationMetrics`
// field) per configuration. A change that must not alter simulated results
// keeps every row; a deliberate behaviour change updates exactly the rows
// it is meant to move, and the diff of this table shows which.

struct GoldenRow {
  const char* name;
  std::function<std::string()> run;  // encoded results, "" on error
  const char* digest;
};

std::string Encode(const Result<core::SimulationMetrics>& m) {
  if (!m.ok()) return "";
  return core::CheckpointJournal::EncodeRecord(core::CellKey{}, *m);
}

model::SystemConfig GoldenConfig(double tmax) {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.tmax = tmax;
  return cfg;
}

// Claim-as-needed under heavy contention (worst placement, 20 granules,
// MPL 20), so every contention policy aborts, restarts and reorders.
model::SystemConfig ContendedConfig() {
  model::SystemConfig cfg = GoldenConfig(800.0);
  cfg.ltot = 20;
  cfg.ntrans = 20;
  cfg.maxtransize = 100;
  cfg.warmup = 100.0;
  return cfg;
}

std::string RunIncremental(db::ContentionPolicyKind policy, bool admission) {
  const model::SystemConfig cfg = ContendedConfig();
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.placement = model::Placement::kWorst;
  db::IncrementalSimulator::Options options;
  options.contention.policy = policy;
  options.contention.admission.enabled = admission;
  return Encode(db::IncrementalSimulator::RunOnce(cfg, spec, 3, options));
}

std::string RunTransfer(db::TransferSimulator::ConcurrencyControl cc) {
  model::SystemConfig cfg = GoldenConfig(1000.0);
  cfg.dbsize = 400;
  cfg.maxtransize = 100;  // ignored by transfers; must fit the database
  cfg.ntrans = 20;
  cfg.warmup = 100.0;
  db::TransferSimulator::Options options;
  options.concurrency_control = cc;
  options.zipf_theta = 0.8;
  options.hot_fraction = 0.05;
  const auto report = db::TransferSimulator::RunOnce(cfg, 5, options);
  if (!report.ok()) return "";
  return Encode(report->metrics) +
         StrFormat("|%lld|%lld|%lld|%d|%lld",
                   (long long)report->initial_total,
                   (long long)report->final_total,
                   (long long)report->in_flight_imbalance,
                   report->conserved ? 1 : 0,
                   (long long)report->writes_applied);
}

std::vector<GoldenRow> GoldenRows() {
  using core::GranularitySimulator;
  using db::ContentionPolicyKind;
  using db::ExplicitSimulator;
  std::vector<GoldenRow> rows;
  rows.push_back({"probabilistic/table1",
                  [] {
                    const auto cfg = GoldenConfig(1000.0);
                    return Encode(GranularitySimulator::RunOnce(
                        cfg, workload::WorkloadSpec::Base(cfg), 42));
                  },
                  "d5517f155f8ebb3b"});
  rows.push_back({"probabilistic/think_time+max_active",
                  [] {
                    auto cfg = GoldenConfig(1000.0);
                    cfg.ntrans = 30;
                    cfg.think_time = 5.0;
                    cfg.warmup = 100.0;
                    GranularitySimulator::Options options;
                    options.max_active = 6;
                    options.requeue_blocked_at_tail = false;
                    return Encode(GranularitySimulator::RunOnce(
                        cfg, workload::WorkloadSpec::Base(cfg), 7, options));
                  },
                  "35e5024a0e798c51"});
  rows.push_back({"probabilistic/adaptive_admission",
                  [] {
                    auto cfg = GoldenConfig(1000.0);
                    cfg.ntrans = 40;
                    GranularitySimulator::Options options;
                    options.adaptive_admission = true;
                    options.adaptation_interval = 50.0;
                    return Encode(GranularitySimulator::RunOnce(
                        cfg, workload::WorkloadSpec::Base(cfg), 11, options));
                  },
                  "bcd1dd9fe5f2341b"});
  rows.push_back({"explicit/flat",
                  [] {
                    const auto cfg = GoldenConfig(1000.0);
                    workload::WorkloadSpec spec =
                        workload::WorkloadSpec::Base(cfg);
                    spec.placement = model::Placement::kRandom;
                    return Encode(ExplicitSimulator::RunOnce(cfg, spec, 3));
                  },
                  "16a7591354c0793b"});
  rows.push_back({"explicit/mgl_files_escalation_readers",
                  [] {
                    auto cfg = GoldenConfig(1000.0);
                    cfg.ltot = 500;
                    cfg.warmup = 100.0;
                    workload::WorkloadSpec spec =
                        workload::WorkloadSpec::Base(cfg);
                    spec.placement = model::Placement::kRandom;
                    ExplicitSimulator::Options options;
                    options.strategy =
                        ExplicitSimulator::LockingStrategy::kHierarchical;
                    options.coarse_threshold = 250;
                    options.num_files = 10;
                    options.escalation_threshold = 20;
                    options.read_fraction = 0.25;
                    return Encode(
                        ExplicitSimulator::RunOnce(cfg, spec, 4, options));
                  },
                  "ed5db12eb439362b"});
  const struct {
    const char* name;
    ContentionPolicyKind kind;
    const char* digest;
  } policies[] = {
      {"incremental/detect", ContentionPolicyKind::kDetectRequester,
       "791cf1d8deae5583"},
      {"incremental/detect_fewest_locks",
       ContentionPolicyKind::kDetectFewestLocks, "da2ec5c7d8bf22e6"},
      {"incremental/detect_youngest", ContentionPolicyKind::kDetectYoungest,
       "e27568cb2e47aa9f"},
      {"incremental/wound_wait", ContentionPolicyKind::kWoundWait,
       "e56b1b651f55402e"},
      {"incremental/wait_die", ContentionPolicyKind::kWaitDie,
       "084b213a5c5f2d39"},
      {"incremental/wait_depth", ContentionPolicyKind::kWaitDepth,
       "40031da05a9c7cd5"},
  };
  for (const auto& p : policies) {
    const ContentionPolicyKind kind = p.kind;
    rows.push_back(
        {p.name, [kind] { return RunIncremental(kind, false); }, p.digest});
  }
  rows.push_back({"incremental/detect+admission",
                  [] {
                    return RunIncremental(
                        ContentionPolicyKind::kDetectRequester, true);
                  },
                  "24d3dc8dc4a9da46"});
  rows.push_back({"transfer/conservative",
                  [] {
                    return RunTransfer(db::TransferSimulator::
                                           ConcurrencyControl::
                                               kConservativeLocking);
                  },
                  "b3044b9c4fe48e3d"});
  rows.push_back({"transfer/no_locking",
                  [] {
                    return RunTransfer(
                        db::TransferSimulator::ConcurrencyControl::kNoLocking);
                  },
                  "8b982adfe7f823fc"});
  return rows;
}

TEST(EngineGoldenTest, EveryEngineMatchesItsPinnedDigest) {
  for (const GoldenRow& row : GoldenRows()) {
    const std::string encoded = row.run();
    if (encoded.empty()) {
      ADD_FAILURE() << row.name << ": run failed";
      continue;
    }
    EXPECT_EQ(core::FingerprintToHex(core::FingerprintString(encoded)),
              row.digest)
        << row.name << " results moved:\n"
        << encoded;
  }
}

// The warm-up only chooses the measurement window; it must not change what
// the engines simulate. Every lifecycle event (and so every admission
// decision, which steers on lock counts) is the same with and without it.
TEST(DeterminismTest, WarmupIsMeasurementOnly) {
  using core::GranularitySimulator;
  using Run =
      std::function<bool(const model::SystemConfig&, sim::TraceRecorder*)>;
  auto probabilistic = [](GranularitySimulator::Options options) -> Run {
    return [options](const model::SystemConfig& cfg,
                     sim::TraceRecorder* trace) mutable {
      options.obs.trace = trace;
      return GranularitySimulator::RunOnce(
                 cfg, workload::WorkloadSpec::Base(cfg), 11, options)
          .ok();
    };
  };
  model::SystemConfig table1 = GoldenConfig(1000.0);
  table1.ntrans = 40;
  GranularitySimulator::Options capped;
  capped.max_active = 6;
  GranularitySimulator::Options adaptive;
  adaptive.adaptive_admission = true;
  adaptive.adaptation_interval = 50.0;
  const struct {
    const char* name;
    model::SystemConfig cfg;
    Run run;
  } cases[] = {
      {"probabilistic/default", table1, probabilistic({})},
      {"probabilistic/max_active", table1, probabilistic(capped)},
      {"probabilistic/adaptive_admission", table1, probabilistic(adaptive)},
      {"explicit/flat", table1,
       [](const model::SystemConfig& cfg, sim::TraceRecorder* trace) {
         db::ExplicitSimulator::Options options;
         options.obs.trace = trace;
         return db::ExplicitSimulator::RunOnce(
                    cfg, workload::WorkloadSpec::Base(cfg), 11, options)
             .ok();
       }},
      {"incremental/detect+admission", ContendedConfig(),
       [](const model::SystemConfig& cfg, sim::TraceRecorder* trace) {
         workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
         spec.placement = model::Placement::kWorst;
         db::IncrementalSimulator::Options options;
         options.contention.policy = db::ContentionPolicyKind::kDetectRequester;
         options.contention.admission.enabled = true;
         options.obs.trace = trace;
         return db::IncrementalSimulator::RunOnce(cfg, spec, 3, options).ok();
       }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    model::SystemConfig cfg = c.cfg;
    sim::TraceRecorder cold;
    sim::TraceRecorder warm;
    cfg.warmup = 0.0;
    ASSERT_TRUE(c.run(cfg, &cold));
    cfg.warmup = 120.0;
    ASSERT_TRUE(c.run(cfg, &warm));
    ASSERT_EQ(cold.dropped(), 0u);
    ASSERT_FALSE(cold.events().empty());
    const auto& a = cold.events();
    const auto& b = warm.events();
    const auto diverge = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
    EXPECT_TRUE(diverge.first == a.end() && diverge.second == b.end())
        << a.size() << " vs " << b.size() << " events; first divergence at t="
        << (diverge.first != a.end() ? diverge.first->time
                                     : diverge.second->time);
  }
}

TEST(ParallelDeterminismTest, DeepAuditRunsInParallelAndMatchesSerial) {
  // --audit must work per-worker: the audit gate is process-global and
  // read-only during runs, and every worker's simulator audits its own
  // state. Results stay bit-identical with audits on.
  const model::SystemConfig cfg = Figure2Config();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);

  const auto plain = core::RunReplicated(cfg, spec, 42, 4);
  ASSERT_TRUE(plain.ok());

  sim::invariants::SetDeepAudit(true);
  const auto serial_audited = core::RunReplicated(cfg, spec, 42, 4);
  core::ParallelRunner runner(4);
  const auto parallel_audited =
      core::RunReplicated(cfg, spec, 42, 4, {}, &runner);
  sim::invariants::SetDeepAudit(false);

  ASSERT_TRUE(serial_audited.ok());
  ASSERT_TRUE(parallel_audited.ok());
  ExpectBitIdentical(*plain, *serial_audited);   // audits never change results
  ExpectBitIdentical(*plain, *parallel_audited);
}

}  // namespace
}  // namespace granulock
