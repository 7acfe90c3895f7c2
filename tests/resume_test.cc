// Checkpoint/resume correctness: the journal round-trips metrics
// bit-exactly, tolerates the one partial line a crash can leave, refuses
// corrupt or mismatched journals, and — the headline property — a sweep
// killed at cell k and resumed produces a journal and aggregate metrics
// identical to an uninterrupted run, byte for byte.

#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/experiment.h"
#include "core/fault.h"
#include "core/granularity_simulator.h"
#include "core/metrics.h"
#include "core/parallel_runner.h"
#include "model/config.h"
#include "util/fileio.h"
#include "util/status.h"
#include "util/strings.h"
#include "workload/workload.h"

namespace granulock {
namespace {

using core::CellKey;
using core::CheckpointJournal;
using core::SimulationMetrics;

class ScopedPath {
 public:
  explicit ScopedPath(std::string path) : path_(std::move(path)) {
    std::remove(path_.c_str());
  }
  ~ScopedPath() { std::remove(path_.c_str()); }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

SimulationMetrics FilledMetrics() {
  SimulationMetrics m;
  int64_t i = 1;
  // Give every field a distinct, non-round value so a swapped or dropped
  // field cannot round-trip by accident.
#define GRANULOCK_FILL_FIELD(name, kind) \
  m.name = static_cast<decltype(m.name)>(i++) / 7.0 + 1e-13;
  GRANULOCK_METRICS_FIELDS(GRANULOCK_FILL_FIELD)
#undef GRANULOCK_FILL_FIELD
  m.throughput = 0.1 + 0.2;  // classic non-representable sum
  m.events_executed = 123456789012345ull;
  m.totcom = -3;  // negative int64 survives
  return m;
}

void ExpectBitIdentical(const SimulationMetrics& a,
                        const SimulationMetrics& b) {
#define GRANULOCK_EXPECT_FIELD_EQ(name, kind) \
  EXPECT_EQ(a.name, b.name) << "field: " #name;
  GRANULOCK_METRICS_FIELDS(GRANULOCK_EXPECT_FIELD_EQ)
#undef GRANULOCK_EXPECT_FIELD_EQ
}

void ExpectBitIdentical(const core::ReplicatedMetrics& a,
                        const core::ReplicatedMetrics& b) {
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.throughput_hw95, b.throughput_hw95);
  EXPECT_EQ(a.response_hw95, b.response_hw95);
  ExpectBitIdentical(a.mean, b.mean);
}

TEST(FingerprintTest, MatchesFnv1aReferenceValues) {
  // FNV-1a 64-bit reference vectors; pins the on-disk fingerprint format.
  EXPECT_EQ(core::FingerprintToHex(core::FingerprintString("")),
            "cbf29ce484222325");
  EXPECT_EQ(core::FingerprintToHex(core::FingerprintString("a")),
            "af63dc4c8601ec8c");
  EXPECT_NE(core::FingerprintString("fig02|seed=1"),
            core::FingerprintString("fig02|seed=2"));
}

TEST(RecordCodecTest, RoundTripsEveryFieldBitExactly) {
  const SimulationMetrics m = FilledMetrics();
  const CellKey key{2, 11, 3};
  const std::string line = CheckpointJournal::EncodeRecord(key, m);

  CellKey key2;
  SimulationMetrics m2;
  ASSERT_TRUE(CheckpointJournal::DecodeRecord(line, &key2, &m2).ok());
  EXPECT_EQ(key2, key);
  ExpectBitIdentical(m, m2);
  // Re-encoding the decoded record reproduces the exact bytes.
  EXPECT_EQ(CheckpointJournal::EncodeRecord(key2, m2), line);
}

TEST(RecordCodecTest, RoundTripsNonFiniteDoubles) {
  SimulationMetrics m = FilledMetrics();
  m.response_p99 = std::numeric_limits<double>::quiet_NaN();
  const std::string line =
      CheckpointJournal::EncodeRecord(CellKey{0, 0, 0}, m);
  CellKey key;
  SimulationMetrics m2;
  ASSERT_TRUE(CheckpointJournal::DecodeRecord(line, &key, &m2).ok());
  EXPECT_TRUE(std::isnan(m2.response_p99));
  EXPECT_EQ(CheckpointJournal::EncodeRecord(key, m2), line);
}

TEST(RecordCodecTest, RejectsMalformedLines) {
  CellKey key;
  SimulationMetrics m;
  EXPECT_FALSE(CheckpointJournal::DecodeRecord("", &key, &m).ok());
  EXPECT_FALSE(CheckpointJournal::DecodeRecord("not json", &key, &m).ok());
  EXPECT_FALSE(
      CheckpointJournal::DecodeRecord("{\"cell\":[0,0,0]}", &key, &m).ok());
  // A truncated but syntactically started record must not decode.
  const std::string full =
      CheckpointJournal::EncodeRecord(CellKey{0, 0, 0}, FilledMetrics());
  EXPECT_FALSE(
      CheckpointJournal::DecodeRecord(full.substr(0, full.size() / 2), &key,
                                      &m)
          .ok());
}

TEST(CheckpointJournalTest, AppendLookupAndResume) {
  ScopedPath path("resume_test_basic.ckpt.jsonl");
  const uint64_t fp = core::FingerprintString("basic");
  const SimulationMetrics m = FilledMetrics();
  {
    auto journal = CheckpointJournal::Open(path.str(), fp, /*resume=*/false);
    ASSERT_TRUE(journal.ok()) << journal.status();
    EXPECT_EQ((*journal)->loaded_cells(), 0);
    ASSERT_TRUE((*journal)->Append(CellKey{0, 0, 0}, m).ok());
    ASSERT_TRUE((*journal)->Append(CellKey{0, 1, 0}, m).ok());
    EXPECT_EQ((*journal)->size(), 2u);
    // Appending a key twice means the skip logic is broken.
    EXPECT_EQ((*journal)->Append(CellKey{0, 0, 0}, m).code(),
              StatusCode::kAlreadyExists);
  }
  {
    auto journal = CheckpointJournal::Open(path.str(), fp, /*resume=*/true);
    ASSERT_TRUE(journal.ok()) << journal.status();
    EXPECT_EQ((*journal)->loaded_cells(), 2);
    SimulationMetrics back;
    ASSERT_TRUE((*journal)->Lookup(CellKey{0, 1, 0}, &back));
    ExpectBitIdentical(m, back);
    EXPECT_FALSE((*journal)->Lookup(CellKey{0, 2, 0}, &back));
  }
}

TEST(CheckpointJournalTest, FreshOpenDiscardsExistingJournal) {
  ScopedPath path("resume_test_fresh.ckpt.jsonl");
  const uint64_t fp = core::FingerprintString("fresh");
  {
    auto journal = CheckpointJournal::Open(path.str(), fp, false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(CellKey{0, 0, 0}, FilledMetrics()).ok());
  }
  auto journal = CheckpointJournal::Open(path.str(), fp, /*resume=*/false);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ((*journal)->loaded_cells(), 0);
  EXPECT_EQ((*journal)->size(), 0u);
}

TEST(CheckpointJournalTest, FingerprintMismatchFailsOpen) {
  ScopedPath path("resume_test_fpmismatch.ckpt.jsonl");
  {
    auto journal = CheckpointJournal::Open(
        path.str(), core::FingerprintString("inputs A"), false);
    ASSERT_TRUE(journal.ok());
  }
  auto mismatched = CheckpointJournal::Open(
      path.str(), core::FingerprintString("inputs B"), /*resume=*/true);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointJournalTest, ToleratesExactlyOneTruncatedTrailingLine) {
  ScopedPath path("resume_test_torn.ckpt.jsonl");
  const uint64_t fp = core::FingerprintString("torn");
  const SimulationMetrics m = FilledMetrics();
  {
    auto journal = CheckpointJournal::Open(path.str(), fp, false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(CellKey{0, 0, 0}, m).ok());
    ASSERT_TRUE((*journal)->Append(CellKey{0, 1, 0}, m).ok());
  }
  // Simulate a crash mid-append: a partial record with no newline.
  {
    std::FILE* f = std::fopen(path.str().c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"cell\":[0,2,0],\"m\":{\"totc", f);
    std::fclose(f);
  }
  auto journal = CheckpointJournal::Open(path.str(), fp, /*resume=*/true);
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_EQ((*journal)->loaded_cells(), 2);
  // The torn tail was dropped and the journal is appendable again.
  ASSERT_TRUE((*journal)->Append(CellKey{0, 2, 0}, m).ok());
  journal->reset();
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path.str(), &bytes).ok());
  EXPECT_EQ(bytes.find("totc\n"), std::string::npos);
  // Every line in the repaired file is complete and decodable.
  const std::vector<std::string> lines = StrSplit(bytes, '\n');
  ASSERT_EQ(lines.size(), 5u);  // header + 3 records + trailing ""
  EXPECT_TRUE(lines.back().empty());
}

TEST(CheckpointJournalTest, CorruptionAwayFromTheTailFailsOpen) {
  ScopedPath path("resume_test_corrupt.ckpt.jsonl");
  const uint64_t fp = core::FingerprintString("corrupt");
  {
    auto journal = CheckpointJournal::Open(path.str(), fp, false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(CellKey{0, 0, 0}, FilledMetrics()).ok());
    ASSERT_TRUE((*journal)->Append(CellKey{0, 1, 0}, FilledMetrics()).ok());
  }
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path.str(), &bytes).ok());
  const size_t first_record = bytes.find('\n') + 1;
  bytes.replace(first_record, 10, "XXXXXXXXXX");  // clobber record 1
  ASSERT_TRUE(WriteFileAtomic(path.str(), bytes).ok());

  auto journal = CheckpointJournal::Open(path.str(), fp, /*resume=*/true);
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(journal.status().ToString().find("corrupt record"),
            std::string::npos);
}

// --- kill-and-resume at the experiment-runner level ---

model::SystemConfig SmallConfig() {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.tmax = 200.0;
  return cfg;
}

TEST(KillResumeTest, ResumeAfterKillAtCellKIsByteIdenticalForSeveralK) {
  const model::SystemConfig cfg = SmallConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  const std::vector<int64_t> lock_counts = {1, 20, 100};
  constexpr int kReps = 2;  // 6 cells total
  const uint64_t fp = core::FingerprintString("kill-resume");

  // Uninterrupted reference: journaled run and its exact file bytes.
  ScopedPath ref_path("resume_test_ref.ckpt.jsonl");
  Result<std::vector<core::SweepPoint>> reference =
      Status::Internal("unset");
  {
    auto journal = CheckpointJournal::Open(ref_path.str(), fp, false);
    ASSERT_TRUE(journal.ok());
    core::CellPolicy policy;
    policy.journal = journal->get();
    reference = core::SweepLockCounts(cfg, spec, lock_counts, 42, kReps, {},
                                      nullptr, policy);
    ASSERT_TRUE(reference.ok()) << reference.status();
  }
  std::string ref_bytes;
  ASSERT_TRUE(ReadFileToString(ref_path.str(), &ref_bytes).ok());

  for (const int k : {1, 3, 5}) {
    SCOPED_TRACE("kill at cell " + std::to_string(k));
    ScopedPath path(StrFormat("resume_test_k%d.ckpt.jsonl", k));

    // Phase 1: the run dies at cell k (injected throw, fail-fast). The
    // journal keeps the k cells completed before the failure.
    {
      auto journal = CheckpointJournal::Open(path.str(), fp, false);
      ASSERT_TRUE(journal.ok());
      core::CellPolicy policy;
      policy.journal = journal->get();
      fault::ArmSpec arm;
      arm.fire_at_hit = static_cast<uint64_t>(k);
      fault::Injector::Global().Arm(fault::InjectionPoint::kCellThrow, arm);
      const auto interrupted = core::SweepLockCounts(
          cfg, spec, lock_counts, 42, kReps, {}, nullptr, policy);
      fault::Injector::Global().DisarmAll();
      ASSERT_FALSE(interrupted.ok());
    }

    // Phase 2: resume. Journaled cells replay; the rest run fresh.
    {
      auto journal = CheckpointJournal::Open(path.str(), fp, /*resume=*/true);
      ASSERT_TRUE(journal.ok()) << journal.status();
      EXPECT_EQ((*journal)->loaded_cells(), k);
      core::RunReport report;
      core::CellPolicy policy;
      policy.journal = journal->get();
      policy.report = &report;
      const auto resumed = core::SweepLockCounts(cfg, spec, lock_counts, 42,
                                                 kReps, {}, nullptr, policy);
      ASSERT_TRUE(resumed.ok()) << resumed.status();
      EXPECT_EQ(report.cells_from_checkpoint, k);
      EXPECT_EQ(report.cells_completed,
                static_cast<int64_t>(lock_counts.size()) * kReps);

      // Aggregates are bit-identical to the uninterrupted run.
      ASSERT_EQ(resumed->size(), reference->size());
      for (size_t p = 0; p < reference->size(); ++p) {
        EXPECT_EQ((*resumed)[p].ltot, (*reference)[p].ltot);
        ExpectBitIdentical((*reference)[p].metrics, (*resumed)[p].metrics);
      }
    }

    // And the finished journal is byte-identical to the reference journal.
    std::string bytes;
    ASSERT_TRUE(ReadFileToString(path.str(), &bytes).ok());
    EXPECT_EQ(bytes, ref_bytes);
  }
}

TEST(KillResumeTest, ParallelJournalResumesToSerialResults) {
  const model::SystemConfig cfg = SmallConfig();
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  const std::vector<int64_t> lock_counts = {1, 20, 100};

  const auto serial = core::SweepLockCounts(cfg, spec, lock_counts, 42, 2);
  ASSERT_TRUE(serial.ok());

  // A parallel run appends cells in scheduling order — the journal's
  // *contents* (not byte order) are the contract across thread counts.
  ScopedPath path("resume_test_parallel.ckpt.jsonl");
  const uint64_t fp = core::FingerprintString("parallel");
  {
    auto journal = CheckpointJournal::Open(path.str(), fp, false);
    ASSERT_TRUE(journal.ok());
    core::ParallelRunner runner(4);
    core::CellPolicy policy;
    policy.journal = journal->get();
    const auto parallel = core::SweepLockCounts(cfg, spec, lock_counts, 42, 2,
                                                {}, &runner, policy);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ((*journal)->size(), lock_counts.size() * 2);
  }
  // Resuming that journal serially replays every cell bit-identically.
  auto journal = CheckpointJournal::Open(path.str(), fp, /*resume=*/true);
  ASSERT_TRUE(journal.ok());
  core::RunReport report;
  core::CellPolicy policy;
  policy.journal = journal->get();
  policy.report = &report;
  const auto resumed =
      core::SweepLockCounts(cfg, spec, lock_counts, 42, 2, {}, nullptr,
                            policy);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(report.cells_from_checkpoint,
            static_cast<int64_t>(lock_counts.size()) * 2);
  ASSERT_EQ(resumed->size(), serial->size());
  for (size_t p = 0; p < serial->size(); ++p) {
    ExpectBitIdentical((*serial)[p].metrics, (*resumed)[p].metrics);
  }
}

// --- bench-report level: a fully replayed figure renders the same bytes ---

TEST(KillResumeTest, ReplayedFigureReportIsByteIdentical) {
  bench::BenchArgs args;
  args.seed = 42;
  args.reps = 2;
  args.tmax = 200.0;
  ScopedPath path("resume_test_fig.ckpt.jsonl");
  args.checkpoint_path = path.str();

  const model::SystemConfig cfg = SmallConfig();
  std::vector<bench::Series> series;
  series.push_back({"npros=10", cfg, workload::WorkloadSpec::Base(cfg), {}});

  // Plain run (no journal anywhere near it): the baseline bytes.
  bench::FigureData plain =
      bench::RunFigure("fig02", series, args, {1, 20, 100});
  plain.wall_seconds = 0.0;
  const std::string baseline = bench::RenderJsonReport("fig02", plain, args);

  // Checkpointed run: journals every cell, same report bytes.
  args.checkpoint = true;
  bench::FigureData journaled =
      bench::RunFigure("fig02", series, args, {1, 20, 100});
  journaled.wall_seconds = 0.0;
  EXPECT_EQ(bench::RenderJsonReport("fig02", journaled, args), baseline);
  EXPECT_EQ(journaled.report.cells_from_checkpoint, 0);

  // Resumed run: every cell replays from the journal; the report bytes are
  // still identical — checkpoint provenance must never leak into them.
  args.resume = true;
  bench::FigureData resumed =
      bench::RunFigure("fig02", series, args, {1, 20, 100});
  resumed.wall_seconds = 0.0;
  EXPECT_EQ(bench::RenderJsonReport("fig02", resumed, args), baseline);
  EXPECT_EQ(resumed.report.cells_from_checkpoint, 6);
  EXPECT_EQ(resumed.report.cells_completed, 6);
}

// --- a failed cell ends a figure bench with exit code 1, journal or not ---

TEST(RunFigureDeathTest, FailedCellExitsOneWithoutAJournal) {
  bench::BenchArgs args;
  args.tmax = 200.0;
  const model::SystemConfig cfg = SmallConfig();
  std::vector<bench::Series> series;
  series.push_back({"npros=10", cfg, workload::WorkloadSpec::Base(cfg), {}});
  EXPECT_EXIT(
      {
        (void)fault::Injector::Global().ArmFromFlag("cell_throw@1");
        bench::RunFigure("fig02", series, args, {1, 20, 100});
      },
      ::testing::ExitedWithCode(1),
      "cell failed: series 'npros=10' ltot=20 rep=0");
}

// --- an ablation runs each cell once: --reps must not be silently ignored ---

TEST(SingleCellSeedsDeathTest, RejectsRepsOtherThanOne) {
  bench::BenchArgs args;
  args.reps = 3;
  EXPECT_EXIT(bench::SingleCellSeeds("ablation_mgl", args),
              ::testing::ExitedWithCode(2), "--reps=3 is not supported");
}

}  // namespace
}  // namespace granulock
