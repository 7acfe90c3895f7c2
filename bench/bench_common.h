#ifndef GRANULOCK_BENCH_BENCH_COMMON_H_
#define GRANULOCK_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "db/contention_policy.h"
#include "model/config.h"
#include "obs/contention.h"
#include "obs/registry.h"
#include "util/flags.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table.h"
#include "workload/workload.h"

namespace granulock::bench {

/// Command-line arguments shared by every figure/table bench binary, so a
/// sweep can be re-run with different parameters without recompiling.
struct BenchArgs {
  int64_t seed = 42;
  int64_t reps = 1;        ///< replications per sweep point
  double tmax = 10000.0;   ///< simulated time units per run
  double warmup = 0.0;     ///< paper convention: measure from t = 0
  int64_t threads = 1;     ///< worker threads (0 = hardware concurrency)
  bool csv = false;        ///< emit CSV instead of aligned tables
  bool quick = false;      ///< shrink tmax 10x for smoke runs
  bool json_out = false;   ///< also write BENCH_<id>.json (machine-readable)
  /// Re-run each surviving sweep cell once (serially, rep-0 seed) with a
  /// `obs::ContentionProfiler` attached: adds a `contention` section to the
  /// JSON report, writes BENCH_<id>.waitsfor.dot (the densest waits-for
  /// snapshot) and BENCH_<id>.contention.csv (the hottest cell's
  /// blocked-fraction/occupancy series). Never changes the sweep results.
  bool profile_contention = false;
  bool audit = false;      ///< run deep invariant audits at quiescent points
  std::string log_level = "info";  ///< debug|info|warning|error

  // Crash-safety / fault-containment knobs (see docs/ROBUSTNESS.md).
  bool checkpoint = false;  ///< journal completed cells as the run goes
  bool resume = false;      ///< reuse journaled cells (implies --checkpoint)
  std::string checkpoint_path;  ///< journal path; "" = BENCH_<id>.ckpt.jsonl
  int64_t max_cell_retries = 0; ///< same-seed re-runs of a failed cell
  bool allow_partial = false;   ///< keep going past failed cells
  double cell_timeout_s = 0.0;  ///< per-cell wall deadline; 0 = none
  std::string fault_inject;     ///< injection spec, e.g. cell_throw@3

  // Contention-resolution knobs for the incremental (claim-as-needed)
  // engine; ignored by benches that only run the conservative engines.
  // The defaults reproduce the engine's historical behavior bit for bit.
  std::string policy = "detect";   ///< victim policy (see --help for names)
  double backoff_factor = 1.0;     ///< restart backoff growth per restart
  double backoff_cap = 0.0;        ///< cap on the backoff mean; 0 = none
  int64_t max_restarts = -1;       ///< restart budget; -1 = unlimited
  bool admission = false;          ///< enable the MPL admission controller

  /// `threads` resolved through `core::ResolveThreadCount` by
  /// `ParseArgsOrDie` (so 0 becomes the detected hardware concurrency).
  int resolved_threads = 1;

  /// Registers the flags on `parser`.
  void Register(FlagParser& parser);

  /// Applies tmax/warmup (and the quick-mode shrink) onto `cfg`.
  void Apply(model::SystemConfig* cfg) const;

  /// True when a checkpoint journal should be open for this run.
  bool checkpoint_enabled() const { return checkpoint || resume; }

  /// The contention options assembled from the flags (already validated
  /// by `ParseArgsOrDie`).
  db::ContentionOptions Contention() const;

  /// True when any contention flag differs from its bit-identical
  /// default — callers append `DescribeContention()` to their journal
  /// fingerprints only then, so default runs keep historical journals.
  bool ContentionIsDefault() const;

  /// Canonical one-line description of the contention flags, for journal
  /// fingerprints.
  std::string DescribeContention() const;

  /// The journal path for `experiment_id` (honoring --checkpoint_path).
  std::string JournalPath(const std::string& experiment_id) const;
};

/// Parses argv with the standard bench flags; exits the process on --help
/// or a flag error. Applies `--log_level` to the global log threshold,
/// arms the fault injector from `--fault_inject`, and installs
/// SIGINT/SIGTERM handlers that request a cooperative stop: cells stop at
/// their next watchdog poll or cell boundary (see `RunBenchGrid`).
/// Returns the parsed arguments.
BenchArgs ParseArgsOrDie(int argc, char** argv);

/// Prints the standard experiment banner (figure id, what the paper shows,
/// and the base configuration).
void PrintBanner(const std::string& experiment_id,
                 const std::string& description,
                 const model::SystemConfig& cfg, const BenchArgs& args);

/// One labelled curve of a figure: a configuration + workload to sweep
/// over the lock-count grid.
struct Series {
  std::string label;
  model::SystemConfig cfg;
  workload::WorkloadSpec spec;
  core::GranularitySimulator::Options options;
};

/// Which metric a table reports.
enum class Metric {
  kThroughput,
  kResponseTime,
  kUsefulIo,
  kUsefulCpu,
  kLockOverheadIo,
  kLockOverheadCpu,
  kLockOverheadTotal,
  kDenialRate,
};

const char* MetricName(Metric metric);
double MetricValue(Metric metric, const core::SimulationMetrics& m);

/// One profiled sweep cell: the rendered `ContentionProfiler` JSON plus
/// the totals the driver needs to pick the hottest cell.
struct ContentionPoint {
  int64_t ltot = 0;
  int64_t waits = 0;
  /// `ContentionProfiler::WriteJson` output, spliced verbatim into the
  /// report via `JsonWriter::Raw`.
  std::string profile_json;
};

/// Per-series contention profile: one point per surviving sweep cell plus
/// the thrashing boundary detected from the series' throughput curve.
struct SeriesContention {
  std::vector<ContentionPoint> points;
  obs::ThrashingBoundary boundary;
};

/// The result grid of a figure: per (series, ltot) replicated metrics.
struct FigureData {
  std::vector<int64_t> lock_counts;
  std::vector<Series> series;
  /// values[s][l] = replicated metrics for series s at lock_counts[l].
  /// A cell with `replications == 0` is *missing* (it failed under
  /// --allow_partial, or the run was interrupted before reaching it);
  /// tables print "-" for it and the JSON report omits it.
  std::vector<std::vector<core::ReplicatedMetrics>> values;
  /// Wall-clock seconds `RunFigure` spent executing the whole grid
  /// (engine self-profiling; feeds the JSON report's events/sec).
  double wall_seconds = 0.0;
  /// Cell-level robustness accounting (failures, retries, checkpoint
  /// reuse, interruption).
  core::RunReport report;
  /// Registry carrying the `cells/...` counters for this run (see
  /// `core::PublishCellStats`). Never null after `RunFigure`.
  std::shared_ptr<obs::MetricsRegistry> registry;
  /// Per-series contention profiles; empty unless --profile_contention.
  std::vector<SeriesContention> contention;
};

/// Checkpoint-journal fingerprint of a bench run: `experiment_id`, the
/// run parameters seed/reps/tmax/warmup/quick, then `inputs`, which must
/// describe everything else that determines the results. Guards journals
/// against resuming mismatched inputs.
uint64_t RunFingerprint(const std::string& experiment_id,
                        const BenchArgs& args, const std::string& inputs);

/// The seed list of a bench whose cells each run once with `--seed` itself
/// rather than a derived stream (the db-layer ablations). Exits 2 on any
/// `--reps` other than 1 instead of silently ignoring it.
std::vector<uint64_t> SingleCellSeeds(const std::string& experiment_id,
                                      const BenchArgs& args);

/// A bench's cell grid (see `core::RunGrid`) and what its messages call
/// the cells.
struct BenchGrid {
  std::string experiment_id;
  uint64_t fingerprint = 0;  ///< see `RunFingerprint`
  /// The points in the order a one-thread run visits them.
  std::vector<core::GridPoint> points;
  std::vector<uint64_t> seeds;      ///< replication seeds
  std::vector<std::string> labels;  ///< one per series
  std::string axis = "ltot";        ///< what `GridPoint::value` sweeps
  /// True when a cell attaches unsynchronized sinks: runs on one thread.
  bool serial = false;
};

/// Runs `grid` through `core::RunGrid` on --threads workers under the
/// robustness flags: cells are journaled and replayed with
/// --checkpoint/--resume, retried per --max_cell_retries, timed out per
/// --cell_timeout_s, and contained per --allow_partial. This is every grid
/// bench's one exit path: without --allow_partial a failed cell exits 1,
/// naming the lowest-index failure (with a --resume hint when a journal is
/// open). On SIGINT/SIGTERM it calls `on_interrupt` (when set) with the
/// points completed so far, then exits 128+signo. Otherwise it prints the
/// failure roll-up and returns one merge per point (`replications == 0`
/// marks a missing point); `report` receives the cell accounting.
std::vector<core::ReplicatedMetrics> RunBenchGrid(
    const BenchGrid& grid, const BenchArgs& args, core::RunReport* report,
    const std::function<void(const std::vector<core::ReplicatedMetrics>&)>&
        on_interrupt = {});

/// Runs every series over the standard lock sweep (or `lock_counts` when
/// non-empty) as one `RunBenchGrid` grid, series-major, replication `r`
/// of every point on stream `r` of --seed. On SIGINT/SIGTERM the partial
/// grid is flushed to BENCH_<id>.partial.json before the exit.
FigureData RunFigure(const std::string& experiment_id,
                     const std::vector<Series>& series, const BenchArgs& args,
                     std::vector<int64_t> lock_counts = {});

/// Prints one table (rows = lock counts, columns = series) for `metric`,
/// then a one-line summary naming each series' best lock count by
/// throughput.
void PrintMetricTable(const FigureData& data, Metric metric,
                      const BenchArgs& args);

/// Prints the per-series throughput-optimal lock count summary.
void PrintOptimaSummary(const FigureData& data);

/// Renders the JSON report (see `WriteJsonReport`) to a string. With
/// `data.wall_seconds` pinned, the bytes are a pure function of the
/// simulated results — the determinism regression test compares them
/// across same-seed runs.
std::string RenderJsonReport(const std::string& experiment_id,
                             const FigureData& data, const BenchArgs& args);

/// Writes `BENCH_<experiment_id>.json` in the working directory: run
/// parameters, the full (series x ltot) metric grid with confidence
/// half-widths and phase decomposition, plus wall time and simulation
/// events/sec. The format is stable enough to diff across runs.
Status WriteJsonReport(const std::string& experiment_id,
                       const FigureData& data, const BenchArgs& args);

/// Calls `WriteJsonReport` when `--json_out` was passed; logs (but does
/// not propagate) failures, so benches can call it unconditionally.
void MaybeWriteJsonReport(const std::string& experiment_id,
                          const FigureData& data, const BenchArgs& args);

/// `--json_out` support for the table-shaped benches (table1, ablations):
/// serializes `tables` (name -> rendered TablePrinter) with the run
/// parameters into `BENCH_<experiment_id>.json`.
void MaybeWriteTableJsonReport(
    const std::string& experiment_id,
    const std::vector<std::pair<std::string, const TablePrinter*>>& tables,
    const BenchArgs& args);

}  // namespace granulock::bench

#endif  // GRANULOCK_BENCH_BENCH_COMMON_H_
