#ifndef GRANULOCK_CORE_EXPERIMENT_H_
#define GRANULOCK_CORE_EXPERIMENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/checkpoint.h"
#include "core/fault.h"
#include "core/granularity_simulator.h"
#include "core/metrics.h"
#include "core/parallel_runner.h"
#include "model/config.h"
#include "obs/registry.h"
#include "util/status.h"
#include "workload/workload.h"

namespace granulock::core {

/// One cell that did not produce metrics: where it was in the grid, what
/// went wrong, and how hard we tried.
struct CellFailure {
  int series = 0;
  int point = 0;
  /// The swept value at the cell's point (`GridPoint::value`).
  int64_t value = 0;
  int rep = 0;
  int attempts = 1;
  bool timed_out = false;
  Status status;
};

/// What running one cell produced. `result` is the cell's metrics or the
/// status of its *last* attempt; `attempts` counts executions (0 when the
/// cell was satisfied from the checkpoint journal).
struct CellOutcome {
  Result<SimulationMetrics> result = Status::Internal("cell did not run");
  int attempts = 0;
  bool ran = false;
  bool from_checkpoint = false;
  bool timed_out = false;
};

/// Roll-up of cell-level robustness accounting for one sweep/replication
/// run. Filled deterministically (grid index order) after workers join, so
/// its contents never depend on scheduling.
struct RunReport {
  std::vector<CellFailure> failures;
  int64_t cells_completed = 0;
  int64_t cells_from_checkpoint = 0;
  int64_t cell_retries = 0;
  int64_t cells_timed_out = 0;
  /// True when SIGINT/SIGTERM (or an injected signal) stopped the run;
  /// completed cells are still returned and journaled.
  bool interrupted = false;
};

/// How cells are contained, retried, checkpointed, and cancelled. The
/// default policy reproduces the historical behavior exactly: no journal,
/// no retries, fail-fast, no deadline, no interrupt.
struct CellPolicy {
  /// When set, completed cells are journaled and already-journaled cells
  /// are skipped (their metrics replayed bit-identically). Not owned.
  CheckpointJournal* journal = nullptr;
  /// Failed cells are re-executed with the same derived seed up to this
  /// many extra times before counting as failed.
  int max_cell_retries = 0;
  /// When true, a failed cell is recorded in `report->failures` and the
  /// run continues; when false (default) the first failure aborts the run.
  bool allow_partial = false;
  /// Wall-clock budget per cell attempt; <= 0 disables the watchdog.
  double cell_timeout_s = 0.0;
  /// Run-level interrupt flag (set from SIGINT/SIGTERM handlers). Checked
  /// between cells and at watchdog polls. Not owned.
  const std::atomic<bool>* interrupt = nullptr;
  /// Where accounting lands. Not owned; may be null.
  RunReport* report = nullptr;
};

/// The body of one cell: runs one simulation attempt, cooperating with the
/// watchdog when non-null (engines poll it from an observer event chain).
using CellBody =
    std::function<Result<SimulationMetrics>(const fault::CellWatchdog*)>;

/// Runs one cell under `policy`: checkpoint lookup, fault-injection
/// evaluation, watchdog arming, exception containment (std::exception,
/// audit failures via `sim::invariants::ScopedFailureThrow`, watchdog
/// timeouts, interrupts), and same-seed retry. Successful results are
/// appended to the journal before returning. Thread-safe; does NOT touch
/// `policy.report` (the caller accounts post-join, in grid order).
CellOutcome RunCell(const CellPolicy& policy, const CellKey& key,
                    uint64_t seed, const CellBody& body);

/// Publishes a run's cell accounting into `registry` as counters under the
/// `cells/` prefix. Call after workers have joined (the registry is not
/// thread-safe).
void PublishCellStats(const RunReport& report, obs::MetricsRegistry* registry);

/// Metrics averaged over independent replications (different PRNG streams
/// derived from one base seed), with 95% Student-t confidence half-widths
/// on the two headline outputs.
struct ReplicatedMetrics {
  /// Per-field arithmetic means across replications.
  SimulationMetrics mean;
  /// 95% confidence half-widths.
  double throughput_hw95 = 0.0;
  double response_hw95 = 0.0;
  int replications = 0;
};

/// The replication seeds of one experiment: stream `r` forked from one
/// seeder over `base_seed`. Every point of a grid shares them, so a cell
/// is a function of (point, r) alone and can run on any worker.
std::vector<uint64_t> DeriveReplicationSeeds(uint64_t base_seed,
                                             int replications);

/// The body of one grid cell: runs one replication of its point with
/// `seed`, cooperating with the watchdog when non-null.
using GridBody = std::function<Result<SimulationMetrics>(
    uint64_t seed, const fault::CellWatchdog*)>;

/// One point of a cell grid: its coordinates, which key its cells in the
/// checkpoint journal and in `CellFailure`s, and how to run a replication.
struct GridPoint {
  int series = 0;
  int point = 0;
  /// The swept value at this point (`ltot` in a lock sweep).
  int64_t value = 0;
  GridBody body;
};

/// What `RunGrid` produced.
struct GridResult {
  /// One merge per grid point, in grid order. A point none of whose
  /// replications produced metrics has `replications == 0`.
  std::vector<ReplicatedMetrics> points;
  /// The failed cell with the lowest grid index; `status` is OK when no
  /// cell failed.
  CellFailure first_failure;
  /// True when an interrupt cancelled a cell.
  bool interrupted = false;
};

/// Runs every (point, replication) cell of `grid` through `RunCell` under
/// `policy`, replication `r` with `seeds[r]` (non-empty). With a
/// multi-thread `runner` the whole grid fans out as one batch; otherwise
/// cells run in grid order (point-major, as the caller lists its points)
/// and the first failure stops the run unless `policy.allow_partial`. An
/// interrupt stops the serial run too. After the join, cells are
/// accounted into `policy.report` and each point's survivors are merged
/// in replication order, so every output is bit-identical for any thread
/// count. Under fail-fast, `first_failure` is the caller's answer.
GridResult RunGrid(const std::vector<GridPoint>& grid,
                   const std::vector<uint64_t>& seeds, ParallelRunner* runner,
                   const CellPolicy& policy);

/// The grid body that runs `Engine` — any engine with `Options::watchdog`
/// and `RunOnce(cfg, spec, seed, options)` — on (`cfg`, `spec`) with
/// `options` and the cell's watchdog.
template <typename Engine>
GridBody EngineCell(const model::SystemConfig& cfg,
                    const workload::WorkloadSpec& spec,
                    const typename Engine::Options& options) {
  return [cfg, spec, options](uint64_t seed, const fault::CellWatchdog* wd) {
    typename Engine::Options watched = options;
    watched.watchdog = wd;
    return Engine::RunOnce(cfg, spec, seed, watched);
  };
}

/// Runs `replications` independent simulations of (`cfg`, `spec`) and
/// aggregates: a one-point `RunGrid` over `DeriveReplicationSeeds`.
/// Bit-identical for any `runner`; runs serially when `options.obs`
/// attaches sinks, which are unsynchronized single-run tools. Under
/// `policy.allow_partial` failed replications drop out of the mean
/// (`replications` counts the survivors). Errors: InvalidArgument for
/// `replications < 1`; otherwise the first failure, Cancelled when an
/// interrupt left no survivor, or Internal.
Result<ReplicatedMetrics> RunReplicated(
    const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
    uint64_t base_seed, int replications,
    GranularitySimulator::Options options = GranularitySimulator::Options{},
    ParallelRunner* runner = nullptr, const CellPolicy& policy = CellPolicy{});

/// The lock-count grid every figure in the paper sweeps (log-spaced from a
/// single lock to one lock per entity), clipped to `dbsize`. Always
/// contains 1 and `dbsize`.
std::vector<int64_t> StandardLockSweep(int64_t dbsize);

/// One point of a sweep: the swept `ltot` and the aggregated metrics.
struct SweepPoint {
  int64_t ltot = 0;
  ReplicatedMetrics metrics;
};

/// Sweeps `ltot` over `lock_counts` for fixed (`cfg`, `spec`): a
/// `RunGrid` of series 0 with one point per lock count, every point on the
/// same replication seeds. Fail-fast returns the lowest-index failure.
/// Under `policy.allow_partial`, or after an interrupt, a point whose
/// replications all failed is omitted from the returned vector.
Result<std::vector<SweepPoint>> SweepLockCounts(
    const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
    const std::vector<int64_t>& lock_counts, uint64_t base_seed,
    int replications,
    GranularitySimulator::Options options = GranularitySimulator::Options{},
    ParallelRunner* runner = nullptr, const CellPolicy& policy = CellPolicy{});

/// Returns the sweep point with the highest mean throughput; the sweep
/// must be non-empty.
const SweepPoint& BestThroughputPoint(const std::vector<SweepPoint>& sweep);

}  // namespace granulock::core

#endif  // GRANULOCK_CORE_EXPERIMENT_H_
