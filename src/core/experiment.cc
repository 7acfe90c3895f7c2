#include "core/experiment.h"

#include <algorithm>
#include <csignal>
#include <utility>

#include "sim/invariants.h"
#include "sim/stats.h"
#include "util/logging.h"
#include "util/random.h"

namespace granulock::core {

namespace {

/// Merges surviving replications in replication order: field sums via
/// `SimulationMetrics::Accumulate`, then per-field means and the Student-t
/// confidence half-widths on the two headline outputs. When every
/// replication survives, the arithmetic — and therefore the result — is
/// bit-identical to the historical merge.
class ReplicationMerger {
 public:
  void Add(const SimulationMetrics& s) {
    merged_.mean.Accumulate(s);
    throughput_stat_.Add(s.throughput);
    response_stat_.Add(s.response_time);
    ++survivors_;
  }

  int survivors() const { return survivors_; }

  ReplicatedMetrics Finalize() {
    merged_.replications = survivors_;
    merged_.mean.FinalizeMeans(static_cast<int64_t>(survivors_));
    merged_.throughput_hw95 = sim::ConfidenceHalfWidth(
        throughput_stat_.count(), throughput_stat_.StdDev(), 0.95);
    merged_.response_hw95 = sim::ConfidenceHalfWidth(
        response_stat_.count(), response_stat_.StdDev(), 0.95);
    return merged_;
  }

 private:
  ReplicatedMetrics merged_;
  sim::RunningStat throughput_stat_;
  sim::RunningStat response_stat_;
  int survivors_ = 0;
};

bool IsCancelled(const CellOutcome& outcome) {
  return !outcome.result.ok() &&
         outcome.result.status().code() == StatusCode::kCancelled;
}

}  // namespace

CellOutcome RunCell(const CellPolicy& policy, const CellKey& key,
                    uint64_t seed, const CellBody& body) {
  CellOutcome out;
  if (policy.journal != nullptr) {
    SimulationMetrics cached;
    if (policy.journal->Lookup(key, &cached)) {
      out.result = cached;
      out.from_checkpoint = true;
      return out;
    }
  }
  const int max_attempts = 1 + std::max(0, policy.max_cell_retries);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (policy.interrupt != nullptr &&
        policy.interrupt->load(std::memory_order_relaxed)) {
      out.ran = true;
      out.result = Status::Cancelled("run interrupted before cell started");
      return out;
    }
    out.ran = true;
    ++out.attempts;
    out.timed_out = false;
    // The watchdog (and its wall deadline) is per attempt: a retry gets a
    // fresh budget.
    fault::CellWatchdog watchdog(policy.cell_timeout_s, policy.interrupt,
                                 seed);
    try {
      // Contain invariant failures on this thread: a deep-audit Fail()
      // inside the cell throws instead of aborting the whole run.
      sim::invariants::ScopedFailureThrow contain;
      fault::Injector& injector = fault::Injector::Global();
      if (injector.armed()) {
        if (injector.ShouldFire(fault::InjectionPoint::kCellThrow, seed)) {
          throw std::runtime_error("injected cell failure (cell_throw)");
        }
        if (injector.ShouldFire(fault::InjectionPoint::kCellAuditFail, seed)) {
          sim::invariants::Fail(__FILE__, __LINE__,
                                "injected invariant failure (cell_audit_fail)");
        }
      }
      out.result = body(watchdog.active() ? &watchdog : nullptr);
    } catch (const fault::CellInterrupted& e) {
      out.result = Status::Cancelled(e.what());
      return out;  // interrupts are never retried
    } catch (const fault::CellTimeout& e) {
      out.result = Status::DeadlineExceeded(e.what());
      out.timed_out = true;
    } catch (const sim::invariants::AuditFailure& e) {
      out.result =
          Status::Internal(std::string("invariant failure: ") + e.what());
    } catch (const std::exception& e) {
      out.result =
          Status::Internal(std::string("uncaught exception: ") + e.what());
    }
    if (out.result.ok()) {
      if (policy.journal != nullptr) {
        const Status appended = policy.journal->Append(key, *out.result);
        if (!appended.ok()) {
          out.result = appended;
          return out;
        }
      }
      if (fault::Injector::Global().ShouldFire(
              fault::InjectionPoint::kSignalMidSweep, seed)) {
        std::raise(SIGTERM);
      }
      return out;
    }
    // Failed attempt: loop retries with the same derived seed.
  }
  return out;
}

void PublishCellStats(const RunReport& report,
                      obs::MetricsRegistry* registry) {
  registry->GetCounter("cells/completed")->Increment(report.cells_completed);
  registry->GetCounter("cells/from_checkpoint")
      ->Increment(report.cells_from_checkpoint);
  registry->GetCounter("cells/retried")->Increment(report.cell_retries);
  registry->GetCounter("cells/failed")
      ->Increment(static_cast<int64_t>(report.failures.size()));
  registry->GetCounter("cells/timed_out")->Increment(report.cells_timed_out);
}

std::vector<uint64_t> DeriveReplicationSeeds(uint64_t base_seed,
                                             int replications) {
  Rng seeder(base_seed);
  std::vector<uint64_t> seeds;
  seeds.reserve(static_cast<size_t>(std::max(replications, 0)));
  for (int r = 0; r < replications; ++r) {
    seeds.push_back(seeder.Fork(static_cast<uint64_t>(r)).NextUint64());
  }
  return seeds;
}

GridResult RunGrid(const std::vector<GridPoint>& grid,
                   const std::vector<uint64_t>& seeds, ParallelRunner* runner,
                   const CellPolicy& policy) {
  GRANULOCK_CHECK(!seeds.empty());
  const size_t reps = seeds.size();
  std::vector<CellOutcome> outcomes(grid.size() * reps);
  auto run_cell = [&](size_t i) {
    const GridPoint& point = grid[i / reps];
    const size_t r = i % reps;
    const CellKey key{point.series, point.point, static_cast<int>(r)};
    outcomes[i] =
        RunCell(policy, key, seeds[r], [&](const fault::CellWatchdog* wd) {
          return point.body(seeds[r], wd);
        });
  };
  if (runner != nullptr && runner->threads() > 1) {
    // Failures are chosen by the post-join scan below, in grid order, so
    // the answer never depends on worker scheduling.
    runner->ParallelFor(outcomes.size(), run_cell);
  } else {
    for (size_t i = 0; i < outcomes.size(); ++i) {
      run_cell(i);
      const CellOutcome& o = outcomes[i];
      if (!o.result.ok() && (IsCancelled(o) || !policy.allow_partial)) break;
    }
  }

  // Post-join scan in grid order: accounting, failure selection, and the
  // per-point merge.
  GridResult out;
  out.points.reserve(grid.size());
  RunReport unreported;
  RunReport& report = policy.report != nullptr ? *policy.report : unreported;
  for (size_t p = 0; p < grid.size(); ++p) {
    ReplicationMerger merger;
    for (size_t r = 0; r < reps; ++r) {
      const CellOutcome& o = outcomes[p * reps + r];
      if (!o.ran && !o.from_checkpoint) continue;  // fail-fast stopped first
      if (o.from_checkpoint) ++report.cells_from_checkpoint;
      if (o.attempts > 1) report.cell_retries += o.attempts - 1;
      if (o.result.ok()) {
        ++report.cells_completed;
        merger.Add(*o.result);
      } else if (IsCancelled(o)) {
        out.interrupted = report.interrupted = true;
      } else {
        const CellFailure failure{grid[p].series,     grid[p].point,
                                  grid[p].value,      static_cast<int>(r),
                                  o.attempts,         o.timed_out,
                                  o.result.status()};
        if (out.first_failure.status.ok()) out.first_failure = failure;
        if (o.timed_out) ++report.cells_timed_out;
        report.failures.push_back(failure);
      }
    }
    out.points.push_back(merger.survivors() > 0 ? merger.Finalize()
                                                : ReplicatedMetrics{});
  }
  return out;
}

Result<ReplicatedMetrics> RunReplicated(const model::SystemConfig& cfg,
                                        const workload::WorkloadSpec& spec,
                                        uint64_t base_seed, int replications,
                                        GranularitySimulator::Options options,
                                        ParallelRunner* runner,
                                        const CellPolicy& policy) {
  if (replications < 1) {
    return Status::InvalidArgument("replications must be >= 1");
  }
  if (options.obs.any()) runner = nullptr;
  const GridResult grid = RunGrid(
      {GridPoint{0, 0, cfg.ltot,
                 EngineCell<GranularitySimulator>(cfg, spec, options)}},
      DeriveReplicationSeeds(base_seed, replications), runner, policy);
  const Status& failure = grid.first_failure.status;
  if (!failure.ok() && !policy.allow_partial) return failure;
  if (grid.points[0].replications > 0) return grid.points[0];
  if (!failure.ok()) return failure;
  if (grid.interrupted) return Status::Cancelled("run interrupted");
  return Status::Internal("no replication produced metrics");
}

std::vector<int64_t> StandardLockSweep(int64_t dbsize) {
  GRANULOCK_CHECK_GE(dbsize, 1);
  static constexpr int64_t kGrid[] = {1,   2,   5,    10,   20,   50,
                                      100, 200, 500,  1000, 2000, 5000,
                                      10000, 20000, 50000};
  std::vector<int64_t> out;
  for (int64_t v : kGrid) {
    if (v <= dbsize) out.push_back(v);
  }
  if (out.empty() || out.back() != dbsize) out.push_back(dbsize);
  return out;
}

Result<std::vector<SweepPoint>> SweepLockCounts(
    const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
    const std::vector<int64_t>& lock_counts, uint64_t base_seed,
    int replications, GranularitySimulator::Options options,
    ParallelRunner* runner, const CellPolicy& policy) {
  if (replications < 1) {
    return Status::InvalidArgument("replications must be >= 1");
  }
  if (options.obs.any()) runner = nullptr;
  std::vector<GridPoint> grid;
  for (size_t p = 0; p < lock_counts.size(); ++p) {
    model::SystemConfig point_cfg = cfg;
    point_cfg.ltot = lock_counts[p];
    grid.push_back(
        GridPoint{0, static_cast<int>(p), lock_counts[p],
                  EngineCell<GranularitySimulator>(point_cfg, spec, options)});
  }
  GridResult result = RunGrid(
      grid, DeriveReplicationSeeds(base_seed, replications), runner, policy);
  if (!result.first_failure.status.ok() && !policy.allow_partial) {
    return result.first_failure.status;
  }
  std::vector<SweepPoint> out;
  for (size_t p = 0; p < lock_counts.size(); ++p) {
    if (result.points[p].replications == 0) continue;
    out.push_back(SweepPoint{lock_counts[p], std::move(result.points[p])});
  }
  return out;
}

const SweepPoint& BestThroughputPoint(const std::vector<SweepPoint>& sweep) {
  GRANULOCK_CHECK(!sweep.empty());
  return *std::max_element(sweep.begin(), sweep.end(),
                           [](const SweepPoint& a, const SweepPoint& b) {
                             return a.metrics.mean.throughput <
                                    b.metrics.mean.throughput;
                           });
}

}  // namespace granulock::core
