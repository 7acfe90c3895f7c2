// Layer pricing for the traced run: replays each layer's public operations
// in isolation, at the sizes a point was observed to run at, and reports
// nanoseconds per operation. Multiplied by the operation counts the traced
// run read from the engines' registries, the prices split a cell's engine
// time across the layers (the count x ns model; see perfbench/README.md).
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>

#include "grid.h"
#include "report.h"

namespace perfbench {

/// What the traced run observed for one point, summed over its cells
/// (`queue_hwm` is the maximum over them).
struct PointObservation {
  int64_t cells = 0;
  int64_t events = 0;
  int64_t queue_hwm = 0;
  int64_t txn_created = 0;
  int64_t lock_requests = 0;
  int64_t lock_grants = 0;
  int64_t lock_denials = 0;
  int64_t subtxns = 0;
  int64_t deadlock_aborts = 0;
  int64_t totcom = 0;
  double avg_active = 0.0;
  double avg_blocked = 0.0;
};

/// Nanoseconds per operation, one field per replayed operation.
struct Prices {
  double event = 0.0;             ///< Simulator::ScheduleAt + Step
  double server_job = 0.0;        ///< PriorityServer::Submit to completion
  double conflict_draw = 0.0;     ///< ConflictModel::DrawBlocker
  double txn = 0.0;               ///< TransactionFactory::Generate
  double factory_build = 0.0;     ///< TransactionFactory constructor
  double acquire_all = 0.0;       ///< TryAcquireAll (+ amortized ReleaseAll)
  double queued_acquire = 0.0;    ///< WaitQueueLockTable::Acquire (+ release/abort)
  double cycle_check = 0.0;       ///< WaitsForGraph::FindCycleFrom
  double select_granules = 0.0;   ///< db::SelectGranules per created txn
  double waits_for_build = 0.0;   ///< db::BuildWaitsForGraph
};

/// Operation counts a point's cells performed, derived from `obs`.
struct Counts {
  double events = 0.0;  ///< events not spent completing a server job
  double server_jobs = 0.0;
  double conflict_draws = 0.0;
  double txns = 0.0;
  double factory_builds = 0.0;
  double acquire_all = 0.0;
  double queued_acquires = 0.0;
  double cycle_checks = 0.0;
  double select_granules = 0.0;
  double waits_for_builds = 0.0;
};

Counts CountOperations(const Point& point, const PointObservation& obs);

/// Prices every operation at `point`'s observed sizes, spending about
/// `budget_s` of wall time per operation, inside one span per operation.
Prices PricePoint(const Point& point, const PointObservation& obs,
                  double budget_s, uint64_t seed, SpanLog* spans);

/// The smaller of each price.
Prices FasterOf(const Prices& a, const Prices& b);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
