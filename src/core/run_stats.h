#ifndef GRANULOCK_CORE_RUN_STATS_H_
#define GRANULOCK_CORE_RUN_STATS_H_

#include <cstdint>

#include "core/metrics.h"
#include "sim/machine.h"
#include "sim/stats.h"

namespace granulock::core {

class EngineProbe;

/// The measurement window every engine shares: completion and lock-request
/// counts, response-time statistics, the time-weighted queue lengths, the
/// response-time decomposition, the warm-up reset, and the one fill of
/// `SimulationMetrics` from these plus the machine's busy times.
///
/// Engines feed it at the same instants their protocol changes state;
/// every `Update`/`Add` lands in the statistic exactly when the engine
/// calls, so the order of calls is part of the simulated result.
class RunStats {
 public:
  RunStats() = default;
  RunStats(const RunStats&) = delete;  // the warm-up event holds `this`
  RunStats& operator=(const RunStats&) = delete;

  /// Counts inside the measurement window (zeroed at warm-up).
  struct Counts {
    int64_t totcom = 0;
    int64_t lock_requests = 0;
    int64_t lock_denials = 0;
    int64_t deadlock_aborts = 0;
    int64_t txn_restarts = 0;
    int64_t txn_sacrificed = 0;
  };

  /// One completed transaction's response time split into the five
  /// phases of `SimulationMetrics` (they sum to the response time).
  struct Phases {
    double pending_wait = 0.0;
    double lock_wait = 0.0;
    double io_service = 0.0;
    double cpu_service = 0.0;
    double sync_wait = 0.0;
  };

  /// Starts the queue-length averages at time 0 and, when `warmup` > 0,
  /// schedules the warm-up reset on `machine` — a regular event, since the
  /// window start is part of the simulated result. The reset also zeroes
  /// the machine's accounting and `probe`'s sampler baselines.
  void Start(sim::Machine* machine, double warmup, EngineProbe* probe);

  void CountLockRequest() { ++counts_.lock_requests; }
  void CountLockDenial() { ++counts_.lock_denials; }
  /// A contention-policy victim aborted; it either restarts or is
  /// sacrificed.
  void CountAbort(bool sacrificed) {
    ++counts_.deadlock_aborts;
    ++(sacrificed ? counts_.txn_sacrificed : counts_.txn_restarts);
  }
  const Counts& counts() const { return counts_; }
  /// Lock requests and denials since time 0. The warm-up does not reset
  /// them, so a controller steering on them acts the same whatever the
  /// measurement window.
  int64_t lifetime_lock_requests() const {
    return warmup_lock_requests_ + counts_.lock_requests;
  }
  int64_t lifetime_lock_denials() const {
    return warmup_lock_denials_ + counts_.lock_denials;
  }

  /// Records the queue lengths at `now` after a state change. The
  /// conservative engines track all three together; the incremental
  /// engine tracks running/waiting here and its admission parking (its
  /// analogue of the pending queue) through `UpdatePending`.
  void UpdateQueues(double now, int64_t active, int64_t blocked,
                    int64_t pending) {
    UpdateQueues(now, active, blocked);
    UpdatePending(now, pending);
  }
  void UpdateQueues(double now, int64_t active, int64_t blocked) {
    active_.Update(now, static_cast<double>(active));
    blocked_.Update(now, static_cast<double>(blocked));
  }
  void UpdatePending(double now, int64_t pending) {
    pending_.Update(now, static_cast<double>(pending));
  }
  /// The queue lengths last recorded (sampler readings).
  double active() const { return active_.current(); }
  double blocked() const { return blocked_.current(); }
  double pending() const { return pending_.current(); }

  /// A transaction completed after `response` time units.
  void Complete(double response);
  /// As above, with its response-time decomposition.
  void Complete(double response, const Phases& phases);

  /// Every `SimulationMetrics` field of the run that ended at `tmax`
  /// except `avg_admission_held` (engine-specific).
  SimulationMetrics Collect(const sim::Machine& machine, double tmax) const;

 private:
  /// The warm-up reset (see `Start`).
  void BeginMeasurement(sim::Machine* machine, EngineProbe* probe);

  Counts counts_;
  // What the warm-up reset took out of `counts_`.
  int64_t warmup_lock_requests_ = 0;
  int64_t warmup_lock_denials_ = 0;
  sim::RunningStat response_;
  sim::QuantileEstimator response_quantiles_;
  sim::TimeWeightedStat active_;
  sim::TimeWeightedStat blocked_;
  sim::TimeWeightedStat pending_;
  sim::RunningStat phase_pending_;
  sim::RunningStat phase_lock_;
  sim::RunningStat phase_io_;
  sim::RunningStat phase_cpu_;
  sim::RunningStat phase_sync_;
  double window_start_ = 0.0;
};

/// One transaction's response-time decomposition (always on). The
/// engine keeps the pending and lock fields; `ForkJoin` keeps the rest.
struct PhaseClock {
  double pending_since = 0.0;  // entered the pending queue (current stint)
  double lock_since = 0.0;     // left pending / started lock processing
  double grant_time = 0.0;     // locks granted, current fork began
  double pending_wait = 0.0;   // accumulated over all pending stints
  double lock_wait = 0.0;      // accumulated over all lock attempts
  double io_span_sum = 0.0;    // sum over sub-txns of [grant, io done]
  double cpu_span_sum = 0.0;   // sum over sub-txns of [io done, cpu done]
  double cpu_done_sum = 0.0;   // current fork's cpu-done timestamps (sync)

  /// The phases of a conservative-locking transaction (one fork) that
  /// completes at `now` after running `subtxns` sub-transactions. They
  /// sum to the response time exactly: pending/lock intervals tile
  /// [arrival, grant], and each sub-transaction's io/cpu/sync spans tile
  /// [grant, completion], so their mean over the sub-transactions does
  /// too.
  RunStats::Phases At(double now, int64_t subtxns) const {
    const double pu = static_cast<double>(subtxns);
    return {pending_wait, lock_wait, io_span_sum / pu, cpu_span_sum / pu,
            now - cpu_done_sum / pu};
  }
};

}  // namespace granulock::core

#endif  // GRANULOCK_CORE_RUN_STATS_H_
