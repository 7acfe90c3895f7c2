#ifndef GRANULOCK_CORE_ENGINE_PROBE_H_
#define GRANULOCK_CORE_ENGINE_PROBE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/fault.h"
#include "core/run_stats.h"
#include "model/config.h"
#include "obs/hooks.h"
#include "sim/machine.h"
#include "sim/trace.h"

namespace granulock::core {

/// Everything an engine run reports to sinks that must never perturb it:
/// the registry instruments, the lifecycle tracer, the phase spans, the
/// time-series sampler, the contention profiler's tick, the cell watchdog
/// and the post-run self-profile. All sinks are optional; each lifecycle
/// call is an inline null check per sink, and the periodic work rides on
/// observer events, which the executed-event count excludes.
///
/// Lifecycle calls take transaction ids and the times the engine already
/// keeps, and feed the counters, `sim::TraceRecorder` and
/// `obs::SpanRecorder` together. Contention-profiler calls carry
/// protocol-specific attribution, so engines make them directly through
/// `contention()`.
class EngineProbe {
 public:
  /// Sinks are unowned and must outlive the run; any may be null.
  EngineProbe(const obs::Hooks& hooks, const fault::CellWatchdog* watchdog);

  EngineProbe(const EngineProbe&) = delete;
  EngineProbe& operator=(const EngineProbe&) = delete;

  /// Binds the probe to a run of `cfg` on `machine` measured by `stats`
  /// (all three must outlive the run): caches the registry instruments
  /// (`engine.deadlock_aborts` only when `counts_aborts`), declares the
  /// sampler columns and schedules its ticks, and opens the contention
  /// profile over `cfg.ltot` granules (`imputed` when the engine has no
  /// real lock table).
  void Start(sim::Machine* machine, const RunStats* stats,
             const model::SystemConfig& cfg, bool imputed, bool counts_aborts);

  /// Schedules the contention profiler's ticks (nothing without a
  /// profiler): every `sample_interval` up to tmax, `tick()` gathers the
  /// engine's waits-for edges and lock occupancy and hands them to
  /// `ContentionSample`. `tick` must be at most two pointers.
  template <typename Tick>
  void StartContentionTicks(Tick tick);

  /// One contention sample: blocked fraction (from `RunStats`), the
  /// fraction of granules locked, the edges and the abort counters.
  void ContentionSample(std::vector<std::pair<uint64_t, uint64_t>> edges,
                        int64_t locked_granules);

  /// Starts the self-rescheduling watchdog poll chain (observer events)
  /// when a watchdog that can fire is attached. The poll throws to cancel
  /// the run at a deterministic simulated-time boundary.
  void ArmWatchdog();

  /// Warm-up: the sampler's interval baselines restart with the window.
  void RestartSampleWindow();

  /// Post-run self-profiling gauges (event counts, queue HWM, events/sec).
  void PublishRunProfile(double wall_seconds) const;

  obs::ContentionProfiler* contention() const { return hooks_.contention; }

  // ---- lifecycle -------------------------------------------------------

  /// A transaction entered the system touching `size` entities.
  void Created(uint64_t txn, int64_t size) {
    if (ctr_txn_created_ != nullptr) ctr_txn_created_->Increment();
    Trace(txn, sim::TraceEventType::kCreated, size);
  }

  /// The transaction left the pending queue it entered at `pending_since`.
  void LeftPending(uint64_t txn, double pending_since) {
    Span(txn, obs::Phase::kPendingWait, obs::kLifecycleTrack, pending_since);
  }

  /// A lock request began (`detail`: what it asks for).
  void LockRequested(uint64_t txn, int64_t detail) {
    if (ctr_lock_requests_ != nullptr) ctr_lock_requests_->Increment();
    Trace(txn, sim::TraceEventType::kLockRequested, detail);
  }

  /// The request was refused (`detail`: the blocker or the granule).
  void LockDenied(uint64_t txn, int64_t detail) {
    if (ctr_lock_denials_ != nullptr) ctr_lock_denials_->Increment();
    Trace(txn, sim::TraceEventType::kLockDenied, detail);
  }

  /// The request was granted on the spot.
  void LockGranted(uint64_t txn, int64_t detail) {
    Trace(txn, sim::TraceEventType::kLockGranted, detail);
  }

  /// Locks held, work begins: closes the lock wait begun at `lock_since`.
  void WorkStarted(uint64_t txn, double lock_since) {
    Span(txn, obs::Phase::kLockWait, obs::kLifecycleTrack, lock_since);
    if (ctr_lock_grants_ != nullptr) ctr_lock_grants_->Increment();
  }

  /// A blocked transaction was released to retry: its lock wait (begun at
  /// `lock_since`) ends without a grant.
  void Unblocked(uint64_t txn, double lock_since) {
    Span(txn, obs::Phase::kLockWait, obs::kLifecycleTrack, lock_since);
    if (hooks_.contention != nullptr) {
      hooks_.contention->OnUnblock(txn, machine_->Now());
    }
  }

  /// A sub-transaction's I/O stage on `node`, begun at `start`, is done.
  void IoDone(uint64_t txn, int32_t node, double start) {
    Span(txn, obs::Phase::kIoService, node, start);
  }

  /// Its CPU stage, begun at `io_done`, is done. With spans attached the
  /// (node, now) pair is appended to `sub_cpu_done` for the sync spans.
  template <typename SubCpuDone>
  void CpuDone(uint64_t txn, int32_t node, double io_done,
               SubCpuDone* sub_cpu_done) {
    if (hooks_.spans == nullptr) return;
    Span(txn, obs::Phase::kCpuService, node, io_done);
    sub_cpu_done->emplace_back(node, machine_->Now());
  }

  void SubTxnDone() {
    if (ctr_subtxns_done_ != nullptr) ctr_subtxns_done_->Increment();
  }

  /// Fork-join: each finished sub-transaction in `sub_cpu_done` waited
  /// from its CPU completion until now.
  template <typename SubCpuDone>
  void SyncWaits(uint64_t txn, const SubCpuDone& sub_cpu_done) {
    for (const auto& [node, cpu_done] : sub_cpu_done) {
      Span(txn, obs::Phase::kSyncWait, node, cpu_done);
    }
  }

  /// The transaction completed (arrived at `arrival`, ran `pu` wide). `pu`
  /// is 0 when the engine records no execution spans: its spans then stay
  /// out of reconciliation.
  void Completed(uint64_t txn, double arrival, int64_t pu, int64_t detail) {
    const double now = machine_->Now();
    if (ctr_txn_completed_ != nullptr) ctr_txn_completed_->Increment();
    if (hist_response_ != nullptr) hist_response_->Observe(now - arrival);
    if (hooks_.spans != nullptr && pu > 0) {
      hooks_.spans->TxnComplete(txn, arrival, now, pu);
    }
    Trace(txn, sim::TraceEventType::kCompleted, detail);
  }

  /// A contention-policy victim aborted (its `restarts`-th abort).
  void Aborted(uint64_t txn, int64_t restarts) {
    if (ctr_deadlock_aborts_ != nullptr) ctr_deadlock_aborts_->Increment();
    Trace(txn, sim::TraceEventType::kAborted, restarts);
  }

  /// The restart governor terminally aborted the transaction.
  void Sacrificed(uint64_t txn) {
    Trace(txn, sim::TraceEventType::kCompleted, /*detail=*/-1);
  }

 private:
  void Trace(uint64_t txn, sim::TraceEventType type, int64_t detail) {
    if (hooks_.trace != nullptr) {
      hooks_.trace->Record(machine_->Now(), txn, type, detail);
    }
  }
  void Span(uint64_t txn, obs::Phase phase, int32_t track, double start) {
    if (hooks_.spans != nullptr) {
      hooks_.spans->Record(txn, phase, track, start, machine_->Now());
    }
  }

  void SampleTick();
  void ScheduleWatchdogPoll();
  template <typename Tick>
  void ScheduleContentionTick(double delay, Tick tick);

  obs::Hooks hooks_;
  const fault::CellWatchdog* watchdog_;
  sim::Machine* machine_ = nullptr;
  const RunStats* stats_ = nullptr;
  const model::SystemConfig* cfg_ = nullptr;

  // Cached registry instruments (null without a registry).
  obs::Counter* ctr_txn_created_ = nullptr;
  obs::Counter* ctr_lock_requests_ = nullptr;
  obs::Counter* ctr_lock_denials_ = nullptr;
  obs::Counter* ctr_lock_grants_ = nullptr;
  obs::Counter* ctr_subtxns_done_ = nullptr;
  obs::Counter* ctr_txn_completed_ = nullptr;
  obs::Counter* ctr_deadlock_aborts_ = nullptr;
  obs::Histogram* hist_response_ = nullptr;

  // Sampler baselines for per-interval deltas (utilization, throughput).
  std::vector<double> sample_cpu_busy_;
  std::vector<double> sample_io_busy_;
  int64_t sample_totcom_ = 0;
  double sample_time_ = 0.0;
};

template <typename Tick>
void EngineProbe::StartContentionTicks(Tick tick) {
  if (hooks_.contention == nullptr) return;
  const double iv = hooks_.contention->options().sample_interval;
  if (iv > 0.0 && iv <= cfg_->tmax) ScheduleContentionTick(iv, tick);
}

template <typename Tick>
void EngineProbe::ScheduleContentionTick(double delay, Tick tick) {
  static_assert(sizeof(Tick) <= 2 * sizeof(void*),
                "contention ticks must fit the inline callback buffer");
  machine_->sim().ScheduleObserverAfter(delay, [this, tick] {
    tick();
    const double iv = hooks_.contention->options().sample_interval;
    if (machine_->Now() + iv <= cfg_->tmax) ScheduleContentionTick(iv, tick);
  });
}

}  // namespace granulock::core

#endif  // GRANULOCK_CORE_ENGINE_PROBE_H_
